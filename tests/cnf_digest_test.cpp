/**
 * @file
 * The CNF stream is pinned, not only its size. A backend that does no
 * solving folds every newVar, every addClause literal list and every
 * addAcyclic edge list, in call order, into a 64-bit digest. The test
 * drives it through the steps a Verifier session takes (unroll, the
 * two analyses, the circuit, encodeStructure, assertAxioms,
 * encodeFlags, then the literal of the program's assertion), once with
 * the backend taking the `acyclic` edges (the builtin solver's path)
 * and once declining them (Z3's, which adds the clock clauses).
 *
 * `Encoding.*` sizes and `SearchIdentity.*` counters can agree while
 * the clauses come in another order; these digests cannot. The pins
 * were measured on the encoder before its memo tables were keyed by
 * `.cat` node id; a change meant to keep the CNF must not move them.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/exec_analysis.hpp"
#include "analysis/relation_analysis.hpp"
#include "encoder/program_encoder.hpp"
#include "encoder/relation_encoder.hpp"
#include "kernels/sync_kernels.hpp"
#include "support/hash.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

using smt::AcyclicEdge;
using smt::Lit;

class DigestBackend : public smt::Backend {
  public:
    explicit DigestBackend(bool acceptAcyclic) : accept_(acceptAcyclic) {}

    using smt::Backend::addClause;

    Lit newVar() override
    {
        hash_.tag('v');
        return static_cast<Lit>(++vars_);
    }

    void addClause(std::span<const Lit> clause) override
    {
        hash_.tag('c');
        hash_.u64(clause.size());
        for (Lit l : clause)
            hash_.i64(l);
        ++clauses_;
    }

    bool addAcyclic(std::span<const AcyclicEdge> edges) override
    {
        hash_.tag('a');
        hash_.u64(edges.size());
        for (const AcyclicEdge &e : edges) {
            hash_.i64(e.from);
            hash_.i64(e.to);
            hash_.i64(e.lit);
        }
        return accept_;
    }

    smt::SolveResult solve(const std::vector<Lit> &) override
    {
        return smt::SolveResult::Unknown;
    }
    smt::TruthValue modelValue(Lit) const override
    {
        return smt::TruthValue::Unknown;
    }
    int64_t numVars() const override { return vars_; }
    int64_t numClauses() const override { return clauses_; }
    std::string name() const override { return "digest"; }

    uint64_t digest() const { return hash_.value(); }

  private:
    bool accept_;
    FieldHasher hash_{FieldHasher::kBasisA};
    int64_t vars_ = 0;
    int64_t clauses_ = 0;
};

/** The digest of one program's session encoding at bound 2. */
uint64_t
streamDigest(const prog::Program &program, const cat::CatModel &model,
             bool acceptAcyclic)
{
    const int bound = 2;
    prog::UnrolledProgram up = prog::unroll(program, bound);
    analysis::ExecAnalysis exec(up);
    analysis::RelationAnalysis ra(exec, model);
    DigestBackend backend(acceptAcyclic);
    smt::Circuit circuit(backend);
    encoder::ProgramEncoder pe(
        ra, circuit,
        encoder::EncoderOptions{program.suggestedValueBits(bound),
                                /*coTotal=*/program.arch != prog::Arch::Ptx,
                                /*useLowerBounds=*/true,
                                /*forceClosureSoundness=*/false});
    encoder::RelationEncoder re(ra, pe);
    pe.encodeStructure();
    re.assertAxioms();
    std::vector<encoder::FlagViolation> flags = re.encodeFlags();
    for (const encoder::FlagViolation &flag : flags)
        circuit.assertLit(flag.lit);
    if (program.assertion)
        circuit.assertLit(pe.condLit(*program.assertion));
    return backend.digest();
}

struct PinnedDigest {
    const char *label;
    prog::Program (*program)();
    const cat::CatModel &(*model)();
    uint64_t accepted; ///< addAcyclic takes the edges
    uint64_t declined; ///< addAcyclic declines: clock clauses
};

template <const char *File>
prog::Program
corpusProgram()
{
    return litmus::parseLitmusFile(litmusPath(File));
}

constexpr char kSbWeak[] = "ptx/basic/sb-weak.litmus";
constexpr char kPtxMp[] = "ptx/basic/mp-rel-acq.litmus";
constexpr char kCoPartial[] = "ptx/paper/fig6-co-partial.litmus";
constexpr char kMpProxy[] = "ptx/paper/fig5-mp-proxy.litmus";
constexpr char kVulkanMp[] = "vulkan/basic/mp-rel-acq.litmus";
constexpr char kFlagRace[] = "vulkan/basic/mp-nonatomic-flag-race.litmus";
constexpr char kXfRace[] = "vulkan/paper/fig3-xf-race.litmus";
constexpr char kRmwBug[] = "vulkan/paper/fig16-rmw-bug.litmus";

prog::Program
xfBarrier22()
{
    return kernels::buildXfBarrier({2, 2}, kernels::XfVariant::Base);
}

prog::Program
ticketlockRel2Rlx22()
{
    return kernels::buildTicketlock({2, 2},
                                    kernels::LockVariant::Rel2Rlx);
}

/** The eight programs of Encoding.SizesArePinnedPerModel, then two
 *  Table 7 kernels at grid 2.2. */
const PinnedDigest kPinned[] = {
    {kSbWeak, corpusProgram<kSbWeak>, ptx60Model,
     0x3fa904471c79d60c, 0x01ac49de9c0ef3a6},
    {kPtxMp, corpusProgram<kPtxMp>, ptx60Model,
     0x77c27ea481922d13, 0xf2c77fedc045f39b},
    {kCoPartial, corpusProgram<kCoPartial>, ptx75Model,
     0x39312853461cd955, 0x9c84554a720f3d64},
    {kMpProxy, corpusProgram<kMpProxy>, ptx75Model,
     0x02938191c9f269e4, 0xf04e25356a45eef4},
    {kVulkanMp, corpusProgram<kVulkanMp>, vulkanModel,
     0x7e4144b9599b237a, 0x0c19b23a9fca06fd},
    {kFlagRace, corpusProgram<kFlagRace>, vulkanModel,
     0x6f2fe38b2c296be9, 0xb0124b83c5df0221},
    {kXfRace, corpusProgram<kXfRace>, vulkanModel,
     0x2175cb80874bdb80, 0x5c1a143264d1c777},
    {kRmwBug, corpusProgram<kRmwBug>, vulkanModel,
     0x3e841c46e16c44de, 0xc8b7270c3b0f48f5},
    {"xf-barrier 2.2", xfBarrier22, vulkanModel,
     0xdf72f2416442fba1, 0xa2055a8d0345ae57},
    {"ticketlock-rel2rx 2.2", ticketlockRel2Rlx22, vulkanModel,
     0xf9e40a93ff94c4f7, 0xf7020c894b63edb2},
};

std::string
hex(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(CnfDigest, StreamIsPinnedPerInput)
{
    for (const PinnedDigest &pin : kPinned) {
        prog::Program program = pin.program();
        EXPECT_EQ(hex(streamDigest(program, pin.model(), true)),
                  hex(pin.accepted))
            << pin.label << " [acyclic edges taken]";
        EXPECT_EQ(hex(streamDigest(program, pin.model(), false)),
                  hex(pin.declined))
            << pin.label << " [acyclic edges declined]";
    }
}

TEST(CnfDigest, DistinguishesClauseOrder)
{
    // The digest is of the stream, not of the clause set.
    DigestBackend ab(true), ba(true);
    for (DigestBackend *b : {&ab, &ba}) {
        b->newVar();
        b->newVar();
    }
    ab.addClause({1, 2});
    ab.addClause({-1});
    ba.addClause({-1});
    ba.addClause({1, 2});
    EXPECT_NE(ab.digest(), ba.digest());
    EXPECT_EQ(ab.numClauses(), ba.numClauses());
}

} // namespace
} // namespace gpumc::test
