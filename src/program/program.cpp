#include "program/program.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

#include "support/hash.hpp"

namespace gpumc::prog {

int
Program::varIndex(const std::string &varName) const
{
    for (size_t i = 0; i < vars.size(); ++i) {
        if (vars[i].name == varName)
            return static_cast<int>(i);
    }
    return -1;
}

int
Program::virtLoc(const std::string &varName) const
{
    int idx = varIndex(varName);
    GPUMC_ASSERT(idx >= 0, "unknown variable ", varName);
    return idx;
}

int
Program::physLoc(const std::string &varName) const
{
    int idx = varIndex(varName);
    GPUMC_ASSERT(idx >= 0, "unknown variable ", varName);
    GPUMC_ASSERT(!physOf_.empty(), "physLoc before validate()");
    return physOf_[idx];
}

bool
Program::isStraightLine() const
{
    for (const Thread &t : threads) {
        for (const Instruction &ins : t.instrs) {
            if (ins.op == Opcode::Goto || ins.isBranch())
                return false;
        }
    }
    return true;
}

namespace {

void
addCondConstants(const Cond *cond, std::set<int64_t> &values)
{
    if (!cond)
        return;
    const bool compares =
        cond->kind == Cond::Kind::Eq || cond->kind == Cond::Kind::Ne;
    for (const CondTerm *t : {&cond->tl, &cond->tr}) {
        if (compares && t->kind == CondTerm::Kind::Const)
            values.insert(t->value);
    }
    addCondConstants(cond->lhs.get(), values);
    addCondConstants(cond->rhs.get(), values);
}

constexpr uint64_t kSaturated = std::numeric_limits<uint64_t>::max();

/** |v|, exact for the most negative int64_t too. */
uint64_t
magnitude(int64_t v)
{
    return v < 0 ? uint64_t{0} - static_cast<uint64_t>(v)
                 : static_cast<uint64_t>(v);
}

uint64_t
saturatingAdd(uint64_t a, uint64_t b)
{
    return a > kSaturated - b ? kSaturated : a + b;
}

uint64_t
saturatingMul(uint64_t a, uint64_t b)
{
    return b != 0 && a > kSaturated / b ? kSaturated : a * b;
}

} // namespace

std::vector<int64_t>
Program::valueUniverse() const
{
    std::set<int64_t> values = {0, 1};
    for (const VarDecl &v : vars)
        values.insert(v.init);
    auto addOperand = [&](const Operand &o) {
        if (!o.isReg())
            values.insert(o.value);
    };
    for (const Thread &t : threads) {
        for (const Instruction &ins : t.instrs) {
            addOperand(ins.src);
            addOperand(ins.src2);
            addOperand(ins.branchLhs);
            addOperand(ins.branchRhs);
            addOperand(ins.barrierId);
        }
    }
    addCondConstants(assertion.get(), values);
    addCondConstants(filter.get(), values);
    return {values.begin(), values.end()};
}

int
Program::suggestedValueBits(int bound) const
{
    // Literals span all of int64_t, so magnitudes are unsigned and the
    // worst case saturates instead of overflowing; it caps the width
    // anyway.
    uint64_t maxValue = 1;
    for (int64_t v : valueUniverse())
        maxValue = std::max(maxValue, magnitude(v));
    // Every add runs at most once per unrolled run. A constant operand
    // adds its magnitude each time; an add with no constant operand
    // (two registers, or memory plus a register) can double the value
    // each time. Summing first and doubling last bounds every order in
    // which a value can pass through these adds.
    const uint64_t runs = static_cast<uint64_t>(std::max(bound, 0)) + 1;
    uint64_t doublings = 0;
    auto accumulate = [&](const Operand &o) {
        if (!o.isReg())
            maxValue = saturatingAdd(
                maxValue, saturatingMul(magnitude(o.value), runs));
    };
    for (const Thread &t : threads) {
        for (const Instruction &ins : t.instrs) {
            if (ins.op == Opcode::Rmw && ins.rmwKind == RmwKind::Add) {
                accumulate(ins.src);
                if (ins.src.isReg())
                    doublings = saturatingAdd(doublings, runs);
            } else if (ins.op == Opcode::AddReg) {
                accumulate(ins.branchLhs);
                accumulate(ins.src);
                if (ins.branchLhs.isReg() && ins.src.isReg())
                    doublings = saturatingAdd(doublings, runs);
            }
        }
    }
    for (uint64_t i = 0; i < doublings && maxValue != kSaturated; ++i)
        maxValue = saturatingMul(maxValue, 2);
    maxValue = saturatingAdd(maxValue, 1);
    int bits = 2;
    while (bits < 62 && (uint64_t{1} << bits) <= maxValue)
        bits++;
    return std::max(3, bits + 1); // one bit of headroom
}

void
Program::validateCond(const Cond &cond, const char *what) const
{
    switch (cond.kind) {
      case Cond::Kind::And:
      case Cond::Kind::Or:
        validateCond(*cond.lhs, what);
        validateCond(*cond.rhs, what);
        return;
      case Cond::Kind::Not:
        validateCond(*cond.lhs, what);
        return;
      case Cond::Kind::Eq:
      case Cond::Kind::Ne:
        for (const CondTerm *t : {&cond.tl, &cond.tr}) {
            if (t->kind == CondTerm::Kind::Reg) {
                if (t->thread < 0 || t->thread >= numThreads())
                    fatal(what, " references unknown thread P", t->thread);
            } else if (t->kind == CondTerm::Kind::Mem) {
                if (varIndex(t->name) < 0)
                    fatal(what, " references unknown variable ", t->name);
            }
        }
        return;
      case Cond::Kind::True:
        return;
    }
}

void
Program::validate()
{
    if (threads.empty())
        fatal("program has no threads");

    // Resolve physical locations through alias chains.
    physOf_.assign(vars.size(), -1);
    for (size_t i = 0; i < vars.size(); ++i) {
        // Follow the alias chain to its root.
        size_t cur = i;
        std::set<size_t> seen;
        while (!vars[cur].aliasOf.empty()) {
            if (!seen.insert(cur).second)
                fatal("cyclic alias chain involving variable ",
                      vars[cur].name);
            int nxt = varIndex(vars[cur].aliasOf);
            if (nxt < 0)
                fatal("variable ", vars[cur].name, " aliases unknown ",
                      vars[cur].aliasOf);
            cur = static_cast<size_t>(nxt);
        }
        physOf_[i] = static_cast<int>(cur);
    }

    std::set<std::string> varNames;
    for (const VarDecl &v : vars) {
        if (!varNames.insert(v.name).second)
            fatal("duplicate variable declaration: ", v.name);
    }

    for (Thread &t : threads) {
        std::map<std::string, int> labels;
        for (size_t pc = 0; pc < t.instrs.size(); ++pc) {
            const Instruction &ins = t.instrs[pc];
            if (ins.op == Opcode::Label) {
                if (!labels.emplace(ins.label, pc).second) {
                    fatalAt(ins.loc, "duplicate label ", ins.label, " in ",
                            t.name);
                }
            }
        }
        for (Instruction &ins : t.instrs) {
            if (ins.op == Opcode::Goto || ins.isBranch()) {
                if (!labels.count(ins.label)) {
                    fatalAt(ins.loc, "unknown jump target ", ins.label,
                            " in ", t.name);
                }
            }
            if (ins.isMemoryAccess()) {
                if (varIndex(ins.location) < 0) {
                    fatalAt(ins.loc, "unknown variable ", ins.location,
                            " in ", t.name);
                }
            }
            if (ins.scope && !scopeMatchesArch(*ins.scope, arch)) {
                fatalAt(ins.loc, "scope .", scopeName(*ins.scope),
                        " does not belong to architecture ",
                        archName(arch));
            }
            if (arch == Arch::Vulkan && ins.order == MemOrder::Sc) {
                fatalAt(ins.loc,
                        "Vulkan has no sequentially-consistent order");
            }
            // Default the scope.
            if (ins.producesEvent() && !ins.scope)
                ins.scope = defaultScope();
        }
    }

    if (assertion)
        validateCond(*assertion, "assertion");
    if (filter)
        validateCond(*filter, "filter");
}

namespace {

// FieldHasher (support/hash.hpp) provides the FNV-1a field stream; the
// offset bases below are kept verbatim so fingerprints are unchanged.

void
hashOperand(FieldHasher &h, const Operand &o)
{
    h.tag('o');
    h.u64(static_cast<uint64_t>(o.kind));
    h.str(o.reg);
    h.i64(o.value);
}

void
hashCond(FieldHasher &h, const Cond *cond)
{
    if (!cond) {
        h.tag('0');
        return;
    }
    // Cond::str() is a faithful serialization of the condition tree
    // (used by the emitter round-trip), so hashing it covers every
    // semantic field of the tree.
    h.tag('c');
    h.str(cond->str());
}

void
hashInstruction(FieldHasher &h, const Instruction &ins)
{
    h.tag('i');
    h.u64(static_cast<uint64_t>(ins.op));
    h.str(ins.location);
    h.str(ins.dst);
    hashOperand(h, ins.src);
    hashOperand(h, ins.src2);
    h.u64(static_cast<uint64_t>(ins.order));
    h.boolean(ins.scope.has_value());
    if (ins.scope)
        h.u64(static_cast<uint64_t>(*ins.scope));
    h.boolean(ins.atomic);
    h.u64(static_cast<uint64_t>(ins.rmwKind));
    h.u64(static_cast<uint64_t>(ins.proxy));
    h.u64(static_cast<uint64_t>(ins.proxyFence));
    h.boolean(ins.storageClass.has_value());
    if (ins.storageClass)
        h.u64(static_cast<uint64_t>(*ins.storageClass));
    h.boolean(ins.semSc0);
    h.boolean(ins.semSc1);
    h.boolean(ins.avFlag);
    h.boolean(ins.visFlag);
    h.boolean(ins.semAv);
    h.boolean(ins.semVis);
    h.str(ins.label);
    hashOperand(h, ins.branchLhs);
    hashOperand(h, ins.branchRhs);
    hashOperand(h, ins.barrierId);
}

void
hashProgram(FieldHasher &h, const Program &p)
{
    h.u64(static_cast<uint64_t>(p.arch));
    h.u64(p.vars.size());
    for (const VarDecl &v : p.vars) {
        h.tag('v');
        h.str(v.name);
        h.i64(v.init);
        h.str(v.aliasOf);
        h.u64(static_cast<uint64_t>(v.storageClass));
    }
    h.u64(p.threads.size());
    for (const Thread &t : p.threads) {
        h.tag('t');
        h.i64(t.placement.cta);
        h.i64(t.placement.gpu);
        h.i64(t.placement.sg);
        h.i64(t.placement.wg);
        h.i64(t.placement.qf);
        h.boolean(t.placement.ssw);
        h.u64(t.instrs.size());
        for (const Instruction &ins : t.instrs)
            hashInstruction(h, ins);
    }
    h.u64(static_cast<uint64_t>(p.assertKind));
    hashCond(h, p.assertion.get());
    hashCond(h, p.filter.get());
}

} // namespace

ProgramFingerprint
Program::fingerprint() const
{
    // Two independent passes with different offset bases; a collision
    // would silently reuse the wrong cached session, so 64 bits alone
    // is not comfortable enough.
    FieldHasher a(14695981039346656037ull);
    FieldHasher b(0x9e3779b97f4a7c15ull);
    hashProgram(a, *this);
    hashProgram(b, *this);
    return {a.value(), b.value()};
}

std::string
ProgramFingerprint::str() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

} // namespace gpumc::prog
