/**
 * @file
 * CatModel: a parsed, name-resolved and type-checked `.cat` consistency
 * model, ready for evaluation (explicit checker) or encoding (SMT).
 */

#ifndef GPUMC_CAT_MODEL_HPP
#define GPUMC_CAT_MODEL_HPP

#include <string>
#include <string_view>

#include "cat/ast.hpp"
#include "cat/vocabulary.hpp"

namespace gpumc::cat {

/**
 * Stable 128-bit content fingerprint of a parsed model: the model name
 * plus a structural hash of every relation definition (let bindings
 * and axioms). Two CatModel objects with equal fingerprints evaluate
 * and encode identically, so the fingerprint — never the object's
 * address — can key caches of verification sessions and results. A
 * long-lived server reloads models, and a reloaded model can land on a
 * recycled allocation whose raw pointer would alias a stale session.
 */
struct ModelFingerprint {
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool operator==(const ModelFingerprint &) const = default;
    bool operator<(const ModelFingerprint &other) const
    {
        return hi != other.hi ? hi < other.hi : lo < other.lo;
    }

    /** 32 hex digits, for logs and reports. */
    std::string str() const;
};

class CatModel {
  public:
    /**
     * Parse and check a `.cat` source.
     * @throws FatalError on syntax, unknown-name or type errors.
     */
    static CatModel fromSource(std::string_view source,
                               const Vocabulary &vocab = Vocabulary::gpu());

    /** Load a model from a file path. */
    static CatModel fromFile(const std::string &path,
                             const Vocabulary &vocab = Vocabulary::gpu());

    const std::string &name() const { return parsed_.modelName; }
    const std::vector<LetBinding> &lets() const { return parsed_.lets; }
    const std::vector<Axiom> &axioms() const { return parsed_.axioms; }
    const Vocabulary &vocabulary() const { return *vocab_; }

    /** Number of expression nodes; Expr::id runs over 0..numNodes()-1. */
    int numNodes() const { return numNodes_; }

    /** @p e's id, asserted to be in range. */
    int idOf(const Expr &e) const
    {
        GPUMC_ASSERT(e.id >= 0 && e.id < numNodes_,
                     "expression node without an id of this model");
        return e.id;
    }

    /** True if the model contains at least one `flag ~empty` axiom. */
    bool hasFlaggedAxioms() const;

    /** Content fingerprint (computed once at construction). */
    const ModelFingerprint &fingerprint() const { return fingerprint_; }

  private:
    CatModel(ParsedModel parsed, const Vocabulary &vocab);

    void resolveAndCheck();
    void resolveExpr(Expr &e, int numVisibleLets);
    void numberNodes(Expr &e);
    void computeFingerprint();

    ParsedModel parsed_;
    const Vocabulary *vocab_;
    ModelFingerprint fingerprint_;
    int numNodes_ = 0;
};

} // namespace gpumc::cat

#endif // GPUMC_CAT_MODEL_HPP
