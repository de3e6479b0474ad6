/**
 * @file
 * Backend adapter over the native Z3 C++ API. Clauses are asserted as
 * disjunctions of boolean constants.
 */

#ifndef GPUMC_SMT_Z3_BACKEND_HPP
#define GPUMC_SMT_Z3_BACKEND_HPP

#include <memory>

#include "smt/backend.hpp"

namespace gpumc::smt {

class Z3Backend : public Backend {
  public:
    Z3Backend();
    ~Z3Backend() override;

    using Backend::addClause;
    Lit newVar() override;
    void addClause(std::span<const Lit> clause) override;
    SolveResult solve(const std::vector<Lit> &assumptions) override;
    void setTimeLimitMs(int64_t ms) override;
    TruthValue modelValue(Lit lit) const override;
    int64_t numVars() const override;
    int64_t numClauses() const override;
    std::string name() const override { return "z3"; }
    std::map<std::string, int64_t> statistics() const override;

  private:
    struct Impl; // hides z3++.h from the rest of the codebase
    std::unique_ptr<Impl> impl_;
};

} // namespace gpumc::smt

#endif // GPUMC_SMT_Z3_BACKEND_HPP
