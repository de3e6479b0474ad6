#include "smt/z3_backend.hpp"

#include <z3++.h>

#include "support/diagnostics.hpp"
#include "support/trace.hpp"

namespace gpumc::smt {

struct Z3Backend::Impl {
    z3::context ctx;
    z3::solver solver;
    std::vector<z3::expr> vars;
    std::unique_ptr<z3::model> model;
    int64_t clauseCount = 0;
    int64_t solveCalls = 0;

    Impl() : solver(ctx) {}

    z3::expr literal(Lit l)
    {
        GPUMC_ASSERT(l != 0 && std::abs(l) <= static_cast<Lit>(vars.size()),
                     "unknown literal ", l);
        z3::expr v = vars[std::abs(l) - 1];
        return l > 0 ? v : !v;
    }
};

Z3Backend::Z3Backend() : impl_(std::make_unique<Impl>()) {}

Z3Backend::~Z3Backend() = default;

Lit
Z3Backend::newVar()
{
    int64_t idx = static_cast<int64_t>(impl_->vars.size());
    std::string name = "v" + std::to_string(idx);
    impl_->vars.push_back(impl_->ctx.bool_const(name.c_str()));
    return static_cast<Lit>(idx + 1);
}

void
Z3Backend::addClause(std::span<const Lit> clause)
{
    impl_->clauseCount++;
    if (clause.size() == 1) {
        impl_->solver.add(impl_->literal(clause[0]));
        return;
    }
    z3::expr_vector lits(impl_->ctx);
    for (Lit l : clause)
        lits.push_back(impl_->literal(l));
    impl_->solver.add(z3::mk_or(lits));
}

SolveResult
Z3Backend::solve(const std::vector<Lit> &assumptions)
{
    impl_->solveCalls++;
    z3::expr_vector assumps(impl_->ctx);
    for (Lit l : assumptions)
        assumps.push_back(impl_->literal(l));

    trace::Span span("z3-solve");
    z3::check_result result = impl_->solver.check(assumps);
    span.arg("result", result == z3::sat     ? "sat"
                       : result == z3::unsat ? "unsat"
                                             : "unknown");

    if (result == z3::sat) {
        impl_->model = std::make_unique<z3::model>(impl_->solver.get_model());
        return SolveResult::Sat;
    }
    impl_->model.reset();
    return result == z3::unsat ? SolveResult::Unsat
                               : SolveResult::Unknown;
}

TruthValue
Z3Backend::modelValue(Lit lit) const
{
    if (!impl_->model)
        return TruthValue::Unknown;
    z3::expr value = impl_->model->eval(impl_->literal(lit), true);
    if (value.is_true())
        return TruthValue::True;
    if (value.is_false())
        return TruthValue::False;
    return TruthValue::Unknown;
}

void
Z3Backend::setTimeLimitMs(int64_t ms)
{
    // Z3 interprets timeout=0 as "0 ms budget" (every check returns
    // unknown), not "unlimited"; its unlimited default is UINT_MAX.
    // Clamp oversized budgets below UINT_MAX so they stay finite.
    constexpr unsigned kUnlimited = 4294967295u; // UINT_MAX
    unsigned timeout = kUnlimited;
    if (ms > 0) {
        timeout = ms < static_cast<int64_t>(kUnlimited)
                      ? static_cast<unsigned>(ms)
                      : kUnlimited - 1;
    }
    z3::params params(impl_->ctx);
    params.set("timeout", timeout);
    impl_->solver.set(params);
}

int64_t
Z3Backend::numVars() const
{
    return static_cast<int64_t>(impl_->vars.size());
}

int64_t
Z3Backend::numClauses() const
{
    return impl_->clauseCount;
}

std::map<std::string, int64_t>
Z3Backend::statistics() const
{
    std::map<std::string, int64_t> out;
    out["solveCalls"] = impl_->solveCalls;
    z3::stats stats = impl_->solver.statistics();
    for (unsigned i = 0; i < stats.size(); ++i) {
        std::string key = stats.key(i);
        for (char &c : key) {
            if (c == ' ' || c == '-')
                c = '_';
        }
        int64_t value = stats.is_uint(i)
                            ? static_cast<int64_t>(stats.uint_value(i))
                            : static_cast<int64_t>(stats.double_value(i));
        out[key] = value;
    }
    return out;
}

} // namespace gpumc::smt
