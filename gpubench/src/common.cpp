#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "support/json.hpp"

namespace gpubench {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double rank = p * static_cast<double>(values.size() - 1);
    size_t below = static_cast<size_t>(rank);
    if (below + 1 >= values.size())
        return values.back();
    double frac = rank - static_cast<double>(below);
    return values[below] + frac * (values[below + 1] - values[below]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
selfPeakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

Models
loadModels(const Options &opts)
{
    Models models;
    std::string dir = opts.root + "/cat/";
    models.ptx60 = std::make_unique<cat::CatModel>(
        cat::CatModel::fromFile(dir + "ptx-v6.0.cat"));
    models.ptx75 = std::make_unique<cat::CatModel>(
        cat::CatModel::fromFile(dir + "ptx-v7.5.cat"));
    models.vulkan = std::make_unique<cat::CatModel>(
        cat::CatModel::fromFile(dir + "vulkan.cat"));
    return models;
}

bool
solverSat(const prog::Program &program, core::Property property,
          bool holds)
{
    if (property == core::Property::Safety &&
        program.assertKind == prog::AssertKind::Exists)
        return holds;
    return !holds;
}

const char *
propertyName(core::Property property)
{
    switch (property) {
      case core::Property::Safety: return "safety";
      case core::Property::Liveness: return "liveness";
      case core::Property::CatSpec: return "drf";
    }
    return "?";
}

namespace {

/** Every per-layer metric with its unit, in BENCHMARK.json order. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"litmus.parse_us", "us"},
    {"cat.load_us", "us"},
    {"program.unroll_us", "us"},
    {"program.events", "count"},
    {"analysis.exec_us", "us"},
    {"analysis.relation_us", "us"},
    {"analysis.ub_pairs", "count"},
    {"analysis.lb_pairs", "count"},
    {"smt.backend_us", "us"},
    {"encoder.structure_us", "us"},
    {"encoder.axioms_us", "us"},
    {"encoder.property_us", "us"},
    {"encoder.vars", "count"},
    {"encoder.clauses", "count"},
    {"smt.solve_us", "us"},
    {"smt.conflicts", "count"},
    {"smt.decisions", "count"},
    {"smt.propagations", "count"},
    {"smt.props_per_s", "1/s"},
    {"smt.conflicts_per_s", "1/s"},
    {"smt.props_per_conflict", "ratio"},
    {"core.check_us", "us"},
    {"core.sessions_built", "count"},
    {"core.sessions_reused", "count"},
    {"core.worker_busy_frac", "ratio"},
    {"serve.hit_ratio", "ratio"},
    {"serve.session_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.max_queue_depth", "count"},
    {"serve.engine_ms_p50", "ms"},
    {"serve.engine_ms_p99", "ms"},
    {"serve.transport_ms_p50", "ms"},
    {"dpor.us", "us"},
    {"dpor.candidates", "count"},
    {"dpor.consistency_checks", "count"},
    {"dpor.pruned_subtrees", "count"},
    {"explicit.us", "us"},
    {"explicit.candidates", "count"},
    {"verifier.unroll_us", "us"},
    {"verifier.analysis_us", "us"},
    {"verifier.encode_us", "us"},
    {"verifier.solve_us", "us"},
    {"trace.reconciled", "count"},
    {"trace.overhead_frac", "ratio"},
};

} // namespace

Layers::Layers()
{
    for (const auto &[name, unit] : kLayerMetrics)
        values_[name] = {0.0, unit};
}

void
Layers::add(const std::string &name, double value)
{
    auto it = values_.find(name);
    if (it == values_.end())
        throw std::logic_error("undeclared layer metric " + name);
    it->second.first += value;
}

void
Layers::set(const std::string &name, double value)
{
    auto it = values_.find(name);
    if (it == values_.end())
        throw std::logic_error("undeclared layer metric " + name);
    it->second.first = value;
}

double
Layers::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second.first;
}

void
Layers::finish()
{
    double solveS = get("smt.solve_us") / 1e6;
    double conflicts = get("smt.conflicts");
    double props = get("smt.propagations");
    if (solveS > 0) {
        set("smt.props_per_s", props / solveS);
        set("smt.conflicts_per_s", conflicts / solveS);
    }
    if (conflicts > 0)
        set("smt.props_per_conflict", props / conflicts);
}

void
Report::mismatch(const std::string &what)
{
    // Keep the report readable when a broken build fails everything.
    if (mismatches_.size() < 1000)
        mismatches_.push_back(what);
    else if (mismatches_.size() == 1000)
        mismatches_.push_back("... (further mismatches omitted)");
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

std::string
num(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
Report::json() const
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics_) {
        out << (first ? "" : ", ") << jsonString(name)
            << ": {\"value\": " << num(vu.first)
            << ", \"unit\": " << jsonString(vu.second) << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

} // namespace gpubench
