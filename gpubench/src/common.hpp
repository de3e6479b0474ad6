/**
 * @file
 * Shared plumbing of the gpubench workload runner: command-line
 * options, the three shipped models, timing and percentile helpers,
 * peak-RSS probes, the per-run result report (the final JSON line) and
 * the per-layer accumulator the traced runs fill.
 */

#ifndef GPUBENCH_COMMON_HPP
#define GPUBENCH_COMMON_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cat/model.hpp"
#include "core/verifier.hpp"

namespace gpubench {

using namespace gpumc;

struct Options {
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed phase; at least one full pass always runs. */
    double seconds = 10;
    bool trace = false;
    /** Tiny inputs for the self-check (one file per model, MP-4, ...). */
    bool tiny = false;
    /** Repository root holding src/, cat/ and litmus/. */
    std::string root;
    std::string serveBin;
    /** Directory for traced-run output files and daemon sockets. */
    std::string outDir;
    /** Worker threads and connections of the litmus and serve
     *  workloads: half the CPUs. */
    unsigned jobs = 1;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

/** Monotonic seconds since an arbitrary origin. */
double nowSec();

/** Percentile by linear interpolation between order statistics;
 *  p in [0,1]. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/** Peak resident set of this process, in MiB. */
double selfPeakRssMb();

/** The shipped models, loaded from <root>/cat. */
struct Models {
    std::unique_ptr<cat::CatModel> ptx60, ptx75, vulkan;
};
Models loadModels(const Options &opts);

/** Deterministic Fisher-Yates shuffle (std::shuffle is not portable). */
template <typename T>
void
seededShuffle(std::vector<T> &items, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    for (size_t i = items.size(); i > 1; --i) {
        size_t j = static_cast<size_t>(rng() % i);
        std::swap(items[i - 1], items[j]);
    }
}

/**
 * Did the solver find a model? Safety of an `exists` condition holds
 * on SAT; every other property holds on UNSAT.
 */
bool solverSat(const prog::Program &program, core::Property property,
               bool holds);

const char *propertyName(core::Property property);

/**
 * Per-layer numbers of a traced run, keyed by metric name. Every
 * workload reports the full set declared in BENCHMARK.json; layers a
 * workload does not exercise stay 0.
 */
class Layers {
  public:
    Layers();
    void add(const std::string &name, double value);
    void set(const std::string &name, double value);
    double get(const std::string &name) const;
    /** Derive the ratio metrics (props/s, hit ratios, ...). */
    void finish();
    const std::map<std::string, std::pair<double, std::string>> &
    all() const
    {
        return values_;
    }

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** The run's outcome: verdict gate, counters and metrics. */
class Report {
  public:
    /** Record a wrong verdict (or a reconciliation mismatch). */
    void mismatch(const std::string &what);
    void metric(const std::string &name, double value,
                const std::string &unit);

    int64_t attempted = 0;
    /** unknown + timeout + error + overloaded verdicts. */
    int64_t failed = 0;
    /** Verdicts compared against an independent reference. */
    int64_t checked = 0;
    /** Verdicts with no reference to compare against. */
    int64_t unchecked = 0;

    /** No wrong verdict and no failed one: a healthy run has neither. */
    bool correct() const { return mismatches_.empty() && failed == 0; }
    const std::vector<std::string> &mismatches() const
    {
        return mismatches_;
    }

    /** The final stdout line: {"correct","attempted","failed","metrics"}. */
    std::string json() const;

  private:
    std::vector<std::string> mismatches_;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

/** Formats a double with all its digits (round-trippable). */
std::string num(double value);

} // namespace gpubench

#endif // GPUBENCH_COMMON_HPP
