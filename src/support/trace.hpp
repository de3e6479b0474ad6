/**
 * @file
 * Unified tracing & metrics layer for the verification pipeline.
 *
 * One process-wide `trace::Tracer` collects
 *  - *spans*: named wall-clock intervals on a per-thread lane (the
 *    pipeline phases — unroll, exec analysis, relation analysis,
 *    structural encoding — plus per-property encode and solve
 *    intervals, and one lane per BatchVerifier worker), and
 *  - *counters*: named monotonic totals (per-`.cat`-relation bound and
 *    encoding sizes, solver conflicts/propagations/restarts, phase
 *    time totals, session cache hits).
 *
 * Exports:
 *  - `writeChromeTrace()` emits Chrome trace-event JSON ("X" complete
 *    events, one `tid` per thread lane) loadable by `chrome://tracing`
 *    and Perfetto.
 *  - `writeMetrics()` emits a flat metrics JSON: every counter plus
 *    per-span-name aggregates (count, total duration).
 *
 * Cost model: tracing is off by default and *near zero-overhead when
 * disabled* — every public entry point first does one relaxed atomic
 * load and returns; no clock reads, no allocation, no locking. When
 * enabled, completed spans and counter updates go through one mutex;
 * span construction reads the clock twice and allocates only on
 * completion. See docs/OBSERVABILITY.md.
 */

#ifndef GPUMC_SUPPORT_TRACE_HPP
#define GPUMC_SUPPORT_TRACE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace gpumc::trace {

/** Key/value pairs attached to a span (the Chrome `args` object). */
using SpanArgs = std::vector<std::pair<std::string, std::string>>;

class Tracer {
  public:
    /** The process-wide tracer (tools enable it for --trace/--metrics). */
    static Tracer &instance();

    /** Arm collection. Cheap to call repeatedly. */
    void enable() { enabled_.store(true, std::memory_order_relaxed); }
    void disable() { enabled_.store(false, std::memory_order_relaxed); }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Drop all collected events and counters (tests). */
    void reset();

    /** Microseconds since the tracer's epoch (steady clock). */
    int64_t nowUs() const;

    /**
     * Record a completed span on the calling thread's lane. @p startUs
     * and @p durUs are in tracer-epoch microseconds; callers that
     * derive them from their own stopwatches must floor (never round
     * up) durations so children stay inside their enclosing span.
     * No-op when disabled.
     */
    void completeSpan(const char *name, int64_t startUs, int64_t durUs,
                      SpanArgs args = {});

    /** Record a zero-duration instant event (errors, cache hits). */
    void instant(const char *name, SpanArgs args = {});

    /** Label the calling thread's lane in the trace (idempotent). */
    void nameCurrentThread(const std::string &name);

    // --- counter registry ------------------------------------------------
    void counterAdd(const std::string &name, int64_t delta);
    void counterSet(const std::string &name, int64_t value);
    void counterMax(const std::string &name, int64_t value);
    int64_t counter(const std::string &name) const;
    std::map<std::string, int64_t> counters() const;

    // --- export ----------------------------------------------------------
    /** Chrome trace-event JSON (chrome://tracing / Perfetto). */
    void writeChromeTrace(std::ostream &os) const;
    /** Flat metrics JSON: counters + per-span-name aggregates. */
    void writeMetrics(std::ostream &os) const;

    /**
     * Write one of the exports to @p path. Returns false (and fills
     * @p error) when the file cannot be written — shared by the
     * --trace/--metrics handling of gpumc, gpumc-corpus, gpumc-fuzz
     * and gpumc-serve.
     */
    bool writeChromeTraceFile(const std::string &path,
                              std::string &error) const;
    bool writeMetricsFile(const std::string &path,
                          std::string &error) const;

  private:
    Tracer();

    struct Event {
        std::string name;
        int tid = 0;
        int64_t ts = 0;  // µs since epoch
        int64_t dur = 0; // µs; < 0 marks an instant event
        SpanArgs args;
    };

    /** Lane id of the calling thread, assigned on first use. */
    int tidOfCurrentThread();

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::map<std::string, int64_t> counters_;
    std::map<int, std::string> threadNames_;
    int nextTid_ = 0;
};

/**
 * RAII span: records [construction, destruction) on the current lane.
 * When tracing is disabled, construction is one relaxed load and the
 * destructor does nothing.
 */
class Span {
  public:
    explicit Span(const char *name)
        : name_(name), active_(Tracer::instance().enabled())
    {
        if (active_)
            startUs_ = Tracer::instance().nowUs();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a key/value pair, emitted with the span on close. */
    void arg(std::string key, std::string value)
    {
        if (active_)
            args_.emplace_back(std::move(key), std::move(value));
    }

    /** Close early (idempotent; the destructor then does nothing). */
    void close()
    {
        if (!active_)
            return;
        active_ = false;
        Tracer &tracer = Tracer::instance();
        tracer.completeSpan(name_, startUs_,
                            tracer.nowUs() - startUs_,
                            std::move(args_));
    }

    ~Span() { close(); }

  private:
    const char *name_;
    bool active_;
    int64_t startUs_ = 0;
    SpanArgs args_;
};

/** Sugar for hot paths: counter update only when tracing is enabled. */
inline void
counterAdd(const std::string &name, int64_t delta)
{
    Tracer &tracer = Tracer::instance();
    if (tracer.enabled())
        tracer.counterAdd(name, delta);
}

} // namespace gpumc::trace

#endif // GPUMC_SUPPORT_TRACE_HPP
