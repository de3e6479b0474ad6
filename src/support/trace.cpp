#include "support/trace.hpp"

#include <algorithm>
#include <fstream>
#include <functional>

#include "support/json.hpp"

namespace gpumc::trace {

namespace {

/** Sequential lane id of the calling thread, assigned lazily. */
thread_local int tlsTid = -1;

} // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

int64_t
Tracer::nowUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
Tracer::tidOfCurrentThread()
{
    // Called with mutex_ held by every user below; the thread-local
    // cache makes the common case a plain read.
    if (tlsTid < 0)
        tlsTid = nextTid_++;
    return tlsTid;
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    counters_.clear();
    threadNames_.clear();
    // Lane ids survive a reset on purpose: tlsTid stays valid for
    // threads that already touched the tracer.
}

void
Tracer::completeSpan(const char *name, int64_t startUs, int64_t durUs,
                     SpanArgs args)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back({name, tidOfCurrentThread(), startUs,
                       std::max<int64_t>(0, durUs), std::move(args)});
}

void
Tracer::instant(const char *name, SpanArgs args)
{
    if (!enabled())
        return;
    int64_t ts = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(
        {name, tidOfCurrentThread(), ts, -1, std::move(args)});
}

void
Tracer::nameCurrentThread(const std::string &name)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    threadNames_[tidOfCurrentThread()] = name;
}

void
Tracer::counterAdd(const std::string &name, int64_t delta)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

void
Tracer::counterSet(const std::string &name, int64_t value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] = value;
}

void
Tracer::counterMax(const std::string &name, int64_t value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t &slot = counters_[name];
    slot = std::max(slot, value);
}

int64_t
Tracer::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, int64_t>
Tracer::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    auto sep = [&] {
        os << (first ? "\n" : ",\n");
        first = false;
    };
    for (const auto &[tid, name] : threadNames_) {
        sep();
        os << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
           << ", \"name\": \"thread_name\", \"args\": {\"name\": "
           << jsonString(name) << "}}";
    }
    for (const Event &event : events_) {
        sep();
        os << "  {\"ph\": \"" << (event.dur < 0 ? 'i' : 'X')
           << "\", \"pid\": 1, \"tid\": " << event.tid
           << ", \"ts\": " << event.ts;
        if (event.dur >= 0)
            os << ", \"dur\": " << event.dur;
        else
            os << ", \"s\": \"t\""; // instant scope: thread
        os << ", \"cat\": \"gpumc\", \"name\": "
           << jsonString(event.name);
        if (!event.args.empty()) {
            os << ", \"args\": {";
            bool firstArg = true;
            for (const auto &[key, value] : event.args) {
                os << (firstArg ? "" : ", ") << jsonString(key) << ": "
                   << jsonString(value);
                firstArg = false;
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n]}\n";
}

void
Tracer::writeMetrics(std::ostream &os) const
{
    struct SpanAggregate {
        int64_t count = 0;
        int64_t totalUs = 0;
    };
    std::map<std::string, SpanAggregate> spans;
    std::map<std::string, int64_t> counters;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counters = counters_;
        for (const Event &event : events_) {
            if (event.dur < 0)
                continue;
            SpanAggregate &agg = spans[event.name];
            agg.count++;
            agg.totalUs += event.dur;
        }
    }

    os << "{\n  \"counters\": {";
    bool firstCounter = true;
    for (const auto &[name, value] : counters) {
        os << (firstCounter ? "\n" : ",\n") << "    "
           << jsonString(name) << ": " << value;
        firstCounter = false;
    }
    os << "\n  },\n  \"spans\": {";
    bool firstSpan = true;
    for (const auto &[name, agg] : spans) {
        os << (firstSpan ? "\n" : ",\n") << "    " << jsonString(name)
           << ": {\"count\": " << agg.count
           << ", \"totalUs\": " << agg.totalUs << "}";
        firstSpan = false;
    }
    os << "\n  }\n}\n";
}

namespace {

bool
writeFile(const std::string &path, std::string &error,
          const std::function<void(std::ostream &)> &emit)
{
    std::ofstream out(path);
    if (!out) {
        error = "cannot write '" + path + "'";
        return false;
    }
    emit(out);
    out.close();
    if (!out) {
        error = "error while writing '" + path + "'";
        return false;
    }
    return true;
}

} // namespace

bool
Tracer::writeChromeTraceFile(const std::string &path,
                             std::string &error) const
{
    return writeFile(path, error,
                     [&](std::ostream &os) { writeChromeTrace(os); });
}

bool
Tracer::writeMetricsFile(const std::string &path,
                         std::string &error) const
{
    return writeFile(path, error,
                     [&](std::ostream &os) { writeMetrics(os); });
}

} // namespace gpumc::trace
