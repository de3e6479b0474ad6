#include "spans.hpp"

#include <chrono>
#include <stdexcept>

#include "support/json.hpp"

namespace gpubench {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
Spans::open(const std::string &name)
{
    Record record;
    record.name = name;
    record.parent = stack_.empty() ? -1 : stack_.back();
    record.verdict = verdict_;
    record.startNs = nowNs();
    records_.push_back(std::move(record));
    int id = static_cast<int>(records_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Spans::close(int id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order");
    records_[id].endNs = nowNs();
    stack_.pop_back();
}

std::map<std::string, double>
Spans::selfUsByName() const
{
    std::vector<int64_t> childNs(records_.size(), 0);
    for (const Record &r : records_) {
        if (r.parent >= 0)
            childNs[r.parent] += r.endNs - r.startNs;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        out[r.name] += static_cast<double>(r.endNs - r.startNs - childNs[i]) /
                       1000.0;
    }
    return out;
}

void
Spans::writeJson(std::ostream &out) const
{
    int64_t origin = records_.empty() ? 0 : records_.front().startNs;
    out << "[";
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        out << (i ? ",\n " : "\n ") << "{\"id\": " << i
            << ", \"name\": " << gpumc::jsonString(r.name)
            << ", \"start_us\": "
            << static_cast<double>(r.startNs - origin) / 1000.0
            << ", \"end_us\": "
            << static_cast<double>(r.endNs - origin) / 1000.0
            << ", \"parent\": " << r.parent
            << ", \"verdict\": " << r.verdict << "}";
    }
    out << "\n]";
}

} // namespace gpubench
