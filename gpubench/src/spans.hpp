/**
 * @file
 * The traced run's span recorder. Spans are kept in memory and written
 * out once at the end, so recording costs two clock reads and a vector
 * push. Each span records its name, start, end, parent and verdict id;
 * self time is the span minus its direct children.
 *
 * The recorder times calls into the program's public functions from
 * outside; it never reaches into the program's own tracer.
 */

#ifndef GPUBENCH_SPANS_HPP
#define GPUBENCH_SPANS_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace gpubench {

class Spans {
  public:
    struct Record {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;
        int64_t verdict = -1;
    };

    /** Open a span as a child of the innermost open one. */
    int open(const std::string &name);
    void close(int id);

    /** Verdict id stamped on spans opened from now on (-1 = none). */
    void setVerdict(int64_t verdict) { verdict_ = verdict; }

    /** RAII span. */
    class Scope {
      public:
        Scope(Spans &spans, const std::string &name)
            : spans_(spans), id_(spans.open(name))
        {
        }
        ~Scope() { spans_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        int id_;
    };

    /** Summed self time per span name, in microseconds. */
    std::map<std::string, double> selfUsByName() const;

    /** JSON array of every span (times relative to the first span). */
    void writeJson(std::ostream &out) const;

  private:
    std::vector<Record> records_;
    std::vector<int> stack_;
    int64_t verdict_ = -1;
};

} // namespace gpubench

#endif // GPUBENCH_SPANS_HPP
