// In-memory spans for the traced run. Every span carries a name, start
// and end (steady-clock nanoseconds since the run began), the id of the
// span that caused it, and the request id it belongs to. Each thread
// appends to its own log; the logs are merged and written out once, at
// the end of the run.
//
// Two kinds of parenthood occur. A child recorded inside its parent's
// interval (the benchmark's own mutate closure inside Commit, the stage
// calls inside a replayed commit, parse and run inside a query) is real
// nesting. A replayed level (the in-process Execute of a line that is
// also sent over TCP, the library call that Execute makes) is recorded
// as the child of the level above it although it ran separately. Either way
// a span's self time is its duration minus its children's durations, so
// a replayed level's parent keeps exactly the cost of its own layer.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: a root span
  uint64_t request = 0;  // spans of one request share this
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  // A per-thread log. Ids are unique across logs of one tracer.
  class Log {
   public:
    uint64_t Add(const char* name, Clock::time_point start,
                 Clock::time_point end, uint64_t parent, uint64_t request);
    const std::vector<Span>& spans() const { return spans_; }

   private:
    friend class Tracer;
    Log(const Tracer* tracer, uint64_t prefix)
        : tracer_(tracer), prefix_(prefix) {}
    const Tracer* tracer_;
    uint64_t prefix_;
    uint64_t next_ = 1;
    std::vector<Span> spans_;
  };

  // Thread-safe; the returned log stays valid for the tracer's life and
  // must be used by one thread at a time.
  Log* NewLog();

  // All spans, merged, after every writer has finished.
  std::vector<Span> Merged() const;

  // Self time per span id (duration minus the children's durations).
  static std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans);

  // Writes one JSON object per span. False on an I/O error.
  static bool WriteJsonLines(const std::vector<Span>& spans,
                             const std::string& path);

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Log>> logs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
