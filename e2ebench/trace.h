#ifndef GROUPSA_E2EBENCH_TRACE_H_
#define GROUPSA_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

// Span recorder for the traced benchmark run. Spans are opened by the
// benchmark itself around its calls into the library's public functions;
// nothing inside the library is instrumented. Spans are kept in memory and
// written out once, at exit. When the tracer is not armed every call is a
// single branch, so the untraced runs that produce the end-to-end metrics
// carry no recording cost.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;   // enclosing span on the same thread, -1 for a root
  int64_t request = -1;  // request ticket the span belongs to, -1 for none
  int64_t start_ns = 0;  // relative to the tracer's creation
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool armed);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool armed() const { return armed_; }

  // Opens a span on the calling thread (its parent is the innermost span
  // still open on that thread) and returns its id, or -1 when not armed.
  int64_t Open(const std::string& name, int64_t request);
  void Close(int64_t id);
  // Records an already-measured interval as a closed span; used for
  // request latencies, whose start and end are observed at different
  // points of the client loop.
  void Record(const std::string& name, int64_t request,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  // Durations in milliseconds of every closed span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  // Per span name: total self time in milliseconds (a span's duration minus
  // the part of it covered by its child spans), and span count.
  std::map<std::string, std::pair<double, int64_t>> SelfTimes() const;
  // One JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t Nanos(std::chrono::steady_clock::time_point t) const;

  const bool armed_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index == id
};

// RAII span; no-op when the tracer is not armed.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t request = -1)
      : tracer_(tracer),
        id_(tracer->armed() ? tracer->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace e2ebench

#endif  // GROUPSA_E2EBENCH_TRACE_H_
