#include "trace.h"

#include <cstdio>
#include <utility>

namespace e2ebench {

namespace {

// Spans still open on this thread, innermost last.
thread_local std::vector<int64_t> open_spans;

}  // namespace

Tracer::Tracer(bool armed)
    : armed_(armed), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Nanos(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int64_t Tracer::Open(const std::string& name, int64_t request) {
  if (!armed_) return -1;
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  span.start_ns = Nanos(std::chrono::steady_clock::now());
  span.end_ns = -1;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::Close(int64_t id) {
  const int64_t now = Nanos(std::chrono::steady_clock::now());
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::Record(const std::string& name, int64_t request,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  if (!armed_) return;
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  span.start_ns = Nanos(start);
  span.end_ns = Nanos(end);
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

std::map<std::string, std::pair<double, int64_t>> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children nest strictly inside their parent on one thread, so the part
  // of a parent covered by children is the sum of the child durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0)
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::pair<double, int64_t>> out;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) continue;
    auto& entry = out[s.name];
    entry.first += static_cast<double>(s.end_ns - s.start_ns -
                                       child_ns[static_cast<size_t>(s.id)]) *
                   1e-6;
    entry.second += 1;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %lld, \"name\": \"%s\", \"parent\": %lld, "
                 "\"request\": %lld, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<long long>(s.id), s.name.c_str(),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
