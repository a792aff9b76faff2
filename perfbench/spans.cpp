#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanRecorder::open(const char* name, std::uint32_t request) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.request = request;
  spans_.push_back(span);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  spans_.back().start_ns = now_ns();
  return current_;
}

void SpanRecorder::close(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

double SpanRecorder::duration_ms(std::int32_t index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

std::vector<double> SpanRecorder::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = duration_ms(static_cast<std::int32_t>(i));
  }
  // Children are strictly nested inside their parent on one thread, so
  // the covered time is the sum of the children's durations.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          duration_ms(static_cast<std::int32_t>(i));
    }
  }
  return self;
}

bool SpanRecorder::write_ndjson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"request\":%u}\n",
                 span.name, static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns) / 1e3, span.parent,
                 span.request);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
