// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer (name, start, end, parent,
// request id), kept in memory, and written out as NDJSON at exit. One
// recorder belongs to one thread: the traced passes run on one lane.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder, -1 for a root
  std::uint32_t request = 0;
};

class SpanRecorder {
 public:
  std::int32_t open(const char* name, std::uint32_t request);
  void close(std::int32_t index);

  // Opens on construction, closes on destruction (exceptions included).
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint32_t request)
        : recorder_(recorder), index_(recorder.open(name, request)) {}
    ~Scope() { recorder_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int32_t index() const { return index_; }

   private:
    SpanRecorder& recorder_;
    std::int32_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  double duration_ms(std::int32_t index) const;
  // Per span: its duration minus the time its direct children cover.
  std::vector<double> self_ms() const;

  // One JSON object per line: name, start_us, end_us, parent, request.
  bool write_ndjson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

std::int64_t now_ns();

}  // namespace perfbench
