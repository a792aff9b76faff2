// Scoped trace spans in Chrome trace_event format.
//
// A TraceSink writes one complete event object per line (JSONL) — each
// line is `{"name":...,"cat":"jst","ph":"X","ts":…,"dur":…,"pid":1,
// "tid":…}` with timestamps in microseconds since process start. The
// file loads directly into Perfetto / chrome://tracing (both accept
// newline-separated complete events) and is trivially greppable.
//
// Tracing is gated by a *runtime* sink: `JST_SPAN("parse")` opens an
// RAII span that checks one relaxed atomic pointer at construction and,
// when no sink is attached, does nothing else — no clock reads, no
// allocation. Attach a sink around the region of interest:
//
//   std::ofstream out("trace.json");
//   jst::obs::TraceSink sink(out);
//   jst::obs::set_trace_sink(&sink);
//   ... run the batch ...
//   jst::obs::set_trace_sink(nullptr);
//
// Detach is a synchronization point: set_trace_sink waits for every span
// that captured the previous sink to finish writing before returning, so
// destroying the sink right after detaching is always safe — even when a
// pool worker's span is still closing after a parallel_for barrier
// released the caller. Corollary: never call set_trace_sink while the
// calling thread itself holds an open span. Spans nest naturally:
// Perfetto stacks same-thread events by interval containment.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>

namespace jst::obs {

class TraceSink {
 public:
  // Writes events to `out`; the stream must outlive the sink. Writes are
  // serialized by an internal mutex (events are formatted off-lock).
  explicit TraceSink(std::ostream& out) : out_(&out) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // Emits one `ph:"X"` (complete) event line. A non-empty `rid` lands as
  // `"args":{"rid":"..."}` so request-scoped spans join against the
  // flight recorder; empty/null keeps the pre-request-context shape.
  void write_complete_event(const char* name, double ts_us, double dur_us,
                            std::uint32_t tid, const char* rid = nullptr);

  std::uint64_t event_count() const { return events_; }

 private:
  std::mutex mutex_;
  std::ostream* out_;
  std::uint64_t events_ = 0;
};

// Attaches/detaches the process-wide sink; returns the previous one.
// Passing nullptr disables tracing (spans cost one branch again).
TraceSink* set_trace_sink(TraceSink* sink);
TraceSink* trace_sink();

// Small dense id per OS thread (0 = first thread to trace), stable for
// the thread's lifetime; used as the trace `tid`.
std::uint32_t trace_thread_id();

// Microseconds since the process-wide trace epoch (first use).
double trace_now_us();

// Span-side half of the detach handshake: acquire registers the span as
// an in-flight writer (returns nullptr without registering when tracing
// is off); release must follow the span's final write.
TraceSink* span_acquire_sink();
void span_release_sink();

// Copies the calling thread's current request id (request_context.h) into
// `out` (17-byte buffer, NUL-terminated; empty string when no request is
// in scope). Out-of-line so this header stays standalone.
void span_capture_request_id(char* out);

// RAII span: records start at construction, emits a complete event at
// destruction. When no sink is attached at construction it is inert.
// The request id in scope at *construction* is what the event carries —
// a span belongs to the request that opened it.
class Span {
 public:
  explicit Span(const char* name)
      : name_(name), sink_(span_acquire_sink()) {
    if (sink_ != nullptr) {
      start_us_ = trace_now_us();
      span_capture_request_id(rid_);
    }
  }
  ~Span() {
    if (sink_ != nullptr) {
      sink_->write_complete_event(name_, start_us_,
                                  trace_now_us() - start_us_,
                                  trace_thread_id(), rid_);
      span_release_sink();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  TraceSink* sink_;
  double start_us_ = 0.0;
  char rid_[17] = {0};
};

}  // namespace jst::obs

#define JST_OBS_CONCAT_INNER(a, b) a##b
#define JST_OBS_CONCAT(a, b) JST_OBS_CONCAT_INNER(a, b)
#define JST_SPAN(name) \
  ::jst::obs::Span JST_OBS_CONCAT(jst_obs_span_, __LINE__)(name)
