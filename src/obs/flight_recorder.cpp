#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/request_context.h"
#include "obs/trace.h"

namespace jst::obs {
namespace {

void copy_token(char (&dst)[17], std::string_view src) {
  const std::size_t n = src.size() < 16 ? src.size() : 16;
  // An empty view may carry a null data(), which memcpy must not see.
  if (n > 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

void append_event_json(std::string& out, const FlightEvent& event) {
  out += "{\"ts_us\":" + format_number(event.ts_us);
  out += ",\"tid\":" + std::to_string(event.tid);
  out += ",\"kind\":\"";
  out += flight_event_kind_name(event.kind);
  out += '"';
  if (event.rid[0] != '\0') {
    out += ",\"rid\":\"";
    out += event.rid;
    out += '"';
  }
  if (event.key[0] != '\0') {
    out += ",\"key\":\"";
    out += event.key;
    out += '"';
  }
  if (event.label != nullptr) {
    out += ",\"label\":\"";
    out += event.label;
    out += '"';
  }
  out += ",\"a\":" + format_number(event.a);
  out += ",\"b\":" + format_number(event.b);
  out += ",\"c\":" + format_number(event.c);
  out += "}\n";
}

}  // namespace

const char* flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAdmit: return "admit";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kPickup: return "pickup";
    case FlightEventKind::kRespond: return "respond";
    case FlightEventKind::kBudgetTrip: return "budget_trip";
    case FlightEventKind::kStage: return "stage";
    case FlightEventKind::kSlowExemplar: return "slow_exemplar";
  }
  return "unknown";
}

namespace {
std::atomic<std::uint64_t> g_next_recorder_id{1};
}  // namespace

FlightRecorder::FlightRecorder()
    : instance_id_(
          g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

FlightRecorder::Ring& FlightRecorder::local_ring() {
  // One ring per (thread, recorder) pair: the cache is keyed by the
  // recorder's unique id, not a bare thread_local pointer, so a second
  // recorder instance never records into a ring registered elsewhere.
  struct Slot {
    std::uint64_t recorder_id;
    Ring* ring;
  };
  thread_local std::vector<Slot> slots;
  for (const Slot& slot : slots) {
    if (slot.recorder_id == instance_id_) return *slot.ring;
  }
  auto* fresh = new Ring();  // never freed; outlives the thread
  fresh->tid = trace_thread_id();
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    rings_.push_back(fresh);
  }
  slots.push_back(Slot{instance_id_, fresh});
  return *fresh;
}

void FlightRecorder::record(FlightEventKind kind, std::string_view rid,
                            std::string_view key, const char* label,
                            double a, double b, double c) {
  if (!enabled()) return;
  Ring& ring = local_ring();
  FlightEvent event;
  event.ts_us = trace_now_us();
  event.tid = ring.tid;
  event.kind = kind;
  copy_token(event.rid, rid.empty() ? current_request_id() : rid);
  copy_token(event.key, key);
  event.label = label;
  event.a = a;
  event.b = b;
  event.c = c;
  std::lock_guard<std::mutex> lock(ring.mutex);
  ring.events[ring.head % kRingCapacity] = event;
  ++ring.head;
}

std::vector<FlightEvent> FlightRecorder::collect_sorted() const {
  std::vector<FlightEvent> events;
  {
    std::lock_guard<std::mutex> rings_lock(rings_mutex_);
    for (Ring* ring : rings_) {
      std::lock_guard<std::mutex> lock(ring->mutex);
      const std::uint64_t live =
          ring->head < kRingCapacity ? ring->head : kRingCapacity;
      const std::uint64_t start = ring->head - live;
      for (std::uint64_t i = start; i < ring->head; ++i) {
        events.push_back(ring->events[i % kRingCapacity]);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& lhs, const FlightEvent& rhs) {
                     return lhs.ts_us < rhs.ts_us;
                   });
  return events;
}

std::string FlightRecorder::dump_ndjson() const {
  const std::vector<FlightEvent> events = collect_sorted();
  std::string out;
  out.reserve(events.size() * 96);
  for (const FlightEvent& event : events) append_event_json(out, event);
  return out;
}

std::string FlightRecorder::dump_json_array() const {
  const std::vector<FlightEvent> events = collect_sorted();
  std::string out = "[";
  out.reserve(events.size() * 96 + 2);
  bool first = true;
  for (const FlightEvent& event : events) {
    if (!first) out += ',';
    first = false;
    append_event_json(out, event);
    out.pop_back();  // the newline append_event_json terminates with
  }
  out += ']';
  return out;
}

bool FlightRecorder::dump_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << dump_ndjson();
  return static_cast<bool>(out);
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> rings_lock(rings_mutex_);
  for (Ring* ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    ring->head = 0;
  }
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never freed
  return *recorder;
}

void flight_record(FlightEventKind kind, std::string_view key,
                   const char* label, double a, double b, double c) {
  FlightRecorder::global().record(kind, current_request_id(), key, label, a,
                                  b, c);
}

SlowExemplars::SlowExemplars(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool SlowExemplars::offer(std::string_view source_hash, std::string_view rid,
                          double service_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.source_hash == source_hash) {
      if (service_ms > entry.service_ms) {
        entry.service_ms = service_ms;
        entry.rid = std::string(rid);
        return true;
      }
      return false;
    }
  }
  if (entries_.size() < capacity_) {
    entries_.push_back(Entry{std::string(source_hash), std::string(rid),
                             service_ms});
    return true;
  }
  auto slowest_floor = std::min_element(
      entries_.begin(), entries_.end(),
      [](const Entry& lhs, const Entry& rhs) {
        return lhs.service_ms < rhs.service_ms;
      });
  if (service_ms > slowest_floor->service_ms) {
    *slowest_floor = Entry{std::string(source_hash), std::string(rid),
                           service_ms};
    return true;
  }
  return false;
}

std::vector<SlowExemplars::Entry> SlowExemplars::snapshot() const {
  std::vector<Entry> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = entries_;
  }
  std::sort(out.begin(), out.end(), [](const Entry& lhs, const Entry& rhs) {
    return lhs.service_ms > rhs.service_ms;
  });
  return out;
}

std::string SlowExemplars::to_json() const {
  std::string out = "[";
  bool first = true;
  for (const Entry& entry : snapshot()) {
    if (!first) out += ',';
    first = false;
    out += "{\"source_hash\":\"" + entry.source_hash + "\"";
    out += ",\"rid\":\"" + entry.rid + "\"";
    out += ",\"service_ms\":" + format_number(entry.service_ms) + "}";
  }
  out += ']';
  return out;
}

}  // namespace jst::obs
