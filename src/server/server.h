// jstraced-server: a long-lived analysis daemon over a Unix domain socket.
//
// The step from "one process, one batch" to "serving" (DESIGN.md §13):
// clients connect to a SOCK_STREAM Unix socket and speak newline-delimited
// JSON in the versioned wire schema (analysis/wire.h) — one AnalyzeRequest
// per line in, one AnalyzeResponse per line out, emitted in completion
// order and correlated by the echoed request id. Each admitted request is
// queued into a support::ThreadPool and served by AnalyzerService under
// its own ResourceLimits deadline (support/budget.h).
//
// Admission control: a request is shed with an explicit kOverloaded
// response — never queued to time out silently — when either
//   * the hard cap trips: in-flight requests >= max_queue_depth, or
//   * the wait estimate exceeds the request's deadline:
//       queue_depth × observed p95 service time / workers > deadline_ms
// (the p95 is the *sliding-window* service-time p95 once the window has
// warmed — admission_p95_ms() — so the estimate tracks the traffic being
// served right now rather than everything since boot). A request whose
// deadline has already elapsed while queued is shed at pickup for the
// same reason. The decision logic is a pure function
// (Server::should_shed) so shedding is deterministic and unit-testable.
//
// Observability (DESIGN.md §14): every request carries a 16-hex
// request_id (client-supplied on wire v2, else minted at admission) that
// flows through obs::RequestScope into every trace span and
// flight-recorder event the request produces; admit/shed verdicts land
// in the flight recorder with the exact inputs they consumed.
//
// Also served on the same socket:
//   * {"op":"metrics"} → one JSON line with the obs::MetricsRegistry;
//   * {"op":"stats"} → the recent-window view (qps, shed rate, service
//     percentiles, slowest-N exemplars) — see Server::stats_json;
//   * {"op":"flight"} → the flight-recorder contents as a JSON array;
//   * a raw "GET /metrics" line → Prometheus text exposition over a
//     minimal HTTP/1.0 response, then the connection closes (so
//     `curl --unix-socket` scrape configs work unchanged);
//   * {"op":"ping"} → {"status":"ok"} liveness probe.
//
// Shutdown is a graceful drain (SIGTERM in the daemon binary maps to
// Server::shutdown): stop accepting connections, answer every admitted
// request, shed still-arriving ones with kDraining, then close all
// connections and remove the socket file.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/service.h"
#include "obs/flight_recorder.h"
#include "obs/window.h"
#include "support/budget.h"
#include "support/clock.h"
#include "support/lru_table.h"
#include "support/thread_pool.h"

namespace jst::server {

struct ServerConfig {
  // Filesystem path the listening socket binds to; a stale file from a
  // previous run is removed. Must be non-empty.
  std::string socket_path;
  // Analysis worker threads (0 = JST_THREADS / hardware default via
  // support::resolve_threads). Connection readers are separate threads;
  // `workers` bounds concurrent analyses.
  std::size_t workers = 0;
  // Hard admission cap on in-flight (queued + running) requests; 0 means
  // "no cap" and only the deadline-based estimate sheds.
  std::size_t max_queue_depth = 256;
  // Cap on open client connections, and so on reader threads. A
  // connection accepted over it gets one kOverloaded line and is closed;
  // 0 means no cap.
  std::size_t max_connections = 256;
  // Default per-request limits when a request carries no override.
  ResourceLimits default_limits;
  // Cache discipline applied to requests that carry no explicit
  // cache_mode (wire v3, DESIGN.md §15): a request arriving with
  // kDefault is rewritten to this before serving, so --cache-mode on the
  // daemon command line governs the whole process. Requests naming
  // bypass/refresh explicitly always win. Meaningless unless the
  // AnalyzerService has a ResultCache attached.
  CacheMode default_cache_mode = CacheMode::kDefault;
  // Artificial floor on per-request service time, in milliseconds. Load
  // and drain tests use it to make queue pressure reproducible on corpora
  // whose real scripts analyze in microseconds; 0 disables.
  double min_service_ms = 0.0;
  // Byte budget of the content-hash registry backing source_hash
  // references (its entry count is capped at 4096; both caps evict
  // least-recently-used entries). 0 disables resolution entirely.
  std::size_t hash_registry_bytes = 64 * 1024 * 1024;
  // Sliding window (seconds) behind the recent-traffic view: the
  // admission p95, {"op":"stats"} rates, and the shed-burst detector all
  // read this window rather than since-boot aggregates.
  std::size_t window_seconds = 60;
  // Overload forensics: when this many requests were shed within the
  // window, dump the flight recorder to `flight_dump_path` (at most once
  // per window). 0 disables the trigger.
  std::size_t shed_burst_dump_threshold = 32;
  // Destination for automatic flight-recorder dumps (shed bursts, and
  // SIGUSR1 in the daemon binary). Empty disables automatic dumps;
  // {"op":"flight"} works regardless.
  std::string flight_dump_path;
};

// Counters for tests and the drain log line. The daemon bumps them with
// relaxed atomic adds; a snapshot loads each one on its own, so two fields
// read while requests are in flight need not describe the same instant.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;  // over max_connections
  std::uint64_t connections_open = 0;     // at the time of the snapshot
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t requests_shed = 0;      // kOverloaded + kDraining
  std::uint64_t requests_invalid = 0;   // kInvalidRequest + kNotFound
};

class Server {
 public:
  // Binds and listens immediately (throws std::runtime_error on socket
  // errors); serving starts with start().
  Server(const analysis::AnalyzerService& service, ServerConfig config);
  ~Server();  // implies shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Spawns the accept loop. Idempotent.
  void start();

  // Graceful drain: stop accepting, answer every admitted request, shed
  // the rest with kDraining, close every connection, unlink the socket.
  // Safe to call from a signal-driven shutdown path (not the handler
  // itself) and idempotent.
  void shutdown();

  const ServerConfig& config() const { return config_; }
  const std::string& socket_path() const { return config_.socket_path; }
  std::size_t workers() const { return workers_; }
  ServerStats stats() const;

  // The {"op":"stats"} payload: one JSON object with the recent-window
  // view (qps / shed rate / service p50/p95/p99 + warm flag), the
  // cumulative counters, current queue depth, and the slowest-N
  // exemplars. Also reachable in-process for tests and bench capture.
  std::string stats_json() const;

  // The p95 service-time estimate admission control consults: the
  // sliding-window p95 once the window holds at least 16 samples, else
  // the cumulative histogram's p95 (the stale-admission fix — a slow
  // burst ages out of the window instead of poisoning the estimate for
  // the life of the process).
  double admission_p95_ms() const;

  // The admission-control predicate (DESIGN.md §13), exposed as a pure
  // function: shed when the hard cap trips or when the estimated queue
  // wait (queue_depth × p95 service ms / workers) exceeds the request's
  // deadline. With no deadline only the hard cap sheds — an ungoverned
  // request is allowed to wait arbitrarily long.
  static bool should_shed(std::size_t queue_depth, std::size_t workers,
                          double p95_service_ms, double deadline_ms,
                          std::size_t max_queue_depth);

 private:
  struct Connection;

  void accept_loop();
  // Answers a connection over max_connections with one kOverloaded line
  // and closes it.
  void refuse_connection(int fd, std::size_t open);
  void serve_connection(Connection& connection);
  void handle_line(Connection& connection, const std::string& line);
  void handle_request(Connection& connection, analysis::AnalyzeRequest request);
  // Runs one admitted request on a pool lane. `request` carries its
  // effective limits; the deadline is reduced by the queue wait in place.
  void process_request(Connection& connection,
                       analysis::AnalyzeRequest& request,
                       std::uint64_t source_digest,
                       support::Clock::time_point admitted_at,
                       std::size_t depth_at_admission);
  // The one invalid-request path: answers `response` with `status` and
  // `error` and counts it in ServerStats::requests_invalid (no jst_server_*
  // counter covers refusals). `response` carries whatever ids the request
  // line yielded.
  void reject(Connection& connection, std::string error,
              analysis::AnalyzeResponse response = {},
              analysis::ResponseStatus status =
                  analysis::ResponseStatus::kInvalidRequest);
  // The one shed-counting path: ServerStats::requests_shed,
  // jst_server_shed_total, the shed window and a kShed flight event
  // labelled `reason` with the verdict's inputs. The caller answers the
  // request and decides whether a burst dump may follow.
  void count_shed(const char* reason, double a = 0.0, double b = 0.0,
                  double c = 0.0);
  void respond(Connection& connection, const analysis::AnalyzeResponse&);
  // Writes one already-framed line under the connection's write_mutex;
  // a failed write (peer gone, or stalled past the 10 s send timeout)
  // drops the connection via ::shutdown so the reader tears it down.
  void write_line(Connection& connection, const std::string& data);
  void serve_metrics_http(Connection& connection);
  // Shed-burst trigger: dumps the flight recorder to
  // config_.flight_dump_path when window-shed crosses the threshold,
  // rate-limited to once per window.
  void maybe_dump_flight_on_shed_burst();
  // Registers an inline source under its FNV-1a 64 digest (LRU-touching
  // it if already present), silently skipping sources above
  // `max_entry_bytes` (0 = no per-entry cap) — registration is
  // best-effort, never an error.
  void register_source(std::uint64_t digest, const std::string& source,
                       std::size_t max_entry_bytes);
  // Resolves a digest, refreshing the entry's LRU position.
  bool resolve_source(std::uint64_t digest, std::string& source);

  const analysis::AnalyzerService* service_;
  ServerConfig config_;
  std::size_t workers_ = 1;
  // Longest request line a connection may send: 6 × the default limits'
  // max_source_bytes + 64 KiB, or kMaxLineBytesUnlimited without a source
  // limit (DESIGN.md §13).
  std::size_t max_line_bytes_ = 0;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  // Analysis pool: workers_ real worker threads (the pool counts the
  // caller as a lane, and reader threads never analyze inline).
  std::unique_ptr<support::ThreadPool> pool_;

  // In-flight (admitted, not yet answered) request count; shutdown waits
  // for it to reach zero.
  mutable std::mutex inflight_mutex_;
  std::condition_variable inflight_zero_;
  std::size_t inflight_ = 0;

  mutable std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  // Connections whose reader has not finished; compared with
  // config_.max_connections at accept.
  std::atomic<std::size_t> open_connections_{0};

  // Content-hash registry: digest → source in an LRU table, bounded by
  // 4096 entries and config_.hash_registry_bytes (payload bytes;
  // registry_bytes_ tracks the current total).
  using Registry =
      support::LruTable<std::uint64_t, std::string, std::hash<std::uint64_t>>;
  mutable std::mutex registry_mutex_;
  Registry registry_;
  std::size_t registry_bytes_ = 0;

  // ServerStats counters (connections_open is open_connections_).
  struct Counters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_refused{0};
    std::atomic<std::uint64_t> requests_admitted{0};
    std::atomic<std::uint64_t> requests_served{0};
    std::atomic<std::uint64_t> requests_shed{0};
    std::atomic<std::uint64_t> requests_invalid{0};
  };
  Counters counters_;

  // Recent-traffic view (ServerConfig::window_seconds): per-server so
  // tests running several servers in one process don't blend windows the
  // way the process-wide cumulative registry does.
  obs::WindowedHistogram service_window_;
  obs::WindowedCounter requests_window_;
  obs::WindowedCounter shed_window_;
  obs::SlowExemplars slow_exemplars_;
  static constexpr std::uint64_t kNeverDumped = ~std::uint64_t{0};
  std::atomic<std::uint64_t> last_flight_dump_s_{kNeverDumped};
};

}  // namespace jst::server
