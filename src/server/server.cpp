#include "server/server.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "analysis/result_cache.h"
#include "analysis/wire.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "server/socket_io.h"
#include "support/clock.h"
#include "support/json_writer.h"
#include "support/strings.h"

namespace jst::server {
namespace {

// Content-hash registry backing source_hash references: bounded both by
// entry count (this) and by ServerConfig::hash_registry_bytes, evicting
// least-recently-used entries (a registration or a successful resolution
// is a use) instead of refusing inserts once full. A source larger than
// the effective request limits' max_source_bytes is never registered —
// the registry can't be used to pin sources the pipeline would refuse to
// analyze.
constexpr std::size_t kHashRegistryEntries = 4096;
// Upper bound on any single blocking send to a client, in milliseconds
// (SO_SNDTIMEO on every accepted fd). A client that stops reading its
// responses is dropped when a write stalls past this, instead of pinning
// the writer (a pool worker lane, or the reader answering an op) on a
// full socket buffer forever.
constexpr std::size_t kWriteTimeoutMs = 10000;
// Warm-up rule: the windowed p95 steers admission only once the window
// holds at least this many observations; colder than that, admission
// falls back to the cumulative jst_server_service_ms p95 (which early on
// *is* recent traffic). Guards the estimate against one or two unlucky
// samples right after boot or after an idle gap.
constexpr std::size_t kWindowWarmMinCount = 16;
// Slowest-N exemplar table size (distinct source_hash entries kept).
constexpr std::size_t kSlowExemplars = 8;

// Request-line cap when the default limits set no max_source_bytes.
constexpr std::size_t kMaxLineBytesUnlimited = std::size_t{64} << 20;

// The request-line cap (DESIGN.md §13): six bytes per source byte, the
// longest JSON escape (\u00XX), plus 64 KiB for the request envelope.
std::size_t max_line_bytes(std::size_t max_source_bytes) {
  constexpr std::size_t kEnvelopeBytes = 64 * 1024;
  if (max_source_bytes == 0) return kMaxLineBytesUnlimited;
  if (max_source_bytes > (SIZE_MAX - kEnvelopeBytes) / 6) return SIZE_MAX;
  return 6 * max_source_bytes + kEnvelopeBytes;
}

// Daemon telemetry (DESIGN.md §13). One shared instrument family: the
// registry is process-wide, and a process runs one serving daemon (tests
// that start several servers share the family, which only blends the p95
// estimate they already share). The *windowed* view is per-Server state
// (see server.h) for exactly that reason.
struct ServerMetrics {
  obs::Counter& requests =
      obs::MetricsRegistry::global().counter("jst_server_requests_total");
  obs::Counter& shed =
      obs::MetricsRegistry::global().counter("jst_server_shed_total");
  obs::Counter& connections =
      obs::MetricsRegistry::global().counter("jst_server_connections_total");
  obs::Counter& refused = obs::MetricsRegistry::global().counter(
      "jst_server_connections_refused_total");
  obs::Gauge& open_connections =
      obs::MetricsRegistry::global().gauge("jst_server_open_connections");
  obs::Gauge& queue_depth =
      obs::MetricsRegistry::global().gauge("jst_server_queue_depth");
  obs::Histogram& queue_ms =
      obs::MetricsRegistry::global().histogram("jst_server_queue_ms");
  obs::Histogram& service_ms =
      obs::MetricsRegistry::global().histogram("jst_server_service_ms");

  ServerMetrics() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.set_help("jst_server_requests_total",
                      "Requests answered by the daemon (any status)");
    registry.set_help("jst_server_shed_total",
                      "Requests shed by admission control or drain");
    registry.set_help("jst_server_connections_total",
                      "Client connections accepted");
    registry.set_help("jst_server_connections_refused_total",
                      "Client connections closed over max_connections");
    registry.set_help("jst_server_open_connections",
                      "Client connections with a live reader");
    registry.set_help("jst_server_queue_depth",
                      "In-flight (queued + running) requests");
    registry.set_help("jst_server_queue_ms",
                      "Admission-to-pickup wait per request");
    registry.set_help("jst_server_service_ms",
                      "Pickup-to-response service time per request");
  }
};

ServerMetrics& server_metrics() {
  static ServerMetrics* metrics = new ServerMetrics();  // outlives statics
  return *metrics;
}

// Bounds every blocking send on `fd` to kWriteTimeoutMs, so a client that
// stops reading surfaces in write_all as EAGAIN within the timeout instead
// of blocking the writer — and its write_mutex — forever.
void set_send_timeout(int fd) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(kWriteTimeoutMs / 1000);
  tv.tv_usec = static_cast<suseconds_t>((kWriteTimeoutMs % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// One accepted client connection. The reader thread owns the read side;
// responses are written by pool workers under `write_mutex`. The fd is
// closed only by the reader thread, after every admitted request from
// this connection has been answered (`pending` reaching 0), so a pool
// worker can never write into a recycled descriptor. `done` is the
// reader's last write: the connection is then idle for good, and the
// accept loop joins and frees it.
struct Server::Connection {
  int fd = -1;
  std::thread reader;
  std::atomic<bool> done{false};
  std::mutex write_mutex;
  std::mutex pending_mutex;
  std::condition_variable pending_zero;
  std::size_t pending = 0;
  bool stop_reading = false;  // set after a one-shot HTTP exchange
};

bool Server::should_shed(std::size_t queue_depth, std::size_t workers,
                         double p95_service_ms, double deadline_ms,
                         std::size_t max_queue_depth) {
  if (max_queue_depth > 0 && queue_depth >= max_queue_depth) return true;
  if (deadline_ms <= 0.0 || p95_service_ms <= 0.0 || queue_depth == 0) {
    return false;
  }
  const double lanes = static_cast<double>(workers == 0 ? 1 : workers);
  const double estimated_wait_ms =
      static_cast<double>(queue_depth) * p95_service_ms / lanes;
  return estimated_wait_ms > deadline_ms;
}

Server::Server(const analysis::AnalyzerService& service, ServerConfig config)
    : service_(&service),
      config_(std::move(config)),
      service_window_(config_.window_seconds),
      requests_window_(config_.window_seconds),
      shed_window_(config_.window_seconds),
      slow_exemplars_(kSlowExemplars) {
  if (config_.socket_path.empty()) {
    throw std::runtime_error("jstraced-server: socket_path is empty");
  }
  workers_ = support::resolve_threads(config_.workers);
  max_line_bytes_ = max_line_bytes(config_.default_limits.max_source_bytes);

  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("jstraced-server: socket path too long: " +
                             config_.socket_path);
  }
  std::memcpy(address.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("jstraced-server: socket(): ") +
                             std::strerror(errno));
  }
  ::unlink(config_.socket_path.c_str());  // stale file from a crashed run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("jstraced-server: cannot listen on " +
                             config_.socket_path + ": " + reason);
  }
}

Server::~Server() { shutdown(); }

void Server::start() {
  if (started_.exchange(true)) return;
  // `workers_` real worker threads: the pool counts its caller as a lane,
  // and the reader threads that submit never analyze inline.
  pool_ = std::make_unique<support::ThreadPool>(workers_ + 1);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket closed (shutdown) or hard error
    }
    set_send_timeout(fd);
    const std::size_t open = open_connections_.load();
    if (config_.max_connections > 0 && open >= config_.max_connections) {
      refuse_connection(fd, open);
      continue;
    }
    server_metrics().connections.add(1);
    server_metrics().open_connections.add(1);
    ++open_connections_;
    bump(counters_.connections_accepted);
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      // Reap connections whose reader has finished (its thread is exiting),
      // so a long-lived daemon holds threads and stacks only for open ones.
      std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
        if (!c->done) return false;
        c->reader.join();
        return true;
      });
      connections_.push_back(std::move(connection));
    }
    raw->reader = std::thread([this, raw] { serve_connection(*raw); });
  }
}

void Server::refuse_connection(int fd, std::size_t open) {
  analysis::AnalyzeResponse response;
  response.status = analysis::ResponseStatus::kOverloaded;
  response.error = "overloaded: " + std::to_string(open) +
                   " connections open, at most " +
                   std::to_string(config_.max_connections) +
                   "; closing the connection";
  // Counted before the peer can see the close.
  server_metrics().refused.add(1);
  bump(counters_.connections_refused);
  write_all(fd, analysis::wire::analyze_response_json(response) + "\n");
  ::close(fd);
}

void Server::serve_connection(Connection& connection) {
  std::string buffer;
  // Bytes of `buffer` already searched for a newline: a line arriving over
  // many recv()s is scanned once, not once per chunk.
  std::size_t scanned = 0;
  char chunk[64 * 1024];
  const auto reject_oversized_line = [&] {
    reject(connection, "request line exceeds " +
                           std::to_string(max_line_bytes_) +
                           " bytes; closing the connection");
  };
  bool open = true;
  while (open && !connection.stop_reading) {
    const ssize_t n = ::recv(connection.fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error (including shutdown())
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t newline = buffer.find('\n', std::max(start, scanned));
      if (newline == std::string::npos) break;
      if (newline - start > max_line_bytes_) {
        reject_oversized_line();
        open = false;
        break;
      }
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) handle_line(connection, line);
      if (connection.stop_reading) {
        open = false;
        break;
      }
    }
    if (!open) break;
    buffer.erase(0, start);
    scanned = buffer.size();
    // An unterminated line already past the cap can only be refused:
    // stop buffering it instead of growing with whatever the peer sends.
    if (buffer.size() > max_line_bytes_) {
      reject_oversized_line();
      break;
    }
  }
  // Every admitted request must be answered before the fd can be closed;
  // see the Connection invariant above.
  {
    std::unique_lock<std::mutex> lock(connection.pending_mutex);
    connection.pending_zero.wait(lock,
                                 [&] { return connection.pending == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(connection.write_mutex);
    ::close(connection.fd);
    connection.fd = -1;
  }
  server_metrics().open_connections.sub(1);
  --open_connections_;
  connection.done = true;
}

void Server::reject(Connection& connection, std::string error,
                    analysis::AnalyzeResponse response,
                    analysis::ResponseStatus status) {
  response.status = status;
  response.error = std::move(error);
  bump(counters_.requests_invalid);
  respond(connection, response);
}

void Server::count_shed(const char* reason, double a, double b, double c) {
  bump(counters_.requests_shed);
  server_metrics().shed.add(1);
  shed_window_.add(1);
  obs::flight_record(obs::FlightEventKind::kShed, {}, reason, a, b, c);
}

void Server::handle_line(Connection& connection, const std::string& line) {
  // Raw "GET /metrics" → one-shot HTTP-style scrape (curl --unix-socket).
  if (line.rfind("GET ", 0) == 0) {
    serve_metrics_http(connection);
    return;
  }

  std::string parse_error;
  std::optional<support::JsonValue> document =
      support::parse_json(line, &parse_error);
  if (!document.has_value()) {
    reject(connection, "malformed JSON (" + parse_error + ")");
    return;
  }

  if (const support::JsonValue* op = document->find("op")) {
    const std::string& name = op->as_string();
    if (name != "ping" && name != "metrics" && name != "stats" &&
        name != "flight") {
      reject(connection, "unknown op '" + name + "'");
      return;
    }
    JsonWriter writer;
    writer.begin_object();
    writer.key("v");
    writer.value(static_cast<long long>(analysis::wire::kWireFormatVersion));
    writer.key("status");
    writer.value("ok");
    if (name == "ping") {
      writer.key("op");
      writer.value("ping");
    } else if (name == "stats") {
      writer.key("op");
      writer.value("stats");
      writer.key("stats");
      writer.raw(stats_json());
    } else if (name == "flight") {
      writer.key("op");
      writer.value("flight");
      writer.key("events");
      writer.raw(obs::FlightRecorder::global().dump_json_array());
    } else {
      const support::JsonValue* format = document->find("format");
      if (format != nullptr && format->as_string() == "prometheus") {
        writer.key("metrics_text");
        writer.value(obs::MetricsRegistry::global().to_prometheus());
      } else {
        writer.key("metrics");
        writer.raw(obs::MetricsRegistry::global().to_json());
      }
    }
    writer.end_object();
    write_line(connection, writer.str() + "\n");
    return;
  }

  std::string request_error;
  std::optional<analysis::AnalyzeRequest> request =
      analysis::wire::parse_analyze_request(*document, &request_error);
  if (!request.has_value()) {
    analysis::AnalyzeResponse response;
    if (const support::JsonValue* id = document->find("id")) {
      response.id = id->as_string();
    }
    reject(connection, std::move(request_error), std::move(response));
    return;
  }
  handle_request(connection, *std::move(request));
}

void Server::handle_request(Connection& connection,
                            analysis::AnalyzeRequest request) {
  // Every request gets a trace-correlation id: the client's (wire v2)
  // when supplied, else minted here at the boundary. Installed on this
  // reader thread so the admission decision's spans and flight events —
  // and, via ThreadPool::submit's context capture, everything the pool
  // worker does — carry it.
  if (request.request_id.empty()) {
    request.request_id = obs::generate_request_id();
  }
  obs::RequestScope rid_scope(request.request_id);
  requests_window_.add(1);

  // Process-wide cache discipline: an unspecified cache_mode inherits the
  // daemon's default; an explicit bypass/refresh on the request wins.
  if (request.cache_mode == CacheMode::kDefault) {
    request.cache_mode = config_.default_cache_mode;
  }

  analysis::AnalyzeResponse early;
  early.id = request.id;
  early.request_id = request.request_id;
  early.detail = request.detail;

  if (draining_.load(std::memory_order_relaxed)) {
    early.status = analysis::ResponseStatus::kDraining;
    early.error = "server is draining";
    count_shed("draining");
    respond(connection, early);
    return;
  }

  // The effective limits are resolved once, onto the request the worker
  // will own: process_request only subtracts the queue wait from them.
  if (!request.limits.has_value()) request.limits = config_.default_limits;
  const ResourceLimits& limits = *request.limits;

  // Resolve a content-hash reference against the registry before
  // admission, so an unresolvable request never occupies queue space.
  // Inline sources register under their hash on the way in — the hash
  // echoed in the response is immediately usable as a reference. A source
  // the effective limits would refuse anyway (max_source_bytes) is not
  // worth registry space. The source is hashed once here; the digest
  // also keys the service's cache lookup.
  std::uint64_t source_digest = 0;
  if (request.has_source) {
    source_digest = strings::fnv1a(request.source);
    register_source(source_digest, request.source, limits.max_source_bytes);
  } else {
    if (!analysis::parse_content_hash(request.source_hash, source_digest) ||
        !resolve_source(source_digest, request.source)) {
      early.source_hash = request.source_hash;
      reject(connection, "unknown source_hash '" + request.source_hash + "'",
             std::move(early), analysis::ResponseStatus::kNotFound);
      return;
    }
    request.has_source = true;
  }

  // Admission control (header comment): hard cap on in-flight requests,
  // plus the queue-wait estimate against this request's deadline. Only
  // the verdict and the counter update happen under inflight_mutex_ —
  // respond() is a blocking send and the burst dump is file I/O, and a
  // slow client must never wedge every worker's inflight_ decrement (and
  // every other connection's admission) behind this lock.
  bool shed = false;
  std::size_t depth_at_verdict = 0;
  std::size_t depth_at_admission = 0;
  double p95 = 0.0;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    // The stale-admission fix: consult the sliding-window p95 (cumulative
    // only until the window warms), so a slow burst minutes ago cannot
    // shed today's fast traffic.
    p95 = admission_p95_ms();
    depth_at_verdict = inflight_;
    shed = should_shed(inflight_, workers_, p95, limits.deadline_ms,
                       config_.max_queue_depth);
    if (!shed) depth_at_admission = ++inflight_;
  }
  if (shed) {
    early.status = analysis::ResponseStatus::kOverloaded;
    early.queue_depth = depth_at_verdict;
    early.error = "overloaded: " + std::to_string(depth_at_verdict) +
                  " in flight, p95 " + std::to_string(p95) + " ms";
    count_shed("overloaded", static_cast<double>(depth_at_verdict), p95,
               limits.deadline_ms);
    respond(connection, early);
    maybe_dump_flight_on_shed_burst();
    return;
  }
  obs::flight_record(obs::FlightEventKind::kAdmit, {}, "admitted",
                     static_cast<double>(depth_at_admission), p95,
                     limits.deadline_ms);
  server_metrics().queue_depth.set(static_cast<double>(depth_at_admission));
  bump(counters_.requests_admitted);
  {
    std::lock_guard<std::mutex> lock(connection.pending_mutex);
    ++connection.pending;
  }

  const auto admitted_at = support::Clock::now();
  Connection* raw = &connection;
  pool_->submit([this, raw, request = std::move(request), source_digest,
                 admitted_at, depth_at_admission]() mutable {
    process_request(*raw, request, source_digest, admitted_at,
                    depth_at_admission);
  });
}

void Server::process_request(
    Connection& connection, analysis::AnalyzeRequest& request,
    std::uint64_t source_digest,
    support::Clock::time_point admitted_at, std::size_t depth_at_admission) {
  // Re-anchor the request context on the worker lane (submit's capture
  // already covers the common path; this keeps process_request correct
  // if it is ever invoked outside the pool).
  obs::RequestScope rid_scope(request.request_id);
  ServerMetrics& metrics = server_metrics();
  const double queue_ms = support::ms_since(admitted_at);
  metrics.queue_ms.record(queue_ms);
  obs::flight_record(obs::FlightEventKind::kPickup, {}, nullptr, queue_ms,
                     static_cast<double>(depth_at_admission));

  analysis::AnalyzeResponse response;
  ResourceLimits& limits = *request.limits;  // resolved by handle_request
  const bool deadline_elapsed_in_queue =
      limits.deadline_ms > 0.0 && queue_ms >= limits.deadline_ms;
  if (deadline_elapsed_in_queue) {
    // The wait already consumed the whole deadline: shed instead of
    // running an analysis guaranteed to be answered late.
    response.status = analysis::ResponseStatus::kOverloaded;
    response.id = request.id;
    response.request_id = request.request_id;
    response.detail = request.detail;
    response.error = "deadline elapsed after " + std::to_string(queue_ms) +
                     " ms in queue";
    count_shed("deadline_elapsed_in_queue", queue_ms, 0.0, limits.deadline_ms);
    maybe_dump_flight_on_shed_burst();
  } else {
    const auto picked_up = support::Clock::now();
    // The deadline is end-to-end: the analysis Budget gets whatever the
    // queue wait left over.
    if (limits.deadline_ms > 0.0) limits.deadline_ms -= queue_ms;
    response = service_->analyze(request, {}, source_digest);
    if (config_.min_service_ms > 0.0) {
      const double remaining =
          config_.min_service_ms - support::ms_since(picked_up);
      if (remaining > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(remaining));
      }
    }
    response.service_ms = support::ms_since(picked_up);
    metrics.service_ms.record(response.service_ms);
    service_window_.record(response.service_ms);
    bump(response.ok() ? counters_.requests_served
                       : counters_.requests_invalid);
    if (slow_exemplars_.offer(response.source_hash, request.request_id,
                              response.service_ms)) {
      obs::flight_record(obs::FlightEventKind::kSlowExemplar,
                         response.source_hash, nullptr,
                         response.service_ms);
    }
  }
  response.queue_ms = queue_ms;
  response.queue_depth = depth_at_admission;
  metrics.requests.add(1);
  obs::flight_record(obs::FlightEventKind::kRespond, response.source_hash,
                     to_string(response.status).data(), response.service_ms,
                     queue_ms);

  respond(connection, response);

  {
    std::lock_guard<std::mutex> lock(connection.pending_mutex);
    --connection.pending;
    if (connection.pending == 0) connection.pending_zero.notify_all();
  }
  std::size_t depth_now = 0;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    depth_now = --inflight_;
    if (inflight_ == 0) inflight_zero_.notify_all();
  }
  metrics.queue_depth.set(static_cast<double>(depth_now));
}

void Server::respond(Connection& connection,
                     const analysis::AnalyzeResponse& response) {
  const std::string line = analysis::wire::analyze_response_json(response);
  write_line(connection, line + "\n");
}

void Server::write_line(Connection& connection, const std::string& data) {
  std::lock_guard<std::mutex> lock(connection.write_mutex);
  if (connection.fd < 0) return;
  if (!write_all(connection.fd, data)) {
    // Write failed — the peer vanished, or stalled past the send timeout.
    // The response stream is no longer coherent, so drop the connection:
    // shutdown() fails the reader's recv(), the reader drains pending
    // responses (each failing fast the same way) and closes the fd.
    ::shutdown(connection.fd, SHUT_RDWR);
  }
}

void Server::register_source(std::uint64_t digest,
                             const std::string& source,
                             std::size_t max_entry_bytes) {
  if (config_.hash_registry_bytes == 0) return;
  // Per-entry caps: a source the request's own limits would refuse, or
  // one bigger than the whole byte budget, never enters the registry.
  if (max_entry_bytes > 0 && source.size() > max_entry_bytes) return;
  if (source.size() > config_.hash_registry_bytes) return;

  std::lock_guard<std::mutex> lock(registry_mutex_);
  const Registry::Id existing = registry_.find(digest);
  if (existing != Registry::kNone) {
    registry_.touch(existing);
    return;
  }
  // Evict least-recently-used entries until both budgets admit the new
  // source; the caps guarantee this terminates with room to spare.
  while (registry_.size() >= kHashRegistryEntries ||
         registry_bytes_ + source.size() > config_.hash_registry_bytes) {
    const Registry::Id victim = registry_.oldest();
    if (victim == Registry::kNone) break;
    registry_bytes_ -= registry_.value(victim).size();
    registry_.erase(victim);
  }
  registry_.insert(digest, source);
  registry_bytes_ += source.size();
}

bool Server::resolve_source(std::uint64_t digest, std::string& source) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const Registry::Id id = registry_.find(digest);
  if (id == Registry::kNone) return false;
  registry_.touch(id);
  source = registry_.value(id);
  return true;
}

void Server::serve_metrics_http(Connection& connection) {
  const std::string body = obs::MetricsRegistry::global().to_prometheus();
  std::string response =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n"
      "Connection: close\r\n\r\n" + body;
  {
    std::lock_guard<std::mutex> lock(connection.write_mutex);
    if (connection.fd >= 0) {
      if (write_all(connection.fd, response)) {
        ::shutdown(connection.fd, SHUT_WR);
      } else {
        ::shutdown(connection.fd, SHUT_RDWR);
      }
    }
  }
  connection.stop_reading = true;
}

ServerStats Server::stats() const {
  constexpr auto relaxed = std::memory_order_relaxed;
  ServerStats stats;
  stats.connections_accepted = counters_.connections_accepted.load(relaxed);
  stats.connections_refused = counters_.connections_refused.load(relaxed);
  stats.connections_open = open_connections_.load();
  stats.requests_admitted = counters_.requests_admitted.load(relaxed);
  stats.requests_served = counters_.requests_served.load(relaxed);
  stats.requests_shed = counters_.requests_shed.load(relaxed);
  stats.requests_invalid = counters_.requests_invalid.load(relaxed);
  return stats;
}

double Server::admission_p95_ms() const {
  const obs::WindowSnapshot recent = service_window_.snapshot();
  if (recent.count >= kWindowWarmMinCount) return recent.p95;
  // Cold window (boot, or an idle gap aged everything out): since-boot
  // p95 is the best available estimate and is exact early on.
  return server_metrics().service_ms.p95();
}

std::string Server::stats_json() const {
  const obs::WindowSnapshot recent = service_window_.snapshot();
  const std::uint64_t recent_requests = requests_window_.sum();
  const std::uint64_t recent_shed = shed_window_.sum();
  const double window_s =
      static_cast<double>(service_window_.window_seconds());
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    depth = inflight_;
  }
  ServerMetrics& metrics = server_metrics();

  JsonWriter writer;
  writer.begin_object();
  writer.key("window_seconds");
  writer.value(service_window_.window_seconds());
  writer.key("warm");
  writer.value(recent.count >= kWindowWarmMinCount);
  writer.key("queue_depth"); writer.value(depth);
  writer.key("workers"); writer.value(workers_);
  writer.key("admission_p95_ms"); writer.value(admission_p95_ms());
  writer.key("recent");
  writer.begin_object();
  writer.key("requests"); writer.value(recent_requests);
  writer.key("shed"); writer.value(recent_shed);
  writer.key("qps");
  writer.value(static_cast<double>(recent_requests) / window_s);
  writer.key("shed_rate");
  writer.value(recent_requests == 0
                   ? 0.0
                   : static_cast<double>(recent_shed) /
                         static_cast<double>(recent_requests));
  writer.key("served"); writer.value(recent.count);
  writer.key("service_p50_ms"); writer.value(recent.p50);
  writer.key("service_p95_ms"); writer.value(recent.p95);
  writer.key("service_p99_ms"); writer.value(recent.p99);
  writer.key("service_max_ms"); writer.value(recent.max);
  writer.end_object();
  writer.key("cumulative");
  writer.begin_object();
  writer.key("requests_total"); writer.value(metrics.requests.value());
  writer.key("shed_total"); writer.value(metrics.shed.value());
  writer.key("service_count"); writer.value(metrics.service_ms.count());
  writer.key("service_p95_ms"); writer.value(metrics.service_ms.p95());
  writer.end_object();
  writer.key("cache");
  if (const analysis::ResultCache* cache = service_->cache()) {
    const analysis::ResultCache::Counters counters = cache->counters();
    writer.begin_object();
    writer.key("mode");
    writer.value(jst::to_string(config_.default_cache_mode));
    writer.key("hits");
    writer.value(static_cast<std::size_t>(counters.hits));
    writer.key("misses");
    writer.value(static_cast<std::size_t>(counters.misses));
    writer.key("stores");
    writer.value(static_cast<std::size_t>(counters.stores));
    writer.key("evictions");
    writer.value(static_cast<std::size_t>(counters.evictions));
    writer.key("bypasses");
    writer.value(static_cast<std::size_t>(counters.bypasses));
    writer.key("entries"); writer.value(counters.entries);
    writer.key("bytes"); writer.value(counters.bytes);
    writer.key("disk_records"); writer.value(counters.disk_records);
    writer.end_object();
  } else {
    writer.null();
  }
  writer.key("slowest");
  writer.raw(slow_exemplars_.to_json());
  writer.end_object();
  return writer.str();
}

void Server::maybe_dump_flight_on_shed_burst() {
  if (config_.flight_dump_path.empty() ||
      config_.shed_burst_dump_threshold == 0) {
    return;
  }
  if (shed_window_.sum() < config_.shed_burst_dump_threshold) return;
  const std::uint64_t now_s = obs::window_now_s();
  std::uint64_t last = last_flight_dump_s_.load(std::memory_order_relaxed);
  if (last != kNeverDumped &&
      now_s - last < service_window_.window_seconds()) {
    return;  // already dumped for this burst
  }
  if (last_flight_dump_s_.compare_exchange_strong(
          last, now_s, std::memory_order_relaxed)) {
    obs::FlightRecorder::global().dump_to_file(config_.flight_dump_path);
  }
}

void Server::shutdown() {
  if (stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_relaxed);

  // Stop accepting: shutting the listening socket down fails the blocking
  // accept() and ends the accept loop. The fd is closed only after the
  // loop has stopped, so the loop never reads a closed (or reused) fd.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Drain: every admitted request gets its response before any
  // connection is torn down. Requests read after this point are answered
  // kDraining by handle_request.
  {
    std::unique_lock<std::mutex> lock(inflight_mutex_);
    inflight_zero_.wait(lock, [this] { return inflight_ == 0; });
  }

  // Unblock readers stuck in recv(); they close their own fd after their
  // pending count (already zero) allows it.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const std::unique_ptr<Connection>& connection : connections_) {
      std::lock_guard<std::mutex> write_lock(connection->write_mutex);
      if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RDWR);
    }
  }
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (const std::unique_ptr<Connection>& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
  }

  pool_.reset();  // drains any remaining (already answered) tasks
  ::unlink(config_.socket_path.c_str());
}

}  // namespace jst::server
