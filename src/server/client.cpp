#include "server/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "server/socket_io.h"
#include "support/clock.h"
#include "support/json_writer.h"
#include "support/stats.h"

namespace jst::server {

Client::Client(const std::string& socket_path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("jstraced-client: bad socket path: " +
                             socket_path);
  }
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("jstraced-client: socket(): ") +
                             std::strerror(errno));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("jstraced-client: cannot connect to " +
                             socket_path + ": " + reason);
  }
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string Client::read_line() {
  char chunk[64 * 1024];
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error(
          "jstraced-client: connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Client::call_raw(const std::string& line) {
  if (fd_ < 0) throw std::runtime_error("jstraced-client: not connected");
  if (!write_all(fd_, line + "\n")) {
    throw std::runtime_error(std::string("jstraced-client: send: ") +
                             std::strerror(errno));
  }
  return read_line();
}

analysis::wire::ParsedResponse Client::call(
    const analysis::AnalyzeRequest& request) {
  const std::string line =
      call_raw(analysis::wire::analyze_request_json(request));
  std::string error;
  std::optional<analysis::wire::ParsedResponse> response =
      analysis::wire::parse_analyze_response(line, &error);
  if (!response.has_value()) {
    throw std::runtime_error("jstraced-client: malformed response (" + error +
                             "): " + line);
  }
  return *std::move(response);
}

bool Client::ping() {
  std::string error;
  const std::string line = call_raw("{\"op\":\"ping\"}");
  std::optional<support::JsonValue> document =
      support::parse_json(line, &error);
  if (!document.has_value()) return false;
  const support::JsonValue* status = document->find("status");
  return status != nullptr && status->as_string() == "ok";
}

std::string Client::metrics_json() {
  std::string error;
  const std::string line = call_raw("{\"op\":\"metrics\"}");
  std::optional<support::JsonValue> document =
      support::parse_json(line, &error);
  if (!document.has_value()) {
    throw std::runtime_error("jstraced-client: malformed metrics line (" +
                             error + ")");
  }
  const support::JsonValue* metrics = document->find("metrics");
  if (metrics == nullptr) {
    throw std::runtime_error("jstraced-client: metrics op missing 'metrics'");
  }
  // Re-serialize the parsed member: immune to envelope key reordering or
  // new members, unlike substring extraction from the raw line.
  return support::to_json(*metrics);
}

std::string Client::stats_json() {
  std::string error;
  const std::string line = call_raw("{\"op\":\"stats\"}");
  std::optional<support::JsonValue> document =
      support::parse_json(line, &error);
  if (!document.has_value()) {
    throw std::runtime_error("jstraced-client: malformed stats line (" +
                             error + ")");
  }
  const support::JsonValue* stats = document->find("stats");
  if (stats == nullptr) {
    throw std::runtime_error("jstraced-client: stats op missing 'stats'");
  }
  return support::to_json(*stats);
}

std::string LoadReport::to_json() const {
  JsonWriter writer;
  writer.begin_object();
  writer.key("sent");
  writer.value(sent);
  writer.key("ok");
  writer.value(ok);
  writer.key("shed");
  writer.value(shed);
  writer.key("rejected");
  writer.value(rejected);
  writer.key("transport_errors");
  writer.value(transport_errors);
  writer.key("shed_rate");
  writer.value(shed_rate());
  writer.key("wall_ms");
  writer.value(wall_ms);
  writer.key("latency_p50_ms");
  writer.value(latency_p50_ms);
  writer.key("latency_p95_ms");
  writer.value(latency_p95_ms);
  writer.key("latency_p99_ms");
  writer.value(latency_p99_ms);
  writer.key("latency_max_ms");
  writer.value(latency_max_ms);
  writer.key("achieved_qps");
  writer.value(achieved_qps);
  writer.end_object();
  return writer.str();
}

LoadReport run_load(const std::string& socket_path,
                    const LoadOptions& options) {
  if (options.sources.empty()) {
    throw std::runtime_error("run_load: options.sources is empty");
  }
  const std::size_t connections = std::max<std::size_t>(options.connections, 1);

  LoadReport report;
  std::vector<double> latencies;
  std::mutex merge_mutex;

  const auto started = support::Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadReport local;
      std::vector<double> local_latencies;
      local_latencies.reserve(options.requests_per_connection);
      try {
        Client client(socket_path);
        for (std::size_t r = 0; r < options.requests_per_connection; ++r) {
          const std::size_t pick =
              (c * options.requests_per_connection + r) %
              options.sources.size();
          analysis::AnalyzeRequest request = analysis::AnalyzeRequest::
              for_source(options.sources[pick],
                         std::to_string(c) + "-" + std::to_string(r));
          request.detail = options.detail;
          if (options.deadline_ms > 0.0) {
            ResourceLimits limits;
            limits.deadline_ms = options.deadline_ms;
            request.limits = limits;
          }
          const auto sent_at = support::Clock::now();
          ++local.sent;
          const analysis::wire::ParsedResponse response =
              client.call(request);
          local_latencies.push_back(support::ms_since(sent_at));
          switch (response.status) {
            case analysis::ResponseStatus::kOk:
              ++local.ok;
              break;
            case analysis::ResponseStatus::kOverloaded:
            case analysis::ResponseStatus::kDraining:
              ++local.shed;
              break;
            default:
              ++local.rejected;
              break;
          }
        }
      } catch (const std::exception&) {
        // Transport failure: the in-flight request is lost and this
        // connection's loop ends; everything recorded so far stands.
        ++local.transport_errors;
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      report.sent += local.sent;
      report.ok += local.ok;
      report.shed += local.shed;
      report.rejected += local.rejected;
      report.transport_errors += local.transport_errors;
      latencies.insert(latencies.end(), local_latencies.begin(),
                       local_latencies.end());
    });
  }
  for (std::thread& thread : threads) thread.join();
  report.wall_ms = support::ms_since(started);

  report.latency_p50_ms = stats::percentile(latencies, 50.0);
  report.latency_p95_ms = stats::percentile(latencies, 95.0);
  report.latency_p99_ms = stats::percentile(latencies, 99.0);
  report.latency_max_ms = stats::max(latencies);
  if (report.wall_ms > 0.0) {
    report.achieved_qps = 1000.0 *
                          static_cast<double>(latencies.size()) /
                          report.wall_ms;
  }
  return report;
}

}  // namespace jst::server
