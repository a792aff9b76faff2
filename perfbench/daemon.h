// The daemon_open_loop workload's machinery: a jstraced-server child
// process, and a load generator that talks the NDJSON wire protocol to it
// over the Unix socket.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {

// A jstraced-server child serving a saved model. The child gets
// PR_SET_PDEATHSIG so it cannot outlive the benchmark; stop() drains it
// with SIGTERM (SIGKILL after a grace period) and reaps it.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& server_path, const std::string& socket_path,
                const std::string& model_path, std::size_t workers,
                const std::string& log_path);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  // Polls the socket until it accepts a connection; throws on timeout or
  // when the child exits first.
  void wait_ready(double timeout_s);
  // Returns the child's exit status (or -1 if it was killed).
  int stop();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
};

// One request as the generator saw it.
struct RequestRecord {
  std::uint32_t script = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t received_ns = 0;  // 0 = never answered
  bool ok = false;               // ResponseStatus kOk
  bool shed = false;             // kOverloaded / kDraining
  bool rejected = false;         // kInvalidRequest / kNotFound
  double queue_ms = 0.0;
  double service_ms = 0.0;
  std::string outcome;  // status (kStatus) or untimed outcome JSON (kFull)

  double rtt_ms() const {
    return static_cast<double>(received_ns - due_ns) / 1e6;
  }
};

// Pre-encoded request lines: prefix + id + suffix[script] + '\n' is the
// wire JSON of AnalyzeRequest{id, detail, source = script}.
struct RequestLines {
  std::string prefix;
  std::vector<std::string> suffix;
};

RequestLines encode_requests(const std::vector<std::string>& sources,
                             bool full_detail);

// Open loop: request k is due at start + offsets_ns[k] and is sent then,
// whatever the state of earlier requests, round-robin over `connections`
// pipelined connections; responses are matched to requests by id. One
// thread drives every connection. Requests still unanswered 30 s after the
// last due time count as transport errors.
std::vector<RequestRecord> run_open_loop(
    const std::string& socket_path, const RequestLines& lines,
    const std::vector<std::uint32_t>& scripts,
    const std::vector<std::int64_t>& offsets_ns, std::size_t connections,
    bool full_detail);

// Saturation: keeps `in_flight` requests outstanding over `connections`
// pipelined connections for `seconds` (a new request leaves as each
// answer arrives), so the daemon's queue never drains and its throughput
// is bounded by its lanes, not by how fast idle threads wake. Script k of
// the stream is order[k % order.size()].
std::vector<RequestRecord> run_saturated(
    const std::string& socket_path, const RequestLines& lines,
    const std::vector<std::uint32_t>& order, std::size_t connections,
    std::size_t in_flight, double seconds);

// SCHED_IDLE busy threads that keep otherwise idle CPUs from halting
// while the daemon is measured. On a virtual machine a halted virtual CPU
// can take milliseconds to wake, which would put the hypervisor's wake-up
// latency, not the daemon, into the round trips. Any runnable thread
// preempts them at once, so they take no CPU time the daemon wants.
class IdleSpinners {
 public:
  explicit IdleSpinners(std::size_t count);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Seeded Poisson arrival offsets at `rate` per second for `seconds`.
std::vector<std::int64_t> poisson_offsets(double rate, double seconds,
                                          std::uint64_t seed);

}  // namespace perfbench
