#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "analysis/result_cache.h"
#include "analysis/wire.h"
#include "spans.h"
#include "support/rng.h"

namespace perfbench {
namespace {

// How long the generator waits for answers still in flight.
constexpr double kDrainSeconds = 30.0;

using jst::analysis::ResponseStatus;

int connect_unix(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Decodes one response line into its request's record.
void record_response(std::string_view line, std::int64_t received_ns,
                     bool full_detail, std::vector<RequestRecord>& records,
                     std::size_t& answered) {
  std::string error;
  const auto parsed = jst::analysis::wire::parse_analyze_response(line, &error);
  if (!parsed.has_value()) return;  // stays unanswered: a transport error
  std::size_t k = 0;
  const auto [end, ec] = std::from_chars(
      parsed->id.data(), parsed->id.data() + parsed->id.size(), k);
  if (ec != std::errc() || end != parsed->id.data() + parsed->id.size() ||
      k >= records.size() || records[k].received_ns != 0) {
    return;
  }
  RequestRecord& record = records[k];
  record.received_ns = received_ns;
  record.queue_ms = parsed->queue_ms;
  record.service_ms = parsed->service_ms;
  record.ok = parsed->status == ResponseStatus::kOk;
  record.shed = parsed->status == ResponseStatus::kOverloaded ||
                parsed->status == ResponseStatus::kDraining;
  record.rejected = !record.ok && !record.shed;
  if (record.ok) {
    if (full_detail) {
      const auto outcome =
          jst::analysis::parse_script_outcome(parsed->outcome);
      record.outcome = outcome.has_value() ? untimed_outcome_json(*outcome)
                                           : std::string("<undecodable>");
    } else {
      record.outcome = parsed->outcome_status;
    }
  }
  ++answered;
}

// Splits complete lines off `buffer` and records each.
void drain_lines(std::string& buffer, std::int64_t received_ns,
                 bool full_detail, std::vector<RequestRecord>& records,
                 std::size_t& answered) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t newline = buffer.find('\n', start);
    if (newline == std::string::npos) break;
    record_response(std::string_view(buffer).substr(start, newline - start),
                    received_ns, full_detail, records, answered);
    start = newline + 1;
  }
  buffer.erase(0, start);
}

std::string request_line(const RequestLines& lines, std::size_t k,
                         std::uint32_t script) {
  std::string line;
  line.reserve(lines.prefix.size() + 12 + lines.suffix[script].size());
  line += lines.prefix;
  line += std::to_string(k);
  line += lines.suffix[script];
  return line;
}

}  // namespace

DaemonProcess::DaemonProcess(const std::string& server_path,
                             const std::string& socket_path,
                             const std::string& model_path,
                             std::size_t workers, const std::string& log_path)
    : socket_path_(socket_path) {
  // No admission cap and no deadline: requests queue rather than shed, so
  // an overloaded capacity probe shows up as latency, not as failures.
  const std::vector<std::string> args = {
      server_path,       "--socket",          socket_path,
      "--model",         model_path,          "--workers",
      std::to_string(workers), "--max-queue-depth", "0",
      "--flight-out",    log_path + ".flight"};
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw std::runtime_error("fork() failed");
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
}

DaemonProcess::~DaemonProcess() { stop(); }

void DaemonProcess::wait_ready(double timeout_s) {
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < timeout_s) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("jstraced-server exited during start-up");
    }
    const int fd = connect_unix(socket_path_);
    if (fd >= 0) {
      ::close(fd);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw std::runtime_error("jstraced-server did not start listening");
}

int DaemonProcess::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const Clock::time_point start = Clock::now();
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (seconds_since(start) > 10.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

RequestLines encode_requests(const std::vector<std::string>& sources,
                             bool full_detail) {
  static constexpr std::string_view kMarker = "\"id\":\"#\"";
  RequestLines lines;
  for (const std::string& source : sources) {
    jst::analysis::AnalyzeRequest request =
        jst::analysis::AnalyzeRequest::for_source(source, "#");
    request.detail = full_detail ? jst::analysis::OutputDetail::kFull
                                 : jst::analysis::OutputDetail::kStatus;
    const std::string json = jst::analysis::wire::analyze_request_json(request);
    const std::size_t at = json.find(kMarker);
    if (at == std::string::npos) {
      throw std::runtime_error("unexpected request encoding");
    }
    const std::string prefix = json.substr(0, at + kMarker.size() - 2);
    if (lines.suffix.empty()) lines.prefix = prefix;
    if (prefix != lines.prefix) {
      throw std::runtime_error("request encodings disagree on the prefix");
    }
    lines.suffix.push_back(json.substr(at + kMarker.size() - 1) + "\n");
  }
  return lines;
}

namespace {

// The generator's single event loop: non-blocking writes and reads over
// every connection. The open loop spins (with sched_yield) between events
// so that its own wake-up never delays a send or a receive time stamp.
class Pump {
 public:
  Pump(const std::string& socket_path, std::size_t connections,
       bool full_detail, std::vector<RequestRecord>& records)
      : full_detail_(full_detail), records_(records) {
    for (std::size_t c = 0; c < connections; ++c) {
      const int fd = connect_unix(socket_path);
      if (fd < 0) {
        close_all();
        throw std::runtime_error("cannot connect to " + socket_path);
      }
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      links_.push_back(Link{fd, {}, 0, {}});
    }
  }
  ~Pump() { close_all(); }
  Pump(const Pump&) = delete;
  Pump& operator=(const Pump&) = delete;

  // Sends request k (script `script`) on connection k mod connections.
  void send(std::size_t k, std::uint32_t script, const RequestLines& lines) {
    Link& link = links_[k % links_.size()];
    if (link.fd < 0) return;  // lost connection: stays unanswered
    link.out += request_line(lines, k, script);
    records_[k].sent_ns = now_ns();
    flush(link);
  }

  // One non-blocking round over every connection; false when nothing
  // moved.
  bool step() {
    bool progress = false;
    char chunk[64 * 1024];
    for (Link& link : links_) {
      if (link.fd < 0) continue;
      if (link.sent < link.out.size()) progress |= flush(link);
      for (;;) {
        const ssize_t n = ::recv(link.fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {  // closed or failed: unanswered requests are lost
          ::close(link.fd);
          link.fd = -1;
          break;
        }
        const std::int64_t received = now_ns();
        link.in.append(chunk, static_cast<std::size_t>(n));
        drain_lines(link.in, received, full_detail_, records_, answered_);
        progress = true;
      }
    }
    return progress;
  }

  // Blocks until a connection is readable (or writable, with output
  // pending) or until `deadline_ns`.
  void wait(std::int64_t deadline_ns) {
    std::vector<pollfd> polled;
    for (const Link& link : links_) {
      if (link.fd < 0) continue;
      const short events =
          link.sent < link.out.size() ? POLLIN | POLLOUT : POLLIN;
      polled.push_back({link.fd, events, 0});
    }
    const std::int64_t wait_ns =
        std::max<std::int64_t>(0, deadline_ns - now_ns());
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
    timeout.tv_nsec = static_cast<long>(wait_ns % 1000000000);
    ::ppoll(polled.data(), polled.size(), &timeout, nullptr);
  }

  std::size_t answered() const { return answered_; }
  bool any_open() const {
    for (const Link& link : links_) {
      if (link.fd >= 0) return true;
    }
    return false;
  }

 private:
  struct Link {
    int fd = -1;
    std::string out;       // bytes queued for the daemon
    std::size_t sent = 0;  // prefix of `out` already written
    std::string in;        // bytes read, not yet a full line
  };

  bool flush(Link& link) {
    bool progress = false;
    while (link.sent < link.out.size()) {
      const ssize_t n = ::send(link.fd, link.out.data() + link.sent,
                               link.out.size() - link.sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        ::close(link.fd);
        link.fd = -1;
        return true;
      }
      link.sent += static_cast<std::size_t>(n);
      progress = true;
    }
    if (link.sent == link.out.size()) {
      link.out.clear();
      link.sent = 0;
    }
    return progress;
  }

  void close_all() {
    for (Link& link : links_) {
      if (link.fd >= 0) ::close(link.fd);
      link.fd = -1;
    }
  }

  bool full_detail_;
  std::vector<RequestRecord>& records_;
  std::vector<Link> links_;
  std::size_t answered_ = 0;
};

}  // namespace

std::vector<RequestRecord> run_open_loop(
    const std::string& socket_path, const RequestLines& lines,
    const std::vector<std::uint32_t>& scripts,
    const std::vector<std::int64_t>& offsets_ns, std::size_t connections,
    bool full_detail) {
  std::vector<RequestRecord> records(scripts.size());
  Pump pump(socket_path, connections, full_detail, records);
  const std::int64_t start_ns = now_ns() + 1'000'000;
  const std::int64_t give_up_ns =
      start_ns + (offsets_ns.empty() ? 0 : offsets_ns.back()) +
      static_cast<std::int64_t>(kDrainSeconds * 1e9);
  std::size_t next = 0;
  while (pump.answered() < records.size() && pump.any_open() &&
         now_ns() < give_up_ns) {
    bool progress = false;
    const std::int64_t now = now_ns();
    while (next < records.size() && start_ns + offsets_ns[next] <= now) {
      records[next].script = scripts[next];
      records[next].due_ns = start_ns + offsets_ns[next];
      pump.send(next, scripts[next], lines);
      ++next;
      progress = true;
    }
    if (!pump.step() && !progress) sched_yield();
  }
  for (; next < records.size(); ++next) {  // never sent: lost
    records[next].script = scripts[next];
    records[next].due_ns = start_ns + offsets_ns[next];
  }
  return records;
}

std::vector<RequestRecord> run_saturated(
    const std::string& socket_path, const RequestLines& lines,
    const std::vector<std::uint32_t>& order, std::size_t connections,
    std::size_t in_flight, double seconds) {
  const std::int64_t start_ns = now_ns();
  const std::int64_t end_ns =
      start_ns + static_cast<std::int64_t>(seconds * 1e9);
  // Sized for the fastest plausible daemon; the loop stops sending there.
  std::vector<RequestRecord> records(
      static_cast<std::size_t>(seconds * 50000.0) + in_flight);
  Pump pump(socket_path, connections, false, records);
  // The backlog keeps the daemon busy while the generator sleeps, so here
  // it blocks between events and leaves its CPU to the daemon.
  std::size_t next = 0;
  while (pump.any_open() && now_ns() < end_ns) {
    for (; next < records.size() && next < pump.answered() + in_flight;
         ++next) {
      records[next].script = order[next % order.size()];
      records[next].due_ns = now_ns();
      pump.send(next, records[next].script, lines);
    }
    if (!pump.step()) pump.wait(end_ns);
  }
  // Drain what is still in flight.
  const std::int64_t give_up_ns =
      now_ns() + static_cast<std::int64_t>(kDrainSeconds * 1e9);
  while (pump.answered() < next && pump.any_open() && now_ns() < give_up_ns) {
    if (!pump.step()) pump.wait(give_up_ns);
  }
  records.resize(next);
  return records;
}

IdleSpinners::IdleSpinners(std::size_t count) {
  try {
    for (std::size_t i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        ::sched_setscheduler(0, SCHED_IDLE, &param);  // this thread only
        while (!stop_.load(std::memory_order_relaxed)) {
          __builtin_ia32_pause();
        }
      });
    }
  } catch (...) {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
    throw;
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& thread : threads_) thread.join();
}

std::vector<std::int64_t> poisson_offsets(double rate, double seconds,
                                          std::uint64_t seed) {
  std::vector<std::int64_t> offsets;
  jst::Rng rng(seed);
  double t = 0.0;
  while (t < seconds) {
    offsets.push_back(static_cast<std::int64_t>(t * 1e9));
    t += -std::log(1.0 - rng.uniform()) / rate;
  }
  return offsets;
}

}  // namespace perfbench
