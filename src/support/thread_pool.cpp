#include "support/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "support/clock.h"

namespace jst::support {
namespace {

// Pool telemetry (DESIGN.md §9): queue depth is the number of submitted
// tasks not yet picked up, task latency is execution time only (tasks
// here are coarse parallel_for drain() calls, so two clock reads per
// task are noise). Instrument references are resolved once.
struct PoolMetrics {
  obs::Gauge& queue_depth =
      obs::MetricsRegistry::global().gauge("jst_pool_queue_depth");
  obs::Counter& tasks =
      obs::MetricsRegistry::global().counter("jst_pool_tasks_total");
  obs::Histogram& task_ms =
      obs::MetricsRegistry::global().histogram("jst_pool_task_ms");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics* metrics = new PoolMetrics();  // outlives static dtors
  return *metrics;
}

void run_task_timed(const std::function<void()>& task) {
  PoolMetrics& metrics = pool_metrics();
  JST_SPAN("pool.task");
  const auto start = Clock::now();
  task();
  metrics.task_ms.record(ms_since(start));
  metrics.tasks.add(1);
}

// Shared state of one parallel_for invocation. Owned via shared_ptr so a
// helper task scheduled after the caller already drained every index can
// still run (and immediately exit) safely.
struct ForState {
  ForState(std::size_t count, std::function<void(std::size_t)> body)
      : count(count), body(std::move(body)) {}

  const std::size_t count;
  const std::function<void(std::size_t)> body;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable done;
  std::size_t active = 0;              // lanes currently inside drain()
  std::exception_ptr error;            // first failure wins

  // Claims indices until none remain. Every claimed index is executed by
  // the claiming thread, so waiting for active == 0 && next >= count is a
  // complete-work barrier.
  void drain() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++active;
    }
    for (;;) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) break;
      try {
        body(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
        next.store(count, std::memory_order_relaxed);  // abandon the rest
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (--active == 0) done.notify_all();
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t parallelism) {
  parallelism = resolve_threads(parallelism);
  workers_.reserve(parallelism - 1);
  for (std::size_t i = 0; i + 1 < parallelism; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    pool_metrics().queue_depth.sub(1.0);
    run_task_timed(task);
  }
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    run_task_timed(task);
    return;
  }
  // Propagate the submitting thread's request context across the lane
  // hop: the task runs under the same request id on the worker, so its
  // pool.task span (and everything inside) joins the request's trace.
  // No request in scope (the batch path) costs nothing extra.
  const std::string_view rid = obs::current_request_id();
  if (!rid.empty()) {
    task = [rid = std::string(rid), inner = std::move(task)] {
      obs::RequestScope scope(rid);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  pool_metrics().queue_depth.add(1.0);
  wake_.notify_one();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  auto state = std::make_shared<ForState>(count, body);
  const std::size_t helpers = std::min(workers_.size(), count - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    submit([state] { state->drain(); });
  }
  state->drain();
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] {
    return state->active == 0 &&
           state->next.load(std::memory_order_relaxed) >= state->count;
  });
  if (state->error) std::rethrow_exception(state->error);
}

std::size_t ThreadPool::default_parallelism() {
  if (const char* env = std::getenv("JST_THREADS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) return static_cast<std::size_t>(value);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_parallelism());
  return pool;
}

void run_parallel(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  threads = resolve_threads(threads);
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  ThreadPool& shared = ThreadPool::global();
  if (threads == shared.parallelism()) {
    shared.parallel_for(count, body);
    return;
  }
  ThreadPool scoped(threads);
  scoped.parallel_for(count, body);
}

}  // namespace jst::support
