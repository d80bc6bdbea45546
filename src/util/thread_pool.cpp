#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace p2auth::util {

namespace {

// Set while the thread (worker or caller) is executing chunks of a job;
// a nested parallel_for sees it and runs inline.
thread_local bool t_in_parallel_task = false;

std::string describe(const std::exception_ptr& cause) {
  try {
    std::rethrow_exception(cause);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

// One parallel_for invocation.  Lives on the caller's stack; the caller
// does not return until every participant has left `run_chunks`.
struct Job {
  std::size_t n = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t)>* fn = nullptr;
  // Next undispatched index.  Cancellation stores `n` here so no further
  // chunk is claimed ("stop dispatch").
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  // Worker slots still available for this job (the caller holds its own
  // implicit slot).
  std::size_t worker_slots = 0;
  // Participants currently inside run_chunks (protected by the pool
  // mutex; the caller waits for it to drop to zero before the Job's
  // stack frame dies).
  std::size_t active = 0;
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = 0;
};

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  void parallel_for(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t max_threads);

 private:
  ThreadPool() = default;
  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_workers_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Spawns workers (lazily, on the first parallel job) until at least
  // `count` exist.  Caller holds mutex_.
  void ensure_workers(std::size_t count) {
    while (workers_.size() < count) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop();
  static void run_chunks(Job& job);

  std::mutex mutex_;
  std::condition_variable wake_workers_;
  std::condition_variable job_done_;
  std::vector<std::thread> workers_;
  Job* current_job_ = nullptr;
  bool stop_ = false;
  // Serializes concurrent parallel_for calls from distinct external
  // threads: one job owns the pool at a time.
  std::mutex job_mutex_;
};

// Runs fn(i) for i in [begin, end) with per-task telemetry, recording
// the first failure into `job` and cancelling further dispatch.
// Returns false when the job got cancelled mid-chunk.
bool run_span(Job& job, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (job.cancelled.load(std::memory_order_acquire)) return false;
    const std::int64_t start_us = obs::enabled() ? obs::now_us() : 0;
    try {
      (*job.fn)(i);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) {
          job.error = std::current_exception();
          job.error_index = i;
        }
      }
      job.cancelled.store(true, std::memory_order_release);
      // Stop dispatch: push the cursor past the end so no sibling claims
      // another chunk while it drains its current task.
      job.next.store(job.n, std::memory_order_relaxed);
      return false;
    }
    if (obs::enabled()) {
      obs::add_counter("pool.tasks");
      obs::observe_latency_us("pool.task_us",
                              static_cast<double>(obs::now_us() - start_us));
    }
  }
  return true;
}

void ThreadPool::run_chunks(Job& job) {
  const bool was_in_task = t_in_parallel_task;
  t_in_parallel_task = true;
  while (!job.cancelled.load(std::memory_order_acquire)) {
    const std::size_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) break;
    const std::size_t end = std::min(job.n, begin + job.chunk);
    if (obs::enabled()) {
      const std::size_t dispatched =
          std::min(job.next.load(std::memory_order_relaxed), job.n);
      obs::set_gauge("pool.queue_depth",
                     static_cast<double>(job.n - dispatched));
    }
    if (!run_span(job, begin, end)) break;
  }
  t_in_parallel_task = was_in_task;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_workers_.wait(lock, [this] {
      return stop_ || (current_job_ != nullptr && current_job_->worker_slots > 0);
    });
    if (stop_) return;
    Job& job = *current_job_;
    --job.worker_slots;
    ++job.active;
    lock.unlock();
    run_chunks(job);
    lock.lock();
    if (--job.active == 0) job_done_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t chunk,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_threads) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  std::size_t parallelism = resolve_threads(max_threads);
  // No point waking more participants than there are chunks.
  parallelism = std::min(parallelism, (n + chunk - 1) / chunk);

  Job job;
  job.n = n;
  job.chunk = chunk;
  job.fn = &fn;

  if (t_in_parallel_task || parallelism <= 1) {
    // Nested submission rejected / serial execution: inline on this
    // thread, same dispatch loop and exception contract.
    run_chunks(job);
  } else {
    const std::lock_guard<std::mutex> job_lock(job_mutex_);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.worker_slots = parallelism - 1;  // the caller takes one slot
      ensure_workers(job.worker_slots);
      current_job_ = &job;
    }
    wake_workers_.notify_all();
    run_chunks(job);
    std::unique_lock<std::mutex> lock(mutex_);
    current_job_ = nullptr;
    // The Job lives on this stack frame: wait until every worker that
    // joined has left run_chunks.
    job_done_.wait(lock, [&job] { return job.active == 0; });
  }

  if (job.error) throw ParallelForError(job.error_index, job.error);
}

}  // namespace

ParallelForError::ParallelForError(std::size_t index, std::exception_ptr cause)
    : std::runtime_error("parallel_for: task " + std::to_string(index) +
                         " failed: " + describe(cause)),
      index_(index),
      cause_(std::move(cause)) {}

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  static const std::size_t resolved = [] {
    if (const char* env = std::getenv("P2AUTH_THREADS")) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0' && v > 0) {
        return static_cast<std::size_t>(v);
      }
    }
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }();
  return resolved;
}

void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t max_threads) {
  ThreadPool::instance().parallel_for(n, chunk, fn, max_threads);
}

bool in_parallel_task() noexcept { return t_in_parallel_task; }

}  // namespace p2auth::util
