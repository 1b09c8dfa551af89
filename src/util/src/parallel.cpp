#include "rainshine/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace rainshine::util {

namespace {

/// set_num_threads pin; kUnset means "defer to env / hardware".
constexpr int kUnset = -1;
std::atomic<int> g_thread_override{kUnset};

std::size_t env_threads() noexcept {
  const char* value = std::getenv("RAINSHINE_THREADS");
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0) return 0;  // malformed: ignore
  return parsed <= 1 ? 1 : static_cast<std::size_t>(parsed);
}

/// True while the current thread is executing inside a parallel region
/// (either as a pool worker or as the participating caller). Nested
/// parallel_for calls then run serially inline.
thread_local bool t_in_parallel_region = false;

/// Regions from different threads run side by side. Each `run` lists a Job
/// on its caller's stack and drains that job's chunks itself; an idle worker
/// helps the oldest listed job that admits it and still has an unclaimed
/// chunk. A region therefore never waits on another region's chunks.
/// Determinism never depends on who runs a chunk — the chunk index fully
/// defines the work — so the pool needs no per-thread state at all.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Executes `fn(c)` for every c in [0, num_chunks) using the caller plus
  /// at most `threads - 1` pool workers; rethrows the first chunk exception.
  void run(std::size_t num_chunks, std::size_t threads,
           const std::function<void(std::size_t)>& fn) {
    Job job{fn, num_chunks, threads - 1};
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ensure_workers(job.width);
      jobs_.push_back(&job);
    }
    work_cv_.notify_all();

    work(job);  // the caller drains its own job

    // Every chunk is claimed now, so no worker can join the job: unlist it
    // and wait for the helpers still running a chunk of it.
    std::unique_lock<std::mutex> lock(mutex_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    done_cv_.wait(lock, [&] { return job.helpers == 0; });
    if (job.error != nullptr) std::rethrow_exception(job.error);
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

 private:
  /// One running region. A chunk belongs to whoever claims its index from
  /// `cursor`, and every claimed chunk runs to completion (exceptions are
  /// captured, not cancelled), so once the cursor has passed the end and no
  /// helper is left, every chunk has executed.
  struct Job {
    const std::function<void(std::size_t)>& fn;
    std::size_t num_chunks;
    std::size_t width;                   ///< workers admitted: index < width
    std::atomic<std::size_t> cursor{0};  ///< next unclaimed chunk
    std::size_t helpers = 0;             ///< workers inside work(*this)
    std::exception_ptr error;            ///< first chunk exception
  };

  Pool() = default;

  /// Runs chunks of `job` until its cursor passes the end. The first
  /// exception (across all threads) is kept for `run` to rethrow.
  void work(Job& job) {
    t_in_parallel_region = true;
    for (;;) {
      const std::size_t c = job.cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.num_chunks) break;
      try {
        job.fn(c);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (job.error == nullptr) job.error = std::current_exception();
      }
    }
    t_in_parallel_region = false;
  }

  /// The oldest listed job that admits worker `index` and still has an
  /// unclaimed chunk, or null. Called with `mutex_` held.
  Job* claimable(std::size_t index) const {
    for (Job* job : jobs_) {
      if (index < job->width &&
          job->cursor.load(std::memory_order_relaxed) < job->num_chunks) {
        return job;
      }
    }
    return nullptr;
  }

  void ensure_workers(std::size_t want) {
    while (workers_.size() < want) {
      const std::size_t index = workers_.size();
      workers_.emplace_back([this, index] { worker_loop(index); });
    }
  }

  void worker_loop(std::size_t index) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      Job* job = nullptr;
      work_cv_.wait(lock, [&] {
        return stop_ || (job = claimable(index)) != nullptr;
      });
      if (stop_) return;
      ++job->helpers;
      lock.unlock();
      work(*job);
      lock.lock();
      // The caller may return, destroying the job, as soon as the lock drops.
      if (--job->helpers == 0) done_cv_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::vector<Job*> jobs_;  ///< running jobs, oldest first
  bool stop_ = false;
};

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t default_num_threads() noexcept {
  const std::size_t env = env_threads();
  return env > 0 ? env : hardware_threads();
}

std::size_t num_threads() noexcept {
  const int pinned = g_thread_override.load(std::memory_order_relaxed);
  if (pinned != kUnset) return pinned <= 1 ? 1 : static_cast<std::size_t>(pinned);
  return default_num_threads();
}

void set_num_threads(std::size_t n) noexcept {
  // Clamp far above any sane pool width; keeps the int store well-defined.
  const std::size_t clamped = std::min<std::size_t>(n, 4096);
  g_thread_override.store(clamped <= 1 ? 1 : static_cast<int>(clamped),
                          std::memory_order_relaxed);
}

void clear_thread_override() noexcept {
  g_thread_override.store(kUnset, std::memory_order_relaxed);
}

void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t threads = num_threads();
  if (chunk == 0) chunk = std::max<std::size_t>(1, n / (4 * threads));
  const std::size_t num_chunks = (n + chunk - 1) / chunk;

  const auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    body(begin, std::min(n, begin + chunk));
  };

  // Serial fallback: pinned serial, nothing to spread, or a nested call.
  // Chunk boundaries stay identical to the pooled path by construction.
  if (threads <= 1 || num_chunks <= 1 || t_in_parallel_region) {
    for (std::size_t c = 0; c < num_chunks; ++c) run_chunk(c);
    return;
  }
  Pool::instance().run(num_chunks, std::min(threads, num_chunks), run_chunk);
}

}  // namespace rainshine::util
