// PredictionService: a FIFO of scoring requests drained by one dispatcher
// thread (group commit).
//
//   submit() ──► FIFO ──► dispatcher thread ──► Forest::predict ──► pool
//
// Each time the dispatcher wakes it takes everything that queued while it
// was busy and scores it in arrival order, one Forest::predict per request.
// There is no batching timer and no admission bound: an idle service scores
// a request as soon as the dispatcher sees it, and a busy one scores what
// arrived meanwhile as the next group. Callers bound the queue themselves —
// the HTTP front-end puts at most one request per worker thread in it, and
// its connection queue and body-size limit cap the rest.
//
// Determinism: a request's rows are scored by Forest::predict over the
// request's own Dataset, which is bit-identical at any thread count (see
// util/parallel.hpp) and independent of which group the request landed in —
// so service output is byte-identical to calling Forest::predict serially,
// no matter how requests interleave or how wide the pool is.
//
// Failure isolation: a request whose rows violate the model's schema throws
// in the submitting thread (never poisoning the queue); a scoring error
// inside the dispatcher lands in that request's future alone.
//
// Deadlines: checked once, when the dispatcher takes the request off the
// queue. A request whose deadline has passed by then fails with
// deadline_exceeded_error and is not scored.
//
// Counters: per-service (= per-model) admitted/completed/failed/expired
// counts, rows, dispatcher groups and end-to-end latency live in
// ServiceStats — the serving-side analogue of the λ/µ counters core::metrics
// keeps for failures — and are readable at any time via stats(). The same
// events also publish to the process-wide obs::registry() under "serve.*"
// (counters mirroring ServiceStats, plus serve.latency_us / serve.batch_rows
// histograms) so a run's metrics sidecar includes serving behaviour without
// holding a PredictionService handle. Counter ticks and histogram observes
// for a request happen in one critical section before its future fulfills,
// so obs snapshots taken after .get() are cross-metric consistent
// (latency histogram count == serve.requests_completed).
//
// Shutdown: the destructor lets the dispatcher score everything already
// queued, then joins it, so every future submit() returned resolves. Calling
// submit() while the service is being destroyed is a caller bug; a caller
// that shares the service across threads keeps it alive for each request
// (HttpServer holds a shared_ptr per request).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rainshine/obs/metrics.hpp"
#include "rainshine/serve/artifact.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/table/table.hpp"

namespace rainshine::serve {

/// A request's deadline passed before the dispatcher reached it: the future
/// fails with this instead of a result, and the rows are not scored — the
/// caller's latency budget is already spent. The network front-end maps
/// this to 504.
class deadline_exceeded_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Absolute per-request deadline; nullopt = no deadline (the default).
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/// Monotonic counters snapshot. Latencies are measured enqueue → scored, in
/// microseconds. A request's counters are published before its future
/// fulfills, so stats() taken after a .get() always includes that request.
/// Once the queue is drained, requests_admitted == requests_completed +
/// requests_failed + requests_deadline_exceeded.
struct ServiceStats {
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_failed = 0;    ///< scoring threw; error in the future
  /// Deadline passed before scoring; future fails with
  /// deadline_exceeded_error. Never overlaps requests_completed, so
  /// `latency_us count == requests_completed` stays an invariant.
  std::uint64_t requests_deadline_exceeded = 0;
  std::uint64_t rows_scored = 0;
  std::uint64_t batches_flushed = 0;    ///< dispatcher groups taken off the queue
  /// Always 0: no timer flushes a group. Kept only because
  /// perfbench/serve.cpp reads it for serve.deadline_flush_ratio.
  std::uint64_t deadline_flushes = 0;
  std::uint64_t total_latency_us = 0;
  std::uint64_t max_latency_us = 0;

  [[nodiscard]] double mean_latency_us() const noexcept {
    return requests_completed == 0
               ? 0.0
               : static_cast<double>(total_latency_us) /
                     static_cast<double>(requests_completed);
  }

  /// One-line human summary for logs and CLI --stats output.
  [[nodiscard]] std::string summary() const;
};

class PredictionService {
 public:
  /// Serves `artifact.forest`, validating every submitted table against
  /// `artifact.meta.schema`. The service owns one dispatcher thread.
  explicit PredictionService(ModelArtifact artifact);

  /// Scores every queued request, then stops the dispatcher. No future is
  /// ever abandoned. Must not run concurrently with submit().
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Validates `rows` against the model schema (throws
  /// util::precondition_error listing every mismatch — in this thread,
  /// immediately), queues them, and returns a future holding one prediction
  /// per row (regression values or class codes; model().class_labels renders
  /// the latter). Never blocks on other requests and never refuses one. If
  /// `deadline` has passed when the dispatcher reaches the request, the
  /// future fails with deadline_exceeded_error.
  [[nodiscard]] std::future<std::vector<double>> submit(
      const table::Table& rows, Deadline deadline = std::nullopt);

  /// submit() + wait.
  [[nodiscard]] std::vector<double> score(const table::Table& rows);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ModelMetadata& model() const noexcept { return meta_; }

 private:
  struct Request {
    cart::Dataset rows;
    std::promise<std::vector<double>> result;
    std::chrono::steady_clock::time_point enqueued;
    Deadline deadline;
  };

  /// Stable handles into obs::registry(), resolved once at construction so
  /// the hot path never takes the registry's registration lock.
  struct ObsHandles {
    obs::Counter* admitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* rows_scored = nullptr;
    obs::Counter* batches = nullptr;
    obs::Histogram* latency_us = nullptr;
    obs::Histogram* batch_rows = nullptr;
  };

  void run();
  void finish(Request& req);

  ModelMetadata meta_;
  std::shared_ptr<const cart::Forest> forest_;
  ObsHandles obs_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;  ///< dispatcher wakeups
  std::deque<Request> pending_;
  bool stop_ = false;
  ServiceStats stats_;

  std::thread dispatcher_;  ///< last member: started after state is ready
};

}  // namespace rainshine::serve
