#include "rainshine/serve/service.hpp"

#include <algorithm>

#include "rainshine/util/check.hpp"

namespace rainshine::serve {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  const auto d = std::chrono::steady_clock::now() - since;
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

}  // namespace

std::string ServiceStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%llu req (%llu failed, %llu expired), %llu rows in %llu "
                "batches, latency mean %.1fus max %lluus",
                static_cast<unsigned long long>(requests_admitted),
                static_cast<unsigned long long>(requests_failed),
                static_cast<unsigned long long>(requests_deadline_exceeded),
                static_cast<unsigned long long>(rows_scored),
                static_cast<unsigned long long>(batches_flushed),
                mean_latency_us(),
                static_cast<unsigned long long>(max_latency_us));
  return buf;
}

PredictionService::PredictionService(ModelArtifact artifact)
    : meta_(std::move(artifact.meta)), forest_(std::move(artifact.forest)) {
  util::require(forest_ != nullptr, "PredictionService needs a forest");
  util::require(!meta_.schema.empty(), "PredictionService needs a feature schema");
  obs::Registry& reg = obs::registry();
  obs_.admitted = &reg.counter("serve.requests_admitted");
  obs_.completed = &reg.counter("serve.requests_completed");
  obs_.failed = &reg.counter("serve.requests_failed");
  obs_.deadline_exceeded = &reg.counter("serve.deadline_exceeded");
  obs_.rows_scored = &reg.counter("serve.rows_scored");
  obs_.batches = &reg.counter("serve.batches_flushed");
  obs_.latency_us = &reg.histogram("serve.latency_us");
  obs_.batch_rows =
      &reg.histogram("serve.batch_rows", obs::default_size_buckets());
  dispatcher_ = std::thread([this] { run(); });
}

PredictionService::~PredictionService() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_one();
  dispatcher_.join();
}

std::future<std::vector<double>> PredictionService::submit(const table::Table& rows,
                                                           Deadline deadline) {
  // Schema validation and dictionary re-encode happen here, in the caller's
  // thread: a bad table throws before touching the queue, and the dispatcher
  // only ever sees scoreable Datasets.
  Request req{make_scoring_dataset(rows, meta_.schema), {},
              std::chrono::steady_clock::now(), deadline};
  std::future<std::vector<double>> future = req.result.get_future();
  {
    const std::lock_guard lock(mutex_);
    pending_.push_back(std::move(req));
    ++stats_.requests_admitted;
    obs_.admitted->add();
  }
  work_ready_.notify_one();
  return future;
}

std::vector<double> PredictionService::score(const table::Table& rows) {
  return submit(rows).get();
}

ServiceStats PredictionService::stats() const {
  const std::lock_guard lock(mutex_);
  return stats_;
}

void PredictionService::run() {
  std::deque<Request> group;
  std::unique_lock lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) return;  // stop_ and drained
    // Group commit: everything that queued while the previous group scored.
    group.swap(pending_);
    std::size_t group_rows = 0;
    for (const Request& req : group) group_rows += req.rows.num_rows();
    ++stats_.batches_flushed;
    obs_.batches->add();
    obs_.batch_rows->observe(static_cast<double>(group_rows));
    lock.unlock();
    for (Request& req : group) finish(req);
    // Free the scored rows before retaking the lock a submitter may want.
    group.clear();
    lock.lock();
  }
}

void PredictionService::finish(Request& req) {
  const std::size_t n = req.rows.num_rows();
  std::vector<double> result;
  std::exception_ptr error;
  // The one deadline check: the caller's budget is spent, so the pool is
  // better given to a request someone is still waiting for.
  const bool expired = req.deadline.has_value() &&
                       std::chrono::steady_clock::now() >= *req.deadline;
  if (expired) {
    error = std::make_exception_ptr(deadline_exceeded_error(
        "request deadline expired while queued; not scored"));
  } else {
    try {
      // Forest::predict fans the rows across the shared pool; its output is
      // bit-identical at any thread count and does not depend on what else
      // is in the group.
      result = forest_->predict(req.rows);
    } catch (...) {
      error = std::current_exception();
    }
  }
  const std::uint64_t latency = elapsed_us(req.enqueued);
  {
    // Counters first, fulfillment second: a caller who has seen its future
    // resolve is guaranteed to find its request in the stats() snapshot —
    // and the obs latency histogram observe shares this critical section,
    // so snapshot consistency (histogram count == completed counter) holds
    // for the registry too.
    const std::lock_guard lock(mutex_);
    if (expired) {
      ++stats_.requests_deadline_exceeded;
      obs_.deadline_exceeded->add();
    } else if (error == nullptr) {
      ++stats_.requests_completed;
      stats_.rows_scored += n;
      stats_.total_latency_us += latency;
      stats_.max_latency_us = std::max(stats_.max_latency_us, latency);
      obs_.completed->add();
      obs_.rows_scored->add(n);
      obs_.latency_us->observe(static_cast<double>(latency));
    } else {
      ++stats_.requests_failed;
      obs_.failed->add();
    }
  }
  // Fulfillment must not be able to kill the dispatcher: set_value can
  // throw (e.g. std::future_error if a promise was somehow satisfied, or
  // bad_alloc moving the payload). Convert to set_exception; if even that
  // fails the promise was already satisfied and the caller has a result.
  try {
    if (error != nullptr) {
      req.result.set_exception(error);
    } else {
      req.result.set_value(std::move(result));
    }
  } catch (...) {
    try {
      req.result.set_exception(std::current_exception());
    } catch (...) {
      // Promise already satisfied — nothing left to deliver.
    }
  }
}

}  // namespace rainshine::serve
