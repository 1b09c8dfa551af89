// Deadline propagation through PredictionService. A request whose deadline
// has passed when the dispatcher dequeues it surfaces as
// deadline_exceeded_error, ticks requests_deadline_exceeded once, is never
// scored, and never pollutes the completed-latency invariant
// (`latency_us count == requests_completed`).
#include "rainshine/serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "rainshine/cart/flat.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/util/parallel.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::serve {
namespace {

using table::Column;
using table::Table;
using std::chrono::steady_clock;
using std::chrono::milliseconds;

Table make_rows(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 3.0);
    y[i] = 2.0 * x[i] + rng.uniform(-0.1, 0.1);
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("y", Column::continuous(std::move(y)));
  return t;
}

ModelArtifact regression_artifact(std::uint64_t seed = 7) {
  const Table t = make_rows(200, seed);
  const cart::Dataset data(t, "y", {"x"}, cart::Task::kRegression);
  cart::ForestConfig cfg;
  cfg.num_trees = 4;
  cfg.seed = seed;
  cart::Forest forest = cart::grow_forest(data, cfg);
  ModelMetadata meta;
  meta.name = "deadline-svc";
  meta.version = 1;
  meta.task = forest.task();
  meta.schema = forest.trees().front().features();
  return ModelArtifact{std::move(meta),
                       std::make_shared<const cart::Forest>(std::move(forest))};
}

Table features_only(const Table& t) {
  Table out;
  out.add_column("x", t.column("x"));
  return out;
}

/// The process-global registry accumulates across tests in this binary, so
/// every assertion works on deltas around the scenario under test.
struct ObsProbe {
  std::uint64_t completed, expired, hist_count;
  static ObsProbe now() {
    const auto snap = obs::registry().snapshot();
    return {snap.counter("serve.requests_completed"),
            snap.counter("serve.deadline_exceeded"),
            snap.histogram("serve.latency_us").count};
  }
};

TEST(ServiceDeadline, ExpiredOnArrivalIsRefusedNotScored) {
  PredictionService service(regression_artifact());
  const Table rows = features_only(make_rows(8, 11));
  const ObsProbe before = ObsProbe::now();

  auto doomed = service.submit(rows, steady_clock::now() - milliseconds(1));
  // Right behind it, no deadline: must still be scored.
  auto healthy = service.submit(rows);
  EXPECT_THROW(doomed.get(), deadline_exceeded_error);
  EXPECT_EQ(healthy.get().size(), 8u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_admitted, 2u);
  EXPECT_EQ(stats.requests_deadline_exceeded, 1u);
  EXPECT_EQ(stats.requests_completed, 1u);
  EXPECT_EQ(stats.rows_scored, 8u);  // only the healthy request's rows

  const ObsProbe after = ObsProbe::now();
  EXPECT_EQ(after.expired - before.expired, 1u);
  EXPECT_EQ(after.completed - before.completed, 1u);
  // The expired request observed no latency; the healthy one did.
  EXPECT_EQ(after.hist_count - before.hist_count, 1u);
}

TEST(ServiceDeadline, QueuedRequestExpiringBeforeFlushFailsInsteadOfScoring) {
  // At two threads a request of several row blocks scores through the shared
  // pool, which runs one top-level region at a time. Holding the pool from
  // another thread therefore parks the dispatcher inside the first request's
  // Forest::predict while the requests behind it wait in the queue.
  util::set_num_threads(2);
  PredictionService service(regression_artifact());
  const Table blocker =
      features_only(make_rows(2 * cart::FlatForest::kBlockRows, 12));
  const Table rows = features_only(make_rows(4, 13));

  std::promise<void> entered;
  std::promise<void> release;
  std::future<void> pool_held = entered.get_future();
  const std::shared_future<void> released = release.get_future().share();
  std::thread holder([&] {
    util::parallel_for(2, 1, [&](std::size_t begin, std::size_t) {
      if (begin == 0) entered.set_value();
      released.wait();
    });
  });
  pool_held.wait();

  auto first = service.submit(blocker);
  // Admitted with its deadline ~50ms ahead; it passes while queued.
  const auto deadline = steady_clock::now() + milliseconds(50);
  auto doomed = service.submit(rows, deadline);
  // Queued behind it, no deadline: must still be scored.
  auto healthy = service.submit(rows);
  std::this_thread::sleep_until(deadline + milliseconds(1));
  release.set_value();
  holder.join();
  util::clear_thread_override();

  EXPECT_EQ(first.get().size(), blocker.num_rows());
  EXPECT_THROW(doomed.get(), deadline_exceeded_error);
  EXPECT_EQ(healthy.get().size(), 4u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_admitted, 3u);
  EXPECT_EQ(stats.requests_deadline_exceeded, 1u);
  EXPECT_EQ(stats.requests_completed, 2u);
  // Only the blocker's and the healthy request's rows.
  EXPECT_EQ(stats.rows_scored, blocker.num_rows() + 4u);
}

TEST(ServiceDeadline, LatencyCountEqualsCompletedAcrossMixedOutcomes) {
  PredictionService service(regression_artifact());
  const ObsProbe before = ObsProbe::now();

  std::vector<std::future<std::vector<double>>> futures;
  std::uint64_t want_completed = 0;
  std::uint64_t want_expired = 0;
  for (int i = 0; i < 30; ++i) {
    const Table rows = features_only(make_rows(3, 100 + static_cast<std::uint64_t>(i)));
    if (i % 3 == 0) {
      futures.push_back(service.submit(rows, steady_clock::now() - milliseconds(1)));
      ++want_expired;
    } else {
      futures.push_back(service.submit(rows));
      ++want_completed;
    }
  }
  for (auto& fut : futures) {
    try {
      (void)fut.get();
    } catch (const deadline_exceeded_error&) {
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_completed, want_completed);
  EXPECT_EQ(stats.requests_deadline_exceeded, want_expired);

  const ObsProbe after = ObsProbe::now();
  EXPECT_EQ(after.completed - before.completed, want_completed);
  EXPECT_EQ(after.expired - before.expired, want_expired);
  // The headline invariant: expired requests never observe a latency.
  EXPECT_EQ(after.hist_count - before.hist_count, want_completed);
}

TEST(ServiceDeadline, GenerousDeadlineScoresNormally) {
  PredictionService service(regression_artifact());
  const Table rows = features_only(make_rows(6, 16));
  auto fut = service.submit(rows, steady_clock::now() + std::chrono::seconds(30));
  EXPECT_EQ(fut.get().size(), 6u);
  EXPECT_EQ(service.stats().requests_deadline_exceeded, 0u);
  EXPECT_EQ(service.stats().requests_completed, 1u);
}

}  // namespace
}  // namespace rainshine::serve
