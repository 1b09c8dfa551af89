// Deadline propagation through PredictionService. A request whose deadline
// has passed when the dispatcher dequeues it surfaces as
// deadline_exceeded_error, ticks requests_deadline_exceeded once, is never
// scored, and never pollutes the completed-latency invariant
// (`latency_us count == requests_completed`).
#include "rainshine/serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>

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
  // The dispatcher scores requests one at a time in arrival order, so it
  // scores a large first request before it checks the deadline of any
  // request behind it, whether or not they share a group. The first request's
  // predict time is measured alone, at one thread, and the doomed request
  // gets a tenth of that as its budget: admitted with its deadline still
  // ahead, it expires while queued.
  util::set_num_threads(1);
  const ModelArtifact artifact = regression_artifact();
  const Table blocker = features_only(make_rows(std::size_t{1} << 20, 12));
  const Table rows = features_only(make_rows(4, 13));
  const auto blocker_rows = make_scoring_dataset(blocker, artifact.meta.schema);
  const auto predict_start = steady_clock::now();
  (void)artifact.forest->predict(blocker_rows);
  const auto budget = (steady_clock::now() - predict_start) / 10;

  PredictionService service(artifact);
  auto first = service.submit(blocker);
  const auto deadline = steady_clock::now() + budget;
  auto doomed = service.submit(rows, deadline);
  ASSERT_LT(steady_clock::now(), deadline) << "the budget ran out before admission";
  // Queued behind it, no deadline: must still be scored.
  auto healthy = service.submit(rows);

  EXPECT_EQ(first.get().size(), blocker.num_rows());
  EXPECT_THROW(doomed.get(), deadline_exceeded_error);
  EXPECT_EQ(healthy.get().size(), 4u);
  util::clear_thread_override();

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
