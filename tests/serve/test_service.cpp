// PredictionService: the queued path must be byte-identical to serial
// Forest::predict at any thread-pool width and under concurrent submitters
// (the acceptance criterion for the serving tier), and the counters must add
// up.
#include "rainshine/serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <future>
#include <thread>

#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::serve {
namespace {

using table::Column;
using table::Table;

Table make_rows(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  std::vector<std::string> dc(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 3.0);
    dc[i] = rng.bernoulli(0.5) ? "DC1" : "DC2";
    y[i] = 2.0 * x[i] + (dc[i] == "DC1" ? 1.0 : -1.0) + rng.uniform(-0.1, 0.1);
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("dc", Column::nominal(dc));
  t.add_column("y", Column::continuous(std::move(y)));
  return t;
}

ModelArtifact regression_artifact(std::uint64_t seed = 31) {
  const Table t = make_rows(300, seed);
  const cart::Dataset data(t, "y", {"x", "dc"}, cart::Task::kRegression);
  cart::ForestConfig cfg;
  cfg.num_trees = 6;
  cfg.seed = seed;
  cart::Forest forest = cart::grow_forest(data, cfg);
  ModelMetadata meta;
  meta.name = "svc";
  meta.version = 1;
  meta.task = forest.task();
  meta.schema = forest.trees().front().features();
  meta.oob_error = forest.oob_error();
  return ModelArtifact{std::move(meta),
                       std::make_shared<const cart::Forest>(std::move(forest))};
}

/// Drops the response column so submissions look like real scoring traffic.
Table features_only(const Table& t) {
  Table out;
  out.add_column("x", t.column("x"));
  out.add_column("dc", t.column("dc"));
  return out;
}

TEST(PredictionService, BatchedOutputByteIdenticalToSerialPredict) {
  const ModelArtifact art = regression_artifact();
  // Many small ragged requests from several submitters, so dispatcher groups
  // mix requests from different threads in arbitrary order.
  constexpr std::size_t kSubmitters = 4;
  std::vector<Table> requests;
  for (std::size_t i = 0; i < 24; ++i) {
    requests.push_back(features_only(make_rows(1 + (i * 7) % 23, 100 + i)));
  }

  // Serial reference: one Forest::predict per request, single-threaded.
  util::set_num_threads(1);
  std::vector<std::vector<double>> expected;
  for (const Table& rows : requests) {
    expected.push_back(
        art.forest->predict(make_scoring_dataset(rows, art.meta.schema)));
  }

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    util::set_num_threads(threads);
    PredictionService service(art);
    // Submitter s sends requests s, s + kSubmitters, ... and only then
    // collects them, so each thread has several requests queued at once.
    std::vector<std::vector<double>> got(requests.size());
    std::vector<std::thread> submitters;
    for (std::size_t s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        std::vector<std::pair<std::size_t, std::future<std::vector<double>>>> mine;
        for (std::size_t i = s; i < requests.size(); i += kSubmitters) {
          mine.emplace_back(i, service.submit(requests[i]));
        }
        for (auto& [i, future] : mine) got[i] = future.get();
      });
    }
    for (auto& t : submitters) t.join();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(got[i].size(), expected[i].size()) << "request " << i;
      for (std::size_t r = 0; r < got[i].size(); ++r) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i][r]),
                  std::bit_cast<std::uint64_t>(expected[i][r]))
            << "request " << i << " row " << r << " at " << threads
            << " threads";
      }
    }
  }
  util::clear_thread_override();
}

TEST(PredictionService, ScoreIsSynchronousSubmit) {
  const ModelArtifact art = regression_artifact();
  PredictionService service(art);
  const Table rows = features_only(make_rows(17, 7));
  const std::vector<double> via_score = service.score(rows);
  const std::vector<double> direct =
      art.forest->predict(make_scoring_dataset(rows, art.meta.schema));
  EXPECT_EQ(via_score, direct);
}

TEST(PredictionService, SchemaMismatchThrowsInSubmitterNotQueue) {
  const ModelArtifact art = regression_artifact();
  PredictionService service(art);
  Table bad;
  bad.add_column("x", Column::continuous({1.0}));  // missing "dc"
  EXPECT_THROW((void)service.submit(bad), util::precondition_error);
  EXPECT_EQ(service.stats().requests_admitted, 0u);
  // The service still works after the rejected submissions.
  EXPECT_EQ(service.score(features_only(make_rows(3, 8))).size(), 3u);
}

TEST(PredictionService, ClassificationPredictionsMatchSerial) {
  util::Rng rng(90);
  const std::size_t n = 240;
  std::vector<double> x(n);
  std::vector<std::string> label(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 1.0);
    label[i] = x[i] < 0.5 ? "ok" : "fail";
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("label", Column::nominal(label));
  const cart::Dataset data(t, "label", {"x"}, cart::Task::kClassification);
  cart::ForestConfig cfg;
  cfg.num_trees = 7;
  cart::Forest forest = cart::grow_forest(data, cfg);
  ModelMetadata meta;
  meta.name = "cls";
  meta.task = forest.task();
  meta.schema = forest.trees().front().features();
  meta.class_labels = forest.trees().front().class_labels();
  ModelArtifact art{std::move(meta),
                    std::make_shared<const cart::Forest>(std::move(forest))};

  PredictionService service(art);
  Table rows;
  rows.add_column("x", Column::continuous({0.1, 0.45, 0.55, 0.9}));
  const std::vector<double> got = service.score(rows);
  const std::vector<double> want =
      art.forest->predict(make_scoring_dataset(rows, art.meta.schema));
  EXPECT_EQ(got, want);
  for (const double code : got) {
    ASSERT_GE(code, 0.0);
    ASSERT_LT(code, static_cast<double>(art.meta.class_labels.size()));
  }
}

TEST(PredictionService, LatencyCountersMoveAndSummaryRenders) {
  const ModelArtifact art = regression_artifact();
  PredictionService service(art);
  (void)service.score(features_only(make_rows(10, 44)));
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests_completed, 1u);
  EXPECT_GT(s.total_latency_us, 0u);
  EXPECT_GE(s.max_latency_us, s.total_latency_us / (s.requests_completed + 1));
  EXPECT_GT(s.mean_latency_us(), 0.0);
  const std::string line = s.summary();
  EXPECT_NE(line.find("1 req"), std::string::npos) << line;
  EXPECT_NE(line.find("10 rows"), std::string::npos) << line;
}

TEST(PredictionService, ConcurrentSubmittersAllComplete) {
  const ModelArtifact art = regression_artifact();
  PredictionService service(art);
  std::vector<std::thread> producers;
  std::atomic<std::uint64_t> rows_back{0};
  for (unsigned p = 0; p < 4; ++p) {
    producers.emplace_back([&service, &rows_back, p] {
      for (std::size_t i = 0; i < 12; ++i) {
        const Table rows = features_only(make_rows(3 + (i % 5), 200 + p * 50 + i));
        rows_back += service.score(rows).size();
      }
    });
  }
  for (auto& th : producers) th.join();
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests_admitted, 48u);
  EXPECT_EQ(s.requests_completed, 48u);
  EXPECT_EQ(s.rows_scored, rows_back.load());
}

}  // namespace
}  // namespace rainshine::serve
