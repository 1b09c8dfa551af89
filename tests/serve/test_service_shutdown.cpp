// Shutdown pinning for PredictionService: every request submitted before
// destruction is scored by the drain — never abandoned with
// std::future_error/broken_promise — and the obs::registry() "serve.*"
// metrics a service publishes stay cross-metric consistent after every
// future resolves. Runs under scripts/check.sh --tsan.
#include "rainshine/serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "rainshine/cart/forest.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/table/table.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::serve {
namespace {

using table::Column;
using table::Table;

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

ModelArtifact tiny_artifact(std::uint64_t seed = 19) {
  const Table t = make_rows(120, seed);
  const cart::Dataset data(t, "y", {"x"}, cart::Task::kRegression);
  cart::ForestConfig cfg;
  cfg.num_trees = 2;
  cfg.seed = seed;
  cart::Forest forest = cart::grow_forest(data, cfg);
  ModelMetadata meta;
  meta.name = "shutdown";
  meta.version = 1;
  meta.task = forest.task();
  meta.schema = forest.trees().front().features();
  return ModelArtifact{std::move(meta),
                       std::make_shared<const cart::Forest>(std::move(forest))};
}

Table features_only(std::size_t n, std::uint64_t seed) {
  Table full = make_rows(n, seed);
  Table out;
  out.add_column("x", full.column("x"));
  return out;
}

TEST(PredictionServiceShutdown, DestructorDrainsAdmittedRequests) {
  // Requests still queued when the service dies must be scored by the
  // destructor's drain.
  std::vector<std::future<std::vector<double>>> futures;
  {
    PredictionService service(tiny_artifact());
    for (std::size_t i = 0; i < 6; ++i) {
      futures.push_back(service.submit(features_only(5, 300 + i)));
    }
  }
  for (auto& f : futures) {
    ASSERT_TRUE(f.valid());
    EXPECT_EQ(f.get().size(), 5U);  // drained, not abandoned
  }
}

TEST(PredictionServiceShutdown, RepeatedShutdownRacesAbandonNothing) {
  // Several producers submit, then the service is destroyed at once, many
  // times over: the destructor lands before the dispatcher wakes, mid-group
  // or between groups, and every future must still resolve with a result.
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 3;
  const ModelArtifact art = tiny_artifact();
  for (int iter = 0; iter < 15; ++iter) {
    const auto round = static_cast<std::uint64_t>(iter);
    std::vector<std::future<std::vector<double>>> futures(kProducers *
                                                          kPerProducer);
    {
      PredictionService service(art);
      std::vector<std::thread> producers;
      for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&service, &futures, p, round] {
          for (std::size_t k = 0; k < kPerProducer; ++k) {
            futures[p * kPerProducer + k] = service.submit(
                features_only(6, 700 + round * 100 + p * 10 + k));
          }
        });
      }
      // submit() must not race the destructor; the dispatcher may.
      for (auto& t : producers) t.join();
    }
    for (auto& f : futures) {
      ASSERT_TRUE(f.valid());
      try {
        EXPECT_EQ(f.get().size(), 6U);
      } catch (const std::future_error& e) {
        FAIL() << "request abandoned with future_error: " << e.what();
      }
    }
  }
}

TEST(PredictionServiceShutdown, ObsMetricsConsistentAfterConcurrentTraffic) {
  // The instrumentation acceptance criterion: after every future resolves,
  // the process-wide snapshot satisfies latency-histogram count ==
  // serve.requests_completed and serve.rows_scored == rows submitted, even
  // though ticks came from the dispatcher under concurrency.
  obs::registry().reset();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequestsPerThread = 12;
  constexpr std::size_t kRowsPerRequest = 5;
  {
    PredictionService service(tiny_artifact());
    std::vector<std::thread> clients;
    std::atomic<std::size_t> resolved{0};
    for (std::size_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
          auto fut = service.submit(
              features_only(kRowsPerRequest, 1000 + t * 100 + r));
          if (fut.get().size() == kRowsPerRequest) {
            resolved.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(resolved.load(), kThreads * kRequestsPerThread);
  }

  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const std::uint64_t completed = snap.counter("serve.requests_completed");
  EXPECT_EQ(completed, kThreads * kRequestsPerThread);
  EXPECT_EQ(snap.counter("serve.requests_admitted"), completed);
  EXPECT_EQ(snap.counter("serve.rows_scored"),
            kThreads * kRequestsPerThread * kRowsPerRequest);
  EXPECT_EQ(snap.counter("serve.requests_failed"), 0U);

  const obs::HistogramSnapshot& latency = snap.histogram("serve.latency_us");
  EXPECT_EQ(latency.count, completed);
  std::uint64_t bucket_total = 0;
  for (const auto c : latency.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, latency.count);

  const obs::HistogramSnapshot& batches = snap.histogram("serve.batch_rows");
  EXPECT_EQ(batches.count, snap.counter("serve.batches_flushed"));
  EXPECT_DOUBLE_EQ(
      batches.sum,
      static_cast<double>(kThreads * kRequestsPerThread * kRowsPerRequest));
}

}  // namespace
}  // namespace rainshine::serve
