// Google-benchmark micro-benchmarks of the library's hot paths: fleet
// simulation, metric extraction, CART fitting, ECDF quantiles. These guard
// against performance regressions; the experiment binaries above reproduce
// the paper's tables and figures.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "rainshine/cart/forest.hpp"
#include "rainshine/cart/prune.hpp"
#include "rainshine/core/observations.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/simdc/tickets.hpp"
#include "rainshine/stats/bootstrap.hpp"
#include "rainshine/stats/ecdf.hpp"
#include "rainshine/util/parallel.hpp"
#include "rainshine/util/rng.hpp"

using namespace rainshine;

namespace {

const simdc::Fleet& small_fleet() {
  static const simdc::Fleet fleet = [] {
    simdc::FleetSpec spec = simdc::FleetSpec::test_default();
    spec.num_days = 120;
    return simdc::Fleet(spec);
  }();
  return fleet;
}

struct SimBundle {
  const simdc::Fleet& fleet = small_fleet();
  simdc::EnvironmentModel env{fleet, 1};
  simdc::HazardModel hazard{fleet, env};
  simdc::TicketLog log = simulate(fleet, env, hazard, {.seed = 1});
  core::FailureMetrics metrics{fleet, log};
};

const SimBundle& bundle() {
  static const SimBundle b;
  return b;
}

void BM_SimulateWindow(benchmark::State& state) {
  const auto& b = bundle();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(b.fleet, b.env, b.hazard, {.seed = 7}));
  }
}
BENCHMARK(BM_SimulateWindow)->Unit(benchmark::kMillisecond);

void BM_EnvironmentDailyMean(benchmark::State& state) {
  const auto& b = bundle();
  const simdc::Rack& rack = b.fleet.racks().front();
  util::DayIndex day = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.env.daily_mean(rack, day));
    day = (day + 1) % b.fleet.spec().num_days;
  }
}
BENCHMARK(BM_EnvironmentDailyMean);

void BM_HazardRackDayRate(benchmark::State& state) {
  const auto& b = bundle();
  const simdc::Rack& rack = b.fleet.racks().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        b.hazard.rack_day_rate(rack, 30, simdc::FaultType::kDiskFailure));
  }
}
BENCHMARK(BM_HazardRackDayRate);

void BM_MuSeriesDaily(benchmark::State& state) {
  const auto& b = bundle();
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.metrics.mu_series(
        0, core::DeviceKind::kServer, core::Granularity::kDaily, true));
  }
}
BENCHMARK(BM_MuSeriesDaily);

void BM_ObservationTable(benchmark::State& state) {
  const auto& b = bundle();
  for (auto _ : state) {
    core::ObservationOptions opt;
    opt.day_stride = 2;
    benchmark::DoNotOptimize(core::rack_day_table(b.metrics, b.env, opt));
  }
}
BENCHMARK(BM_ObservationTable)->Unit(benchmark::kMillisecond);

// ---- Split-search engine sweeps -----------------------------------------
//
// Row-count sweep over synthetic mixed-type data, run through both engines:
// Args are (rows, engine) with engine 0 = presort (default), 1 = exhaustive
// (the seed per-node std::sort reference). The two grow bit-identical trees
// (tests/cart/test_grow_golden.cpp), so the gap is pure split-search cost.
// BENCH_cart.json records the committed baseline.

const cart::Dataset& synthetic_cart_data(std::size_t rows) {
  static std::map<std::size_t, std::pair<table::Table, cart::Dataset>> cache;
  auto it = cache.find(rows);
  if (it == cache.end()) {
    util::Rng rng(rows);
    std::vector<double> x1(rows);
    std::vector<double> x2(rows);
    std::vector<double> y(rows);
    table::Column sku(table::ColumnType::kNominal);
    const char* labels[] = {"a", "b", "c", "d", "e", "f"};
    for (std::size_t i = 0; i < rows; ++i) {
      x1[i] = std::floor(rng.uniform(0.0, 40.0)) / 4.0;  // tied values
      x2[i] = rng.uniform(-5.0, 5.0);
      const std::size_t s = static_cast<std::size_t>(rng.below(6));
      sku.push_nominal(labels[s]);
      y[i] = 2.0 * x1[i] + std::abs(x2[i]) + (s == 3 ? 5.0 : 0.0) +
             rng.uniform(-0.5, 0.5);
    }
    table::Table t;
    t.add_column("x1", table::Column::continuous(std::move(x1)));
    t.add_column("x2", table::Column::continuous(std::move(x2)));
    t.add_column("sku", std::move(sku));
    t.add_column("y", table::Column::continuous(std::move(y)));
    cart::Dataset data(t, "y", {"x1", "x2", "sku"}, cart::Task::kRegression);
    it = cache.emplace(rows, std::make_pair(std::move(t), std::move(data))).first;
  }
  return it->second.second;
}

cart::Config engine_config(std::int64_t engine_arg) {
  cart::Config cfg;
  cfg.cp = 0.0005;
  cfg.min_samples_split = 6;
  cfg.min_samples_leaf = 2;
  cfg.engine = engine_arg == 0 ? cart::SplitEngine::kPresort
                               : cart::SplitEngine::kExhaustive;
  return cfg;
}

void BM_GrowTree(benchmark::State& state) {
  const cart::Dataset& data =
      synthetic_cart_data(static_cast<std::size_t>(state.range(0)));
  const cart::Config cfg = engine_config(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cart::grow(data, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GrowTree)
    ->ArgsProduct({{1024, 4096, 16384}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_SplitSearch(benchmark::State& state) {
  // Root split only (max_depth 0 means the root never splits, so depth 1):
  // isolates one full exhaustive split search over n rows — presort setup +
  // one sweep versus per-feature std::sort + sweep.
  const cart::Dataset& data =
      synthetic_cart_data(static_cast<std::size_t>(state.range(0)));
  cart::Config cfg = engine_config(state.range(1));
  cfg.max_depth = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cart::grow(data, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SplitSearch)
    ->ArgsProduct({{1024, 4096, 16384}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_CartGrow(benchmark::State& state) {
  const auto& b = bundle();
  core::ObservationOptions opt;
  opt.day_stride = 2;
  const table::Table tbl = core::rack_day_table(b.metrics, b.env, opt);
  const cart::Dataset data(tbl, core::col::kLambdaHw,
                           core::static_rack_features(),
                           cart::Task::kRegression);
  cart::Config cfg;
  cfg.cp = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cart::grow(data, cfg));
  }
}
BENCHMARK(BM_CartGrow)->Unit(benchmark::kMillisecond);

// ---- Thread-count sweeps over the parallelized hot paths ----------------
//
// Arg(n) pins the pool to n threads for the benchmark body and restores
// automatic detection afterwards; outputs are bit-identical across the
// sweep (tests/integration/test_determinism.cpp), so these measure pure
// scheduling. BENCH_parallel.json records the committed baseline.

void thread_sweep(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2);
  const auto hw = static_cast<long>(rainshine::util::hardware_threads());
  if (hw > 2) b->Arg(hw);
}

/// Pins the pool width for one benchmark run.
struct ThreadPin {
  explicit ThreadPin(std::int64_t n) {
    util::set_num_threads(static_cast<std::size_t>(n));
  }
  ~ThreadPin() { util::clear_thread_override(); }
};

const cart::Dataset& forest_dataset() {
  static const table::Table tbl = [] {
    const auto& b = bundle();
    core::ObservationOptions opt;
    opt.day_stride = 2;
    return core::rack_day_table(b.metrics, b.env, opt);
  }();
  static const cart::Dataset data(tbl, core::col::kLambdaHw,
                                  core::static_rack_features(),
                                  cart::Task::kRegression);
  return data;
}

void BM_FitForest(benchmark::State& state) {
  const ThreadPin pin(state.range(0));
  const cart::Dataset& data = forest_dataset();
  cart::ForestConfig cfg;
  cfg.num_trees = 24;
  cfg.tree.cp = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cart::grow_forest(data, cfg));
  }
}
BENCHMARK(BM_FitForest)->Apply(thread_sweep)->Unit(benchmark::kMillisecond);

void BM_Bootstrap(benchmark::State& state) {
  const ThreadPin pin(state.range(0));
  util::Rng data_rng(17);
  std::vector<double> sample(2000);
  for (auto& v : sample) v = data_rng.uniform(0.0, 10.0);
  for (auto _ : state) {
    util::Rng rng(29);
    benchmark::DoNotOptimize(stats::bootstrap_mean_ci(sample, rng, 1000));
  }
}
BENCHMARK(BM_Bootstrap)->Apply(thread_sweep)->Unit(benchmark::kMillisecond);

void BM_Simulate(benchmark::State& state) {
  const ThreadPin pin(state.range(0));
  const auto& b = bundle();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(b.fleet, b.env, b.hazard, {.seed = 7}));
  }
}
BENCHMARK(BM_Simulate)->Apply(thread_sweep)->Unit(benchmark::kMillisecond);

// ---- Model artifact store + prediction service --------------------------
//
// Serialization cost scales with node count; scoring cost with batch size.
// BENCH_serve.json records the committed baseline.

const cart::Forest& serve_forest() {
  static const cart::Forest forest = [] {
    cart::ForestConfig cfg;
    cfg.num_trees = 24;
    cfg.tree.cp = 0.001;
    return cart::grow_forest(forest_dataset(), cfg);
  }();
  return forest;
}

void BM_SaveForest(benchmark::State& state) {
  const cart::Forest& forest = serve_forest();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::stringstream buf;
    serve::save_forest(forest, {.name = "bench"}, buf);
    bytes = buf.str().size();
    benchmark::DoNotOptimize(buf);
  }
  state.counters["artifact_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SaveForest)->Unit(benchmark::kMicrosecond);

void BM_LoadForest(benchmark::State& state) {
  const cart::Forest& forest = serve_forest();
  std::stringstream buf;
  serve::save_forest(forest, {.name = "bench"}, buf);
  const std::string bytes = buf.str();
  for (auto _ : state) {
    std::istringstream in(bytes, std::ios::binary);
    benchmark::DoNotOptimize(serve::load_forest(in));
  }
}
BENCHMARK(BM_LoadForest)->Unit(benchmark::kMicrosecond);

// All-numeric sibling of serve_forest(): no categorical splits, so every
// clean block of a batch predict takes the flat kernel's compare-only fast
// path. The serve forest (4 of 7 features nominal) exercises the general
// path instead.
const cart::Forest& numeric_forest() {
  static const cart::Forest forest = [] {
    static const table::Table tbl = [] {
      const auto& b = bundle();
      core::ObservationOptions opt;
      opt.day_stride = 2;
      return core::rack_day_table(b.metrics, b.env, opt);
    }();
    const cart::Dataset data(
        tbl, core::col::kLambdaHw,
        {core::col::kPowerKw, core::col::kAgeMonths, core::col::kCommissionYear},
        cart::Task::kRegression);
    cart::ForestConfig cfg;
    cfg.num_trees = 24;
    cfg.tree.cp = 0.001;
    return cart::grow_forest(data, cfg);
  }();
  return forest;
}

void BM_PredictBatch(benchmark::State& state) {
  // Library-level kernel comparison, no service in the way: 2048 rows
  // straight through one forest. Arguments:
  //   numeric  0 = serve forest (4 of 7 features nominal, general path),
  //            1 = all-numeric forest (compare-only fast path);
  //   shuffled 0 = rack-day rows in table order, so neighbouring rows
  //                share tree paths and the walker's branches predict well,
  //            1 = rows drawn from a seeded shuffle of the whole table, as
  //                mixed serving traffic arrives;
  //   walker   0 = the flat batch scorer, Forest::predict(data),
  //            1 = the per-row pointer walker, Forest::predict(data, r),
  //                fanned over the pool like the batch scorer — the
  //                baseline the flat layout has to beat to stay.
  const cart::Forest& forest =
      state.range(0) != 0 ? numeric_forest() : serve_forest();
  const bool shuffled = state.range(1) != 0;
  const bool walker = state.range(2) != 0;
  const auto& b = bundle();
  core::ObservationOptions opt;
  opt.day_stride = 2;
  const table::Table all_rows = core::rack_day_table(b.metrics, b.env, opt);
  std::vector<std::size_t> order(all_rows.num_rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (shuffled) {
    util::Rng rng(7);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
    }
  }
  std::vector<std::size_t> indices(2048);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = order[i % order.size()];
  }
  const table::Table rows = all_rows.take(indices);
  const cart::Dataset data =
      serve::make_scoring_dataset(rows, forest.trees().front().features());
  std::vector<double> out(data.num_rows());
  for (auto _ : state) {
    if (walker) {
      util::parallel_for(data.num_rows(), 0, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) out[r] = forest.predict(data, r);
      });
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    } else {
      benchmark::DoNotOptimize(forest.predict(data));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2048);
}
BENCHMARK(BM_PredictBatch)
    ->ArgsProduct({{0, 1}, {0, 1}, {0, 1}})
    ->ArgNames({"numeric", "shuffled", "walker"})
    ->Unit(benchmark::kMicrosecond);

// Classification sibling: the single-row path tallies per-class votes,
// which used to allocate a fresh vector per call (now thread_local scratch
// in Forest::predict(data, row)). Workload-from-rack-shape is a contrived
// target, but it makes the vote tally the hot data structure.
const cart::Forest& classification_forest() {
  static const cart::Forest forest = [] {
    const auto& b = bundle();
    core::ObservationOptions opt;
    opt.day_stride = 2;
    const table::Table tbl = core::rack_day_table(b.metrics, b.env, opt);
    const cart::Dataset data(
        tbl, core::col::kWorkload,
        {core::col::kDc, core::col::kPowerKw, core::col::kAgeMonths},
        cart::Task::kClassification);
    cart::ForestConfig cfg;
    cfg.num_trees = 24;
    cfg.tree.cp = 0.001;
    return cart::grow_forest(data, cfg);
  }();
  return forest;
}

void BM_PredictRow(benchmark::State& state) {
  // The single-row path the /score endpoint takes for batch-of-one traffic:
  // one row at a time through Forest::predict(data, row).
  //   0 = regression (serve forest), 1 = classification (vote tally).
  const cart::Forest& forest =
      state.range(0) == 1 ? classification_forest() : serve_forest();
  const auto& b = bundle();
  core::ObservationOptions opt;
  opt.day_stride = 2;
  const table::Table all_rows = core::rack_day_table(b.metrics, b.env, opt);
  std::vector<std::size_t> indices(2048);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i % all_rows.num_rows();
  }
  const table::Table rows = all_rows.take(indices);
  const cart::Dataset data =
      serve::make_scoring_dataset(rows, forest.trees().front().features());
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(data, row));
    row = (row + 1) & 2047;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PredictRow)->Arg(0)->Arg(1)->Unit(benchmark::kNanosecond);

void BM_MakeScoringDataset(benchmark::State& state) {
  // The per-request re-encode (Table -> Dataset against the fitted schema)
  // that sits on the service path ahead of the scorer.
  const cart::Forest& forest = serve_forest();
  const auto& b = bundle();
  core::ObservationOptions opt;
  opt.day_stride = 2;
  const table::Table all_rows = core::rack_day_table(b.metrics, b.env, opt);
  std::vector<std::size_t> indices(2048);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i % all_rows.num_rows();
  }
  const table::Table rows = all_rows.take(indices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::make_scoring_dataset(rows, forest.trees().front().features()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2048);
}
BENCHMARK(BM_MakeScoringDataset)->Unit(benchmark::kMicrosecond);

void BM_ScoreBatch(benchmark::State& state) {
  // Batch-size sweep: rows per request through PredictionService::score,
  // which adds one dispatcher hop to Forest::predict.
  const cart::Forest& forest = serve_forest();
  serve::ModelMetadata meta;
  meta.name = "bench";
  meta.task = forest.task();
  meta.schema = forest.trees().front().features();
  serve::ModelArtifact art{
      meta, std::make_shared<const cart::Forest>(forest)};

  const auto& b = bundle();
  core::ObservationOptions opt;
  opt.day_stride = 2;
  const table::Table all_rows = core::rack_day_table(b.metrics, b.env, opt);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> indices(batch);
  for (std::size_t i = 0; i < batch; ++i) indices[i] = i % all_rows.num_rows();
  const table::Table rows = all_rows.take(indices);

  serve::PredictionService service(art);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.score(rows));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ScoreBatch)->Arg(1)->Arg(16)->Arg(256)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_EcdfQuantile(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<double> sample(static_cast<std::size_t>(state.range(0)));
  for (auto& v : sample) v = rng.uniform();
  const stats::Ecdf ecdf(sample);
  double q = 0.0;
  for (auto _ : state) {
    q += 1e-9;
    if (q > 1.0) q = 0.0;
    benchmark::DoNotOptimize(ecdf.quantile(0.95));
  }
}
BENCHMARK(BM_EcdfQuantile)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
