// Golden-equality suite for the split-search engines.
//
// The presorted engine (SplitEngine::kPresort, the default) must grow trees
// and forests EXACTLY equal — operator==, i.e. bit-identical node statistics,
// thresholds, improvements and structure — to the exhaustive per-node-sort
// reference (SplitEngine::kExhaustive, the seed implementation). Both engines
// feed one shared sweep the same (value, row id)-ordered row sequence, so any
// divergence is a bug in the order threading, not floating-point noise. A
// forest sorts its rows once and every tree filters its bagged rows out of
// those orders, so the forest cases also pin that filter: feature subspaces,
// partial bags, thread counts, and the all-missing and constant columns.
//
// The weighted half pins the zero-copy bootstrap contract: a weight-w row
// behaves like w stacked copies, all-ones weights are bit-identical to the
// unweighted overload, and zero-weight rows match physically dropped rows.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "rainshine/cart/forest.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::cart {
namespace {

using table::Column;
using table::Table;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Numeric regression rows with heavy value ties (quantized x) so the
/// deterministic tie-break is actually exercised.
Table regression_fixture(std::size_t n, util::Rng& rng, double missing_rate = 0.0) {
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = std::floor(rng.uniform(0.0, 12.0)) / 2.0;  // ties galore
    x2[i] = rng.uniform(-3.0, 3.0);
    y[i] = 2.0 * x1[i] - std::abs(x2[i]) + rng.uniform(-0.4, 0.4);
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) x1[i] = kNaN;
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) x2[i] = kNaN;
  }
  Table t;
  t.add_column("x1", Column::continuous(std::move(x1)));
  t.add_column("x2", Column::continuous(std::move(x2)));
  t.add_column("y", Column::continuous(std::move(y)));
  return t;
}

/// Mixed numeric + categorical rows, optionally with missing cells, for both
/// a regression response ("y") and a nominal response ("label").
Table mixed_fixture(std::size_t n, util::Rng& rng, double missing_rate = 0.0) {
  const char* skus[] = {"sku_a", "sku_b", "sku_c", "sku_d"};
  std::vector<double> temp(n);
  std::vector<double> age(n);
  std::vector<double> y(n);
  Column sku(table::ColumnType::kNominal);
  Column label(table::ColumnType::kNominal);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(rng.below(4));
    temp[i] = std::floor(rng.uniform(15.0, 35.0));
    age[i] = static_cast<double>(rng.below(60));
    y[i] = (s == 2 ? 4.0 : 1.0) + 0.1 * temp[i] + 0.02 * age[i] +
           rng.uniform(-0.3, 0.3);
    sku.push_nominal(skus[s]);
    label.push_nominal(y[i] > 4.0 ? "hot" : "cool");
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) temp[i] = kNaN;
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) {
      age[i] = kNaN;
    }
  }
  Table t;
  t.add_column("temp", Column::continuous(std::move(temp)));
  t.add_column("age", Column::continuous(std::move(age)));
  t.add_column("sku", std::move(sku));
  t.add_column("y", Column::continuous(std::move(y)));
  t.add_column("label", std::move(label));
  return t;
}

/// Appends the filter's two edge cases: a numeric column that is all NaN
/// (every row sits in the missing tail) and a constant one (every row ties,
/// so the order is the row id order).
void add_edge_columns(Table& t) {
  const std::size_t n = t.num_rows();
  t.add_column("blank", Column::continuous(std::vector<double>(n, kNaN)));
  t.add_column("flat", Column::continuous(std::vector<double>(n, 3.0)));
}

/// Restores auto thread resolution when a test exits (success or failure).
struct ThreadGuard {
  ~ThreadGuard() { util::clear_thread_override(); }
};

Config deep_config(SplitEngine engine) {
  Config cfg;
  cfg.cp = 0.0005;
  cfg.min_samples_split = 6;
  cfg.min_samples_leaf = 2;
  cfg.engine = engine;
  return cfg;
}

void expect_engines_agree(const Dataset& data, const Config& base) {
  Config presort = base;
  presort.engine = SplitEngine::kPresort;
  Config exhaustive = base;
  exhaustive.engine = SplitEngine::kExhaustive;
  const Tree a = grow(data, presort);
  const Tree b = grow(data, exhaustive);
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  EXPECT_TRUE(a == b);
}

/// grow_forest on the shared presort against the kExhaustive forest, grown
/// serially, with and without a feature subspace, on full and partial bags,
/// at 1 and 4 threads.
void expect_forest_engines_agree(const Dataset& data, ForestConfig cfg) {
  const ThreadGuard guard;
  for (const std::size_t features : {std::size_t{0}, std::size_t{2}}) {
    for (const double fraction : {1.0, 0.6}) {
      cfg.features_per_tree = features;
      cfg.sample_fraction = fraction;
      cfg.tree.engine = SplitEngine::kExhaustive;
      util::set_num_threads(1);
      const Forest oracle = grow_forest(data, cfg);
      cfg.tree.engine = SplitEngine::kPresort;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        util::set_num_threads(threads);
        EXPECT_TRUE(grow_forest(data, cfg) == oracle)
            << "features_per_tree " << features << ", sample_fraction " << fraction
            << ", threads " << threads;
      }
    }
  }
}

TEST(SplitEngineGolden, RegressionWithTies) {
  util::Rng rng(101);
  const Table t = regression_fixture(600, rng);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  expect_engines_agree(data, deep_config(SplitEngine::kPresort));
}

TEST(SplitEngineGolden, RegressionWithMissingValues) {
  util::Rng rng(102);
  const Table t = regression_fixture(600, rng, 0.15);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  expect_engines_agree(data, deep_config(SplitEngine::kPresort));
}

TEST(SplitEngineGolden, ClassificationMixedFeatures) {
  util::Rng rng(103);
  const Table t = mixed_fixture(700, rng);
  const Dataset data(t, "label", {"temp", "age", "sku"}, Task::kClassification);
  expect_engines_agree(data, deep_config(SplitEngine::kPresort));
}

TEST(SplitEngineGolden, CategoricalRegressionWithMissing) {
  util::Rng rng(104);
  const Table t = mixed_fixture(700, rng, 0.12);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  expect_engines_agree(data, deep_config(SplitEngine::kPresort));
}

TEST(SplitEngineGolden, DefaultConfigShallowTrees) {
  util::Rng rng(105);
  const Table t = mixed_fixture(400, rng, 0.05);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  expect_engines_agree(data, Config{});
}

TEST(SplitEngineGolden, ForestsAreBitIdenticalAcrossEngines) {
  util::Rng rng(106);
  const Table t = mixed_fixture(500, rng, 0.08);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  ForestConfig presort;
  presort.num_trees = 12;
  presort.features_per_tree = 2;
  presort.tree.cp = 0.001;
  ForestConfig exhaustive = presort;
  presort.tree.engine = SplitEngine::kPresort;
  exhaustive.tree.engine = SplitEngine::kExhaustive;
  const Forest a = grow_forest(data, presort);
  const Forest b = grow_forest(data, exhaustive);
  EXPECT_TRUE(a == b);  // trees, task and oob error, all bit-compared
}

TEST(SplitEngineGolden, ClassificationForestAcrossEngines) {
  util::Rng rng(107);
  const Table t = mixed_fixture(500, rng);
  const Dataset data(t, "label", {"temp", "age", "sku"}, Task::kClassification);
  ForestConfig presort;
  presort.num_trees = 8;
  presort.tree.engine = SplitEngine::kPresort;
  ForestConfig exhaustive = presort;
  exhaustive.tree.engine = SplitEngine::kExhaustive;
  EXPECT_TRUE(grow_forest(data, presort) == grow_forest(data, exhaustive));
}

TEST(SplitEngineGolden, SharedPresortRegressionForest) {
  util::Rng rng(108);
  Table t = regression_fixture(600, rng, 0.12);
  add_edge_columns(t);
  const Dataset data(t, "y", {"x1", "blank", "x2", "flat"}, Task::kRegression);
  ForestConfig cfg;
  cfg.num_trees = 8;
  cfg.tree = deep_config(SplitEngine::kPresort);
  expect_forest_engines_agree(data, cfg);
}

TEST(SplitEngineGolden, SharedPresortClassificationForest) {
  util::Rng rng(109);
  Table t = mixed_fixture(600, rng, 0.1);
  add_edge_columns(t);
  const Dataset data(t, "label", {"temp", "flat", "age", "sku", "blank"},
                     Task::kClassification);
  ForestConfig cfg;
  cfg.num_trees = 8;
  cfg.tree = deep_config(SplitEngine::kPresort);
  expect_forest_engines_agree(data, cfg);
}

// ---- Weighted (bootstrap-multiplicity) view -----------------------------

TEST(WeightedGrow, AllOnesIsBitIdenticalToUnweighted) {
  util::Rng rng(201);
  const Table t = regression_fixture(400, rng, 0.1);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  const Config cfg = deep_config(SplitEngine::kPresort);
  const std::vector<double> ones(data.num_rows(), 1.0);
  EXPECT_TRUE(grow(data, cfg) == grow(data, cfg, ones));
}

TEST(WeightedGrow, ZeroWeightRowsMatchDroppedRows) {
  util::Rng rng(202);
  const Table t = regression_fixture(300, rng);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  // Keep every third row out of the fitting view.
  std::vector<double> weights(data.num_rows(), 1.0);
  std::vector<std::size_t> kept;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    if (r % 3 == 0) {
      weights[r] = 0.0;
    } else {
      kept.push_back(r);
    }
  }
  const Config cfg = deep_config(SplitEngine::kPresort);
  const Tree masked = grow(data, cfg, weights);
  const Tree dropped = grow(data.subset(kept), cfg);
  // Same (y, w) sequences node for node => exactly the same tree.
  EXPECT_TRUE(masked == dropped);
}

TEST(WeightedGrow, MultiplicityMatchesStackedCopies) {
  // A weight-w row must act like w stacked copies in every count and every
  // split decision. Counts are exact; predictions/impurities may differ in
  // accumulation order (w*y versus y+y+y), hence the near-comparison there.
  util::Rng rng(203);
  const Table t = regression_fixture(250, rng);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  std::vector<double> weights(data.num_rows());
  std::vector<std::size_t> expanded;
  double total = 0.0;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    weights[r] = static_cast<double>(r % 4);  // 0,1,2,3,0,...
    total += weights[r];
    for (std::size_t c = 0; c < r % 4; ++c) expanded.push_back(r);
  }
  // Default (moderate) depth: the comparison crosses accumulation orders, so
  // keep the fit away from noise-level splits where last-ulp differences in
  // `improve` could legitimately pick a different tie winner.
  const Config cfg;
  const Tree weighted = grow(data, cfg, weights);
  const Tree stacked = grow(data.subset(expanded), cfg);

  ASSERT_EQ(weighted.nodes().size(), stacked.nodes().size());
  EXPECT_EQ(weighted.nodes().front().n, static_cast<std::size_t>(total));
  for (std::size_t i = 0; i < weighted.nodes().size(); ++i) {
    const Node& a = weighted.nodes()[i];
    const Node& b = stacked.nodes()[i];
    EXPECT_EQ(a.left, b.left) << "node " << i;
    EXPECT_EQ(a.right, b.right) << "node " << i;
    EXPECT_EQ(a.feature, b.feature) << "node " << i;
    EXPECT_EQ(a.categorical, b.categorical) << "node " << i;
    EXPECT_DOUBLE_EQ(a.threshold, b.threshold) << "node " << i;
    EXPECT_EQ(a.n, b.n) << "node " << i;
    EXPECT_EQ(a.missing_goes_left, b.missing_goes_left) << "node " << i;
    EXPECT_NEAR(a.prediction, b.prediction, 1e-9 * (1.0 + std::abs(b.prediction)))
        << "node " << i;
  }
}

TEST(WeightedGrow, WeightedEnginesAgree) {
  // Bootstrap-like integer multiplicities through BOTH engines.
  util::Rng rng(204);
  const Table t = mixed_fixture(500, rng, 0.1);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  std::vector<double> weights(data.num_rows(), 0.0);
  util::Rng draw(7);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    weights[static_cast<std::size_t>(draw.below(data.num_rows()))] += 1.0;
  }
  Config presort = deep_config(SplitEngine::kPresort);
  Config exhaustive = deep_config(SplitEngine::kExhaustive);
  EXPECT_TRUE(grow(data, presort, weights) == grow(data, exhaustive, weights));
}

TEST(WeightedGrow, ValidatesWeights) {
  util::Rng rng(205);
  const Table t = regression_fixture(50, rng);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  const Config cfg;
  const std::vector<double> short_w(10, 1.0);
  EXPECT_THROW(grow(data, cfg, short_w), util::precondition_error);
  std::vector<double> negative(data.num_rows(), 1.0);
  negative[3] = -1.0;
  EXPECT_THROW(grow(data, cfg, negative), util::precondition_error);
  std::vector<double> nan_w(data.num_rows(), 1.0);
  nan_w[3] = kNaN;
  EXPECT_THROW(grow(data, cfg, nan_w), util::precondition_error);
  const std::vector<double> zeros(data.num_rows(), 0.0);
  EXPECT_THROW(grow(data, cfg, zeros), util::precondition_error);
}

}  // namespace
}  // namespace rainshine::cart
