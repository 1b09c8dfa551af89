// Output digests: pins what the pipeline writes across commits, where the
// determinism suite only pins it across thread counts.
//
// Each test grows a forest, serializes it with serve::save_forest and
// compares an FNV-1a digest of the bytes with a constant. A change that
// means to move an output updates the constant and says which output moved
// and why; a change that does not mean to gets a failing test.
//
// The fixtures are built from util::Rng, std::floor and arithmetic only (no
// libm transcendental), so the bytes depend on IEEE arithmetic alone and
// the digests are as portable across compilers and C libraries as the
// committed tests/data/golden_v1.rsf.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "rainshine/cart/forest.hpp"
#include "rainshine/serve/artifact.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine {
namespace {

using table::Column;
using table::Table;

/// Mixed rows with value ties (floored temperatures, integer ages), about
/// 10% missing load cells, a nominal SKU, a numeric response "y" and a
/// three-class response "band" cut from it.
Table digest_fixture(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const char* skus[] = {"sku_a", "sku_b", "sku_c", "sku_d"};
  const char* bands[] = {"low", "mid", "high"};
  std::vector<double> temp(n);
  std::vector<double> load(n);
  std::vector<std::int32_t> age(n);
  std::vector<double> y(n);
  std::vector<std::string> sku(n);
  std::vector<std::string> band(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(rng.below(4));
    temp[i] = std::floor(rng.uniform(15.0, 35.0));
    load[i] = rng.uniform(0.0, 1.0);
    age[i] = static_cast<std::int32_t>(rng.below(60));
    y[i] = (s == 2 ? 3.0 : 1.0) + 0.1 * temp[i] + 0.02 * age[i] + 1.5 * load[i] +
           rng.uniform(-0.3, 0.3);
    sku[i] = skus[s];
    band[i] = bands[y[i] < 4.2 ? 0 : (y[i] < 5.0 ? 1 : 2)];
    if (rng.uniform() < 0.1) load[i] = std::numeric_limits<double>::quiet_NaN();
  }
  Table t;
  t.add_column("temp", Column::continuous(std::move(temp)));
  t.add_column("load", Column::continuous(std::move(load)));
  t.add_column("age", Column::ordinal(std::move(age)));
  t.add_column("sku", Column::nominal(sku));
  t.add_column("y", Column::continuous(std::move(y)));
  t.add_column("band", Column::nominal(band));
  return t;
}

/// FNV-1a digest of the .rsf bytes of a 16-tree forest grown on the
/// fixture, with `features_per_tree` features drawn per tree (0 = all).
std::uint64_t forest_digest(const std::string& response, cart::Task task,
                            std::size_t features_per_tree) {
  const Table t = digest_fixture(1200, 2217);
  const cart::Dataset data(t, response, {"temp", "load", "age", "sku"}, task);
  cart::ForestConfig cfg;
  cfg.num_trees = 16;
  cfg.features_per_tree = features_per_tree;
  cfg.tree.cp = 0.001;
  cfg.seed = 41;
  const cart::Forest forest = cart::grow_forest(data, cfg);
  std::ostringstream bytes;
  serve::save_forest(forest, {.name = "digest", .version = 1, .config = cfg}, bytes);
  return util::fnv1a(bytes.str());
}

std::string hex(std::uint64_t digest) {
  std::ostringstream out;
  out << "0x" << std::hex << digest;
  return out.str();
}

TEST(OutputDigest, RegressionForest) {
  EXPECT_EQ(hex(forest_digest("y", cart::Task::kRegression, 0)), "0x62cd23a012e74950");
}

TEST(OutputDigest, RegressionForestWithFeatureSubspace) {
  EXPECT_EQ(hex(forest_digest("y", cart::Task::kRegression, 2)), "0x810265469a4dfd1a");
}

TEST(OutputDigest, ClassificationForest) {
  EXPECT_EQ(hex(forest_digest("band", cart::Task::kClassification, 0)), "0xb1cbe596e7bfd201");
}

TEST(OutputDigest, ClassificationForestWithFeatureSubspace) {
  EXPECT_EQ(hex(forest_digest("band", cart::Task::kClassification, 2)), "0x3d1778c9022cd095");
}

}  // namespace
}  // namespace rainshine
