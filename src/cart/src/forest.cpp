#include "rainshine/cart/forest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "presort.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"

namespace rainshine::cart {

Forest::Forest(Task task, std::vector<Tree> trees, double oob_error)
    : task_(task), trees_(std::move(trees)), oob_error_(oob_error) {
  util::require(!trees_.empty(), "Forest needs at least one tree");
  if (task_ == Task::kClassification) {
    num_classes_ = trees_.front().class_labels().size();
    // Defensive: a label-less classification tree still predicts codes, so
    // size the tally from the leaves instead of leaving it empty.
    for (const Tree& tree : trees_) {
      for (const Node& node : tree.nodes()) {
        if (node.is_leaf()) {
          num_classes_ = std::max(
              num_classes_, static_cast<std::size_t>(node.prediction) + 1);
        }
      }
    }
  }
  flat_ = FlatForest::compile(task_, trees_, num_classes_);
}

double Forest::predict(const Dataset& data, std::size_t row) const {
  if (task_ == Task::kRegression) {
    double sum = 0.0;
    for (const Tree& tree : trees_) sum += tree.predict(data, row);
    return sum / static_cast<double>(trees_.size());
  }
  // Flat tally indexed by class code, thread_local so the single-row path
  // allocates nothing after its first call on a thread (a std::map here
  // allocated a tree node per class on every prediction).
  thread_local std::vector<int> votes;
  votes.assign(num_classes_, 0);
  for (const Tree& tree : trees_) {
    ++votes[static_cast<std::size_t>(tree.predict(data, row))];
  }
  std::size_t best = 0;
  for (std::size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[best]) best = c;
  }
  return static_cast<double>(best);
}

std::vector<double> Forest::predict(const Dataset& data) const {
  return flat_.predict(data);
}

std::vector<Importance> Forest::variable_importance() const {
  std::map<std::string, double> sums;
  for (const Tree& tree : trees_) {
    for (const Importance& imp : tree.variable_importance()) {
      sums[imp.feature] += imp.importance;
    }
  }
  double total = 0.0;
  for (const auto& [name, value] : sums) total += value;
  std::vector<Importance> out;
  for (const auto& [name, value] : sums) {
    out.push_back({name, total > 0.0 ? value / total : 0.0});
  }
  std::sort(out.begin(), out.end(), [](const Importance& a, const Importance& b) {
    return a.importance > b.importance;
  });
  return out;
}

std::vector<PdPoint> Forest::partial_dependence(const Dataset& data,
                                                std::string_view feature,
                                                std::size_t grid_size,
                                                std::size_t max_background_rows) const {
  // Per-tree curves are independent; compute them on the pool, then average
  // point-wise serially in tree order so the floating-point accumulation is
  // bit-identical to a serial run. Every tree shares feature metadata, so
  // grids align exactly (the grid depends only on `data`).
  const auto curves = util::parallel_map(trees_.size(), [&](std::size_t t) {
    return cart::partial_dependence(trees_[t], data, feature, grid_size,
                                    max_background_rows);
  });
  std::vector<PdPoint> acc = curves.front();
  for (std::size_t t = 1; t < curves.size(); ++t) {
    util::ensure(curves[t].size() == acc.size(), "partial-dependence grid mismatch");
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i].yhat += curves[t][i].yhat;
  }
  for (PdPoint& p : acc) p.yhat /= static_cast<double>(trees_.size());
  return acc;
}

namespace {

/// Everything one tree contributes: the tree itself plus its predictions on
/// the rows it did NOT train on, kept per tree so the out-of-bag merge can
/// run serially in tree order after the parallel fit.
struct TreeFit {
  Tree tree;
  std::vector<std::pair<std::size_t, double>> oob;  ///< (row, prediction)
};

TreeFit fit_one_tree(const Dataset& data, const ForestConfig& config,
                     const RowOrders& orders, const util::Rng& root, std::size_t t,
                     std::size_t sample_size) {
  const std::size_t n = data.num_rows();
  util::Rng rng = root.split(t);

  // Bootstrap multiplicities over the ORIGINAL dataset — the zero-copy view
  // grow() consumes directly, so a B-tree forest touches one column-major
  // snapshot instead of B+1 (a weight-w row fits exactly like w stacked
  // copies; weight 0 marks the row out of bag).
  std::vector<double> bag_weight(n, 0.0);
  for (std::size_t i = 0; i < sample_size; ++i) {
    bag_weight[static_cast<std::size_t>(rng.below(n))] += 1.0;
  }

  // Random feature subspace.
  Config tree_cfg = config.tree;
  if (config.features_per_tree > 0 &&
      config.features_per_tree < data.num_features()) {
    std::vector<std::size_t> order(data.num_features());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.below(i));
      std::swap(order[i - 1], order[j]);
    }
    tree_cfg.allowed_features.assign(data.num_features(), 0);
    for (std::size_t k = 0; k < config.features_per_tree; ++k) {
      tree_cfg.allowed_features[order[k]] = 1;
    }
  }

  TreeFit fit{grow(data, tree_cfg, bag_weight, orders), {}};

  // OOB predictions against the ORIGINAL dataset.
  for (std::size_t r = 0; r < n; ++r) {
    if (bag_weight[r] == 0.0) fit.oob.emplace_back(r, fit.tree.predict(data, r));
  }
  return fit;
}

}  // namespace

Forest grow_forest(const Dataset& data, const ForestConfig& config) {
  util::require(config.num_trees >= 1, "forest needs at least one tree");
  util::require(config.sample_fraction > 0.0 && config.sample_fraction <= 1.0,
                "sample_fraction must be in (0, 1]");
  const std::size_t n = data.num_rows();
  util::require(n > 0, "cannot grow a forest on empty data");
  const auto sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.sample_fraction * static_cast<double>(n)));

  // Every tree bags rows of the same dataset, so one sort of all rows per
  // feature serves them all: each tree keeps its bagged rows of it.
  const RowOrders orders = presort_rows(data, config.tree.engine);

  // Each tree's RNG derives from (seed, tree_index) alone, so the fits are
  // independent of scheduling; one tree per parallel unit.
  const util::Rng root = util::Rng(config.seed).split("forest");
  auto fits = util::parallel_map(config.num_trees, [&](std::size_t t) {
    return fit_one_tree(data, config, orders, root, t, sample_size);
  });

  // Out-of-bag accumulation, serially in tree order: per row, sum of
  // predictions (regression) or votes (classification) from trees that did
  // not train on it. Tree-order accumulation keeps the floating-point sums
  // bit-identical to a serial fit.
  std::vector<double> oob_sum(n, 0.0);
  std::vector<int> oob_count(n, 0);
  // Flat n x num_classes tally indexed by class code (a per-row std::map
  // allocated a tree node per distinct vote; same fix as the single-row
  // Forest::predict).
  const std::size_t num_classes =
      data.task() == Task::kClassification ? data.num_classes() : 0;
  std::vector<int> oob_votes(n * num_classes, 0);
  std::vector<Tree> trees;
  trees.reserve(config.num_trees);
  for (TreeFit& fit : fits) {
    for (const auto& [r, pred] : fit.oob) {
      ++oob_count[r];
      if (data.task() == Task::kRegression) {
        oob_sum[r] += pred;
      } else {
        ++oob_votes[r * num_classes + static_cast<std::size_t>(pred)];
      }
    }
    trees.push_back(std::move(fit.tree));
  }

  // Aggregate OOB error.
  double err = 0.0;
  std::size_t covered = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (oob_count[r] == 0) continue;
    ++covered;
    if (data.task() == Task::kRegression) {
      const double d = data.y(r) - oob_sum[r] / oob_count[r];
      err += d * d;
    } else {
      // Strict > keeps the lowest class code on ties, as the ordered-map
      // scan did.
      std::size_t best = 0;
      int best_votes = -1;
      for (std::size_t c = 0; c < num_classes; ++c) {
        const int count = oob_votes[r * num_classes + c];
        if (count > best_votes) {
          best = c;
          best_votes = count;
        }
      }
      err += static_cast<double>(best) == data.y(r) ? 0.0 : 1.0;
    }
  }
  const double oob = covered > 0
                         ? err / static_cast<double>(covered)
                         : std::numeric_limits<double>::quiet_NaN();
  return Forest(data.task(), std::move(trees), oob);
}

}  // namespace rainshine::cart
