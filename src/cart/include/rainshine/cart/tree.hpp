// Classification and regression trees (Breiman et al., 1984) — the paper's
// multi-factor analysis engine (§V.C: "we use CART because it is
// non-parametric, captures non-linearities, models both numeric and
// categorical data, and naturally splits a population into groups with
// similar failure properties").
//
// Capabilities mirror what the paper relies on from rpart:
//   * regression (SSE) and classification (Gini) splits,
//   * numeric/ordinal threshold splits and nominal subset splits (via the
//     sort-by-mean optimality trick),
//   * rpart-style complexity stopping (a split must improve the root's
//     relative error by at least `cp`),
//   * cost-complexity (weakest-link) pruning with K-fold cross-validated cp
//     selection (prune.hpp),
//   * variable importance from accumulated split improvements,
//   * leaf grouping — the cluster extraction behind the Q1 provisioning
//     study (each leaf = one rack cluster with homogeneous failure needs).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "rainshine/cart/dataset.hpp"

namespace rainshine::cart {

/// How numeric/ordinal split candidates are enumerated. Both engines share
/// one sweep over one row sequence contract — rows ascending by (value, row
/// id), missing compacted to a tail ascending by row id — so they grow
/// bit-identical trees (asserted by tests/cart/test_grow_golden.cpp).
enum class SplitEngine : std::uint8_t {
  /// Sort each feature's rows once per dataset (grow_forest shares one sort
  /// among all its trees; each tree keeps its bagged rows of it), then
  /// thread the orders down the recursion by stable partitioning (O(d·n)
  /// per level). The default.
  kPresort,
  /// Re-sort the node's rows per feature at every node (O(d·n log n) per
  /// level) — the seed implementation, kept as the golden reference.
  kExhaustive,
};

/// Growth hyper-parameters (defaults follow rpart's).
struct Config {
  std::size_t min_samples_split = 20;  ///< don't split smaller nodes
  std::size_t min_samples_leaf = 7;    ///< children must be at least this big
  std::size_t max_depth = 30;
  /// Complexity parameter: a split must reduce overall relative impurity
  /// (relative to the root) by at least this much.
  double cp = 0.01;
  /// When non-empty, only features whose index is flagged may be used for
  /// splits (random-subspace trees in cart/forest.hpp). Must match the
  /// dataset's feature count.
  std::vector<std::uint8_t> allowed_features;
  SplitEngine engine = SplitEngine::kPresort;
};

inline constexpr std::int32_t kNoChild = -1;

/// One tree node. Leaves have left == kNoChild.
struct Node {
  std::int32_t left = kNoChild;
  std::int32_t right = kNoChild;
  std::int32_t parent = kNoChild;
  std::uint32_t depth = 0;

  // Split definition (internal nodes).
  std::size_t feature = 0;
  bool categorical = false;
  double threshold = 0.0;             ///< numeric: go left iff x < threshold
  std::vector<std::uint8_t> go_left;  ///< categorical: go left iff go_left[code]
  bool missing_goes_left = true;      ///< rows with missing split value

  // Node statistics.
  std::size_t n = 0;
  double prediction = 0.0;            ///< mean (regression) / majority code (classification)
  std::vector<double> class_counts;   ///< classification only
  double impurity = 0.0;              ///< SSE (regression) or n * Gini (classification)
  double improve = 0.0;               ///< impurity decrease achieved by this node's split

  [[nodiscard]] bool is_leaf() const noexcept { return left == kNoChild; }

  friend bool operator==(const Node&, const Node&) = default;
};

/// Per-feature importance (sum of split improvements), normalized to sum 1.
struct Importance {
  std::string feature;
  double importance = 0.0;
};

/// A fitted tree. Immutable once grown (pruning returns a new Tree).
class Tree {
 public:
  Tree(Task task, std::vector<FeatureInfo> features, std::vector<Node> nodes,
       std::vector<std::string> class_labels);

  [[nodiscard]] Task task() const noexcept { return task_; }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] const std::vector<FeatureInfo>& features() const noexcept {
    return features_;
  }
  [[nodiscard]] const std::vector<std::string>& class_labels() const noexcept {
    return class_labels_;
  }

  [[nodiscard]] std::size_t num_leaves() const noexcept;
  [[nodiscard]] std::size_t depth() const noexcept;

  /// Index of the leaf `row` falls into.
  [[nodiscard]] std::size_t leaf_of(const Dataset& data, std::size_t row) const;
  /// Same, but with feature `override_f` forced to `override_x` — the
  /// primitive behind partial dependence.
  [[nodiscard]] std::size_t leaf_of_with_override(const Dataset& data, std::size_t row,
                                                  std::size_t override_f,
                                                  double override_x) const;

  /// Regression: leaf mean. Classification: majority class code.
  [[nodiscard]] double predict(const Dataset& data, std::size_t row) const;
  [[nodiscard]] std::vector<double> predict(const Dataset& data) const;

  /// Training-set relative error: sum of leaf impurities / root impurity.
  [[nodiscard]] double relative_error() const;

  /// Split-improvement variable importance, descending, normalized to sum 1.
  [[nodiscard]] std::vector<Importance> variable_importance() const;

  /// Leaf ids in stable order (left-to-right), for cluster labelling.
  [[nodiscard]] std::vector<std::size_t> leaf_ids() const;

  /// Human-readable rendering with feature names and category labels.
  [[nodiscard]] std::string to_string() const;

  /// Root-to-node split path, e.g. for explaining a cluster
  /// ("dc=DC1 & power>=12 & age<6").
  [[nodiscard]] std::string path_to(std::size_t node_id) const;

  /// Structural equality (task, feature schema, nodes, labels) — the
  /// round-trip contract serve::load_forest(save_forest(f)) asserts against.
  friend bool operator==(const Tree&, const Tree&) = default;

 private:
  Task task_;
  std::vector<FeatureInfo> features_;
  std::vector<Node> nodes_;
  std::vector<std::string> class_labels_;

  void describe(std::ostream& os, std::size_t node_id, int indent) const;
  [[nodiscard]] std::string split_description(const Node& node, bool left_side) const;
};

/// Grows a full tree on `data` under `config` (no pruning beyond the cp
/// stopping rule). Throws on empty data.
[[nodiscard]] Tree grow(const Dataset& data, const Config& config = {});

/// Weighted growth: `row_weights[r]` is row r's multiplicity in the fitting
/// view (0 excludes the row). This is the zero-copy bootstrap primitive —
/// grow_forest passes per-row bag counts over the ORIGINAL dataset instead
/// of materializing a resampled Dataset copy per tree, and cross-validation
/// passes 0/1 fold masks. All node counts, leaf-size floors and impurities
/// treat a weight-w row exactly like w stacked copies. An all-ones weight
/// vector grows a tree bit-identical to the unweighted overload.
[[nodiscard]] Tree grow(const Dataset& data, const Config& config,
                        std::span<const double> row_weights);

}  // namespace rainshine::cart
