// Tree growth: recursive partitioning over a weighted row view.
//
// Two split-search engines share one arithmetic contract (see DESIGN.md §6d):
//
//   * kPresort (default): each numeric feature is sorted ONCE per dataset by
//     presort_rows — rows ascending by (value, row id), missing compacted to
//     an ascending tail — and grow_forest shares those orders with all of its
//     trees. Each tree keeps, in sequence, the rows it bagged, then threads
//     its orders down the recursion by stable partitioning, so every node's
//     split search is a single linear sweep. O(d·n) per tree level; a tree
//     sorts nothing.
//   * kExhaustive: the seed implementation — re-sort the node's rows per
//     feature at every node. O(d·n log n) per level. Kept as the golden
//     reference; tests/cart/test_grow_golden.cpp asserts both engines grow
//     bit-identical trees.
//
// Bit-identity holds because both engines feed the SAME sweep the SAME row
// sequence: the presorted tie-break is (value, row id), and dropping the
// rows a tree did not bag and stable partition both preserve it, while the
// exhaustive comparator sorts by (value, row id) directly — a deterministic
// total order, so the sequences agree element for element and every
// floating-point accumulation happens in the same order.
//
// Rows carry multiplicity weights (empty = all ones): grow_forest fits each
// bootstrap tree through per-row bag counts over the original dataset
// instead of materializing a resampled Dataset copy, and cross-validation
// passes 0/1 fold masks. A weight-w row behaves exactly like w stacked
// copies in every count, leaf floor and impurity.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "presort.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/obs/trace.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"

namespace rainshine::cart {

namespace {

/// Sufficient statistics for impurity on one side of a candidate split.
struct RegStats {
  double n = 0.0;
  double sum = 0.0;
  double sumsq = 0.0;

  void add(double y, double wt) {
    const double wy = wt * y;
    n += wt;
    sum += wy;
    sumsq += wy * y;
  }
  void remove(double y, double wt) {
    const double wy = wt * y;
    n -= wt;
    sum -= wy;
    sumsq -= wy * y;
  }
  void merge(const RegStats& o) {
    n += o.n;
    sum += o.sum;
    sumsq += o.sumsq;
  }
  void unmerge(const RegStats& o) {
    n -= o.n;
    sum -= o.sum;
    sumsq -= o.sumsq;
  }
  [[nodiscard]] double impurity() const {
    return n > 0.0 ? std::max(0.0, sumsq - sum * sum / n) : 0.0;
  }
  [[nodiscard]] double mean() const { return n > 0.0 ? sum / n : 0.0; }
};

struct ClassStats {
  std::vector<double> counts;
  double n = 0.0;

  explicit ClassStats(std::size_t k) : counts(k, 0.0) {}
  void add(double code, double wt) {
    counts[static_cast<std::size_t>(code)] += wt;
    n += wt;
  }
  void remove(double code, double wt) {
    counts[static_cast<std::size_t>(code)] -= wt;
    n -= wt;
  }
  void merge(const ClassStats& o) {
    for (std::size_t j = 0; j < counts.size(); ++j) counts[j] += o.counts[j];
    n += o.n;
  }
  void unmerge(const ClassStats& o) {
    for (std::size_t j = 0; j < counts.size(); ++j) counts[j] -= o.counts[j];
    n -= o.n;
  }
  /// n * Gini = n - sum c_k^2 / n.
  [[nodiscard]] double impurity() const {
    if (n <= 0.0) return 0.0;
    double sq = 0.0;
    for (const double c : counts) sq += c * c;
    return std::max(0.0, n - sq / n);
  }
};

/// Deterministic total order shared by both engines: present rows by
/// (value, row id), then missing rows by row id.
struct OrderCmp {
  const Dataset* data;
  std::size_t f;
  bool operator()(std::uint32_t a, std::uint32_t b) const {
    const double xa = data->x(a, f);
    const double xb = data->x(b, f);
    const bool ma = std::isnan(xa);
    const bool mb = std::isnan(xb);
    if (ma != mb) return mb;
    if (!ma && xa != xb) return xa < xb;
    return a < b;
  }
};

struct BestSplit {
  bool found = false;
  std::size_t feature = 0;
  bool categorical = false;
  double threshold = 0.0;
  std::vector<std::uint8_t> go_left;
  double improve = 0.0;
};

class Builder {
 public:
  Builder(const Dataset& data, const Config& cfg, std::span<const double> weights,
          const RowOrders& sorted)
      : data_(data),
        cfg_(cfg),
        weights_(weights),
        sorted_(sorted),
        min_leaf_(static_cast<double>(cfg.min_samples_leaf)),
        presort_(cfg.engine == SplitEngine::kPresort) {}

  Tree build() {
    const obs::ScopedSpan span("cart.grow");
    const std::size_t n = data_.num_rows();
    rows_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      if (w(static_cast<std::uint32_t>(r)) > 0.0) {
        rows_.push_back(static_cast<std::uint32_t>(r));
      }
    }
    util::require(!rows_.empty(), "grow: every row weight is zero");

    if (presort_) {
      // side_ doubles as the in-bag mask here: partition() rewrites it for
      // every row of a node before it reads it.
      side_.assign(n, 0);
      for (const std::uint32_t r : rows_) side_[r] = 1;
      order_.resize(data_.num_features());
      for (std::size_t f = 0; f < data_.num_features(); ++f) {
        if (data_.info(f).categorical || !allowed(f)) continue;
        util::ensure(f < sorted_.size() && sorted_[f].size() == n,
                     "grow: no presorted order for a numeric feature");
        // Branch-free filter: write every row, advance past the bagged ones.
        auto& ord = order_[f];
        ord.resize(rows_.size() + 1);
        std::size_t kept = 0;
        for (const std::uint32_t r : sorted_[f]) {
          ord[kept] = r;
          kept += side_[r];
        }
        ord.resize(kept);
      }
    }

    if (data_.task() == Task::kRegression) {
      grow_node<RegStats>(0, rows_.size(), 0, kNoChild);
    } else {
      grow_node<ClassStats>(0, rows_.size(), 0, kNoChild);
    }
    // Split search is interleaved with recursion, so per-node clock deltas
    // accumulate in split_search_ns_ and publish once per tree here.
    obs::registry()
        .histogram("cart.split_search_us")
        .observe(static_cast<double>(split_search_ns_) * 1e-3);
    obs::registry().counter("cart.trees_grown").add();
    std::vector<std::string> class_labels =
        data_.task() == Task::kClassification ? data_.class_labels()
                                              : std::vector<std::string>{};
    return Tree(data_.task(), data_.infos(), std::move(nodes_),
                std::move(class_labels));
  }

 private:
  const Dataset& data_;
  const Config& cfg_;
  std::span<const double> weights_;
  const RowOrders& sorted_;  ///< every row, per numeric feature (presort_rows)
  double min_leaf_;
  bool presort_;
  std::vector<Node> nodes_;
  double root_impurity_ = 0.0;
  std::int64_t split_search_ns_ = 0;  ///< summed over nodes, published per tree

  /// Active rows (weight > 0), recursed over as [begin, end) segments and
  /// partitioned in place at each split: non-missing rows first, in parent
  /// order, then the missing-value rows routed to this child.
  std::vector<std::uint32_t> rows_;
  /// kPresort: per numeric feature, the active rows of sorted_ in sequence
  /// (ascending by (value, row id), missing compacted to an ascending tail);
  /// segments track rows_ and are stably partitioned alongside it.
  std::vector<std::vector<std::uint32_t>> order_;
  std::vector<std::uint8_t> side_;  ///< by dataset row: 1 = routed left

  // Partition / per-node scratch, reused across nodes (never live across a
  // recursive call).
  std::vector<std::uint32_t> left_buf_;
  std::vector<std::uint32_t> right_buf_;
  std::vector<std::uint32_t> miss_buf_;
  std::vector<std::uint32_t> ord_left_present_;
  std::vector<std::uint32_t> ord_left_missing_;
  std::vector<std::uint32_t> ord_right_present_;
  std::vector<std::uint32_t> ord_right_missing_;
  std::vector<std::uint32_t> sort_buf_;  ///< kExhaustive per-node order

  [[nodiscard]] double w(std::uint32_t r) const {
    return weights_.empty() ? 1.0 : weights_[r];
  }
  [[nodiscard]] bool allowed(std::size_t f) const {
    return cfg_.allowed_features.empty() || cfg_.allowed_features[f] != 0;
  }

  template <typename S>
  [[nodiscard]] S make_stats() const {
    if constexpr (std::is_same_v<S, ClassStats>) {
      return ClassStats(data_.num_classes());
    } else {
      return RegStats{};
    }
  }

  template <typename S>
  [[nodiscard]] S node_stats(std::size_t begin, std::size_t end) const {
    S s = make_stats<S>();
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = rows_[i];
      s.add(data_.y(r), w(r));
    }
    return s;
  }

  void fill_node(Node& node, const RegStats& s) const {
    node.n = static_cast<std::size_t>(std::llround(s.n));
    node.prediction = s.mean();
    node.impurity = s.impurity();
  }
  void fill_node(Node& node, const ClassStats& s) const {
    node.n = static_cast<std::size_t>(std::llround(s.n));
    node.class_counts = s.counts;
    node.impurity = s.impurity();
    const auto it = std::max_element(s.counts.begin(), s.counts.end());
    node.prediction = static_cast<double>(it - s.counts.begin());
  }

  /// Numeric/ordinal threshold search: one linear sweep over `sorted`
  /// (present rows ascending by (value, row id), then a missing tail). The
  /// node's own statistics arrive from the caller — the sweep starts from a
  /// copy and strips the missing tail instead of re-accumulating the parent
  /// side from scratch.
  template <typename S>
  void sweep_numeric(std::span<const std::uint32_t> sorted, std::size_t f,
                     const S& parent_stats, BestSplit& best) const {
    S right = parent_stats;
    std::size_t e = sorted.size();
    while (e > 0) {
      const std::uint32_t r = sorted[e - 1];
      if (!data_.x_missing(r, f)) break;
      right.remove(data_.y(r), w(r));
      --e;
    }
    if (right.n < 2.0 * min_leaf_) return;
    const double parent = right.impurity();

    S left = make_stats<S>();
    double xa = data_.x(sorted[0], f);
    for (std::size_t i = 0; i + 1 < e; ++i) {
      const std::uint32_t r = sorted[i];
      const double yv = data_.y(r);
      const double wt = w(r);
      left.add(yv, wt);
      right.remove(yv, wt);
      const double xb = data_.x(sorted[i + 1], f);
      const double cut_lo = xa;
      xa = xb;
      if (cut_lo == xb) continue;  // can't cut between equal values
      if (left.n < min_leaf_) continue;
      if (right.n < min_leaf_) break;
      const double improve = parent - left.impurity() - right.impurity();
      if (improve > best.improve) {
        best = {true, f, false, 0.5 * (cut_lo + xb), {}, improve};
      }
    }
  }

  template <typename S>
  void search_numeric(std::size_t begin, std::size_t end, std::size_t f,
                      const S& parent_stats, BestSplit& best) {
    if (presort_) {
      sweep_numeric<S>(
          std::span<const std::uint32_t>(order_[f]).subspan(begin, end - begin),
          f, parent_stats, best);
      return;
    }
    sort_buf_.assign(rows_.begin() + static_cast<std::ptrdiff_t>(begin),
                     rows_.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(sort_buf_.begin(), sort_buf_.end(), OrderCmp{&data_, f});
    sweep_numeric<S>(sort_buf_, f, parent_stats, best);
  }

  /// Categorical subset search via Breiman's ordering trick: order levels by
  /// their response mean (regression) or by the probability of the globally
  /// most frequent class (classification heuristic), then scan prefix cuts.
  /// Ties order by level code so the scan is engine-independent.
  template <typename S>
  void search_categorical(std::size_t begin, std::size_t end, std::size_t f,
                          BestSplit& best) const {
    const std::size_t k = data_.info(f).cardinality();
    if (k < 2) return;

    // Per-level aggregates, accumulated in node-row order.
    std::vector<S> per_level(k, make_stats<S>());
    double present_w = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = rows_[i];
      if (data_.x_missing(r, f)) continue;
      const auto code = static_cast<std::size_t>(data_.x(r, f));
      present_w += w(r);
      per_level[code].add(data_.y(r), w(r));
    }
    if (present_w < 2.0 * min_leaf_) return;

    // Order the occupied levels.
    std::vector<std::size_t> levels;
    for (std::size_t c = 0; c < k; ++c) {
      if (per_level[c].n > 0.0) levels.push_back(c);
    }
    if (levels.size() < 2) return;
    std::size_t ref_class = 0;
    if constexpr (std::is_same_v<S, ClassStats>) {
      std::vector<double> totals(data_.num_classes(), 0.0);
      for (const auto& s : per_level) {
        for (std::size_t j = 0; j < totals.size(); ++j) totals[j] += s.counts[j];
      }
      ref_class = static_cast<std::size_t>(
          std::max_element(totals.begin(), totals.end()) - totals.begin());
    }
    const auto level_key = [&](std::size_t c) {
      if constexpr (std::is_same_v<S, ClassStats>) {
        return per_level[c].n > 0.0 ? per_level[c].counts[ref_class] / per_level[c].n
                                    : 0.0;
      } else {
        return per_level[c].mean();
      }
    };
    std::sort(levels.begin(), levels.end(), [&](std::size_t a, std::size_t b) {
      const double ka = level_key(a);
      const double kb = level_key(b);
      if (ka != kb) return ka < kb;
      return a < b;
    });

    S right = make_stats<S>();
    for (const auto c : levels) right.merge(per_level[c]);
    const double parent = right.impurity();
    S left = make_stats<S>();
    for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
      const std::size_t c = levels[i];
      left.merge(per_level[c]);
      right.unmerge(per_level[c]);
      if (left.n < min_leaf_ || right.n < min_leaf_) continue;
      const double improve = parent - left.impurity() - right.impurity();
      if (improve > best.improve) {
        std::vector<std::uint8_t> mask(k, 0);
        for (std::size_t j = 0; j <= i; ++j) mask[levels[j]] = 1;
        best = {true, f, true, 0.0, std::move(mask), improve};
      }
    }
  }

  struct PartitionResult {
    std::size_t mid;
    bool missing_left;
  };

  /// Splits rows_[begin, end) in place: left child rows land in
  /// [begin, mid), right child rows in [mid, end); each child keeps its
  /// non-missing rows (in parent order) ahead of the missing rows it
  /// inherited, matching the exhaustive engine's child construction. When
  /// presorting, every threaded feature order is stably partitioned in
  /// lockstep so child segments keep the (value, row id) contract.
  PartitionResult partition(std::size_t begin, std::size_t end,
                            const BestSplit& best) {
    left_buf_.clear();
    right_buf_.clear();
    miss_buf_.clear();
    double left_w = 0.0;
    double right_w = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = rows_[i];
      const double xv = data_.x(r, best.feature);
      if (std::isnan(xv)) {
        miss_buf_.push_back(r);
        continue;
      }
      const bool goes_left =
          best.categorical ? best.go_left[static_cast<std::size_t>(xv)] != 0
                           : xv < best.threshold;
      if (goes_left) {
        left_buf_.push_back(r);
        left_w += w(r);
      } else {
        right_buf_.push_back(r);
        right_w += w(r);
      }
    }
    // Missing split-feature values follow the bigger child (by weight —
    // identical to the seed's bag-entry count).
    const bool missing_left = left_w >= right_w;
    auto& missing_dst = missing_left ? left_buf_ : right_buf_;
    missing_dst.insert(missing_dst.end(), miss_buf_.begin(), miss_buf_.end());

    util::ensure(!left_buf_.empty() && !right_buf_.empty(),
                 "split produced an empty child");

    if (presort_) {
      for (const auto r : left_buf_) side_[r] = 1;
      for (const auto r : right_buf_) side_[r] = 0;
    }
    std::copy(left_buf_.begin(), left_buf_.end(),
              rows_.begin() + static_cast<std::ptrdiff_t>(begin));
    const std::size_t mid = begin + left_buf_.size();
    std::copy(right_buf_.begin(), right_buf_.end(),
              rows_.begin() + static_cast<std::ptrdiff_t>(mid));

    if (presort_) {
      for (std::size_t f = 0; f < order_.size(); ++f) {
        if (!order_[f].empty()) partition_order(order_[f], begin, end, f);
      }
    }
    return {mid, missing_left};
  }

  /// Stable four-way bucket pass: [left-present, left-missing] then
  /// [right-present, right-missing], preserving relative order inside each
  /// bucket — exactly the layout the root sort established.
  void partition_order(std::vector<std::uint32_t>& ord, std::size_t begin,
                       std::size_t end, std::size_t f) {
    ord_left_present_.clear();
    ord_left_missing_.clear();
    ord_right_present_.clear();
    ord_right_missing_.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = ord[i];
      const bool miss = data_.x_missing(r, f);
      if (side_[r] != 0) {
        (miss ? ord_left_missing_ : ord_left_present_).push_back(r);
      } else {
        (miss ? ord_right_missing_ : ord_right_present_).push_back(r);
      }
    }
    std::size_t i = begin;
    for (const auto* bucket : {&ord_left_present_, &ord_left_missing_,
                               &ord_right_present_, &ord_right_missing_}) {
      i = static_cast<std::size_t>(
          std::copy(bucket->begin(), bucket->end(),
                    ord.begin() + static_cast<std::ptrdiff_t>(i)) -
          ord.begin());
    }
  }

  template <typename S>
  std::int32_t grow_node(std::size_t begin, std::size_t end, std::uint32_t depth,
                         std::int32_t parent) {
    const auto node_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[static_cast<std::size_t>(node_id)].parent = parent;
    nodes_[static_cast<std::size_t>(node_id)].depth = depth;

    // One statistics pass per node; the same object seeds every numeric
    // sweep below instead of being re-derived per feature.
    const S stats = node_stats<S>(begin, end);
    fill_node(nodes_[static_cast<std::size_t>(node_id)], stats);
    if (depth == 0) {
      root_impurity_ = nodes_[static_cast<std::size_t>(node_id)].impurity;
    }

    if (stats.n < static_cast<double>(cfg_.min_samples_split) ||
        depth >= cfg_.max_depth ||
        nodes_[static_cast<std::size_t>(node_id)].impurity <= 1e-12) {
      return node_id;
    }

    BestSplit best;
    const auto search_start = std::chrono::steady_clock::now();
    for (std::size_t f = 0; f < data_.num_features(); ++f) {
      if (!allowed(f)) continue;
      if (data_.info(f).categorical) {
        search_categorical<S>(begin, end, f, best);
      } else {
        search_numeric<S>(begin, end, f, stats, best);
      }
    }
    split_search_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - search_start)
                            .count();
    // rpart's rule: the split must improve relative error by at least cp.
    if (!best.found || best.improve < cfg_.cp * std::max(root_impurity_, 1e-12)) {
      return node_id;
    }

    const PartitionResult part = partition(begin, end, best);
    {
      Node& node = nodes_[static_cast<std::size_t>(node_id)];
      node.feature = best.feature;
      node.categorical = best.categorical;
      node.threshold = best.threshold;
      node.go_left = best.go_left;
      node.missing_goes_left = part.missing_left;
      node.improve = best.improve;
    }
    const std::int32_t left_id = grow_node<S>(begin, part.mid, depth + 1, node_id);
    nodes_[static_cast<std::size_t>(node_id)].left = left_id;
    const std::int32_t right_id = grow_node<S>(part.mid, end, depth + 1, node_id);
    nodes_[static_cast<std::size_t>(node_id)].right = right_id;
    return node_id;
  }
};

}  // namespace

RowOrders presort_rows(const Dataset& data, SplitEngine engine) {
  RowOrders orders(data.num_features());
  if (engine != SplitEngine::kPresort) return orders;
  const obs::ScopedTimer timer(obs::registry().histogram("cart.presort_us"));
  util::parallel_for(data.num_features(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t f = begin; f < end; ++f) {
      if (data.info(f).categorical) continue;
      auto& ord = orders[f];
      ord.resize(data.num_rows());
      std::iota(ord.begin(), ord.end(), std::uint32_t{0});
      std::sort(ord.begin(), ord.end(), OrderCmp{&data, f});
    }
  });
  return orders;
}

Tree grow(const Dataset& data, const Config& config) {
  return grow(data, config, std::span<const double>{});
}

Tree grow(const Dataset& data, const Config& config,
          std::span<const double> row_weights) {
  return grow(data, config, row_weights, presort_rows(data, config.engine));
}

Tree grow(const Dataset& data, const Config& config,
          std::span<const double> row_weights, const RowOrders& orders) {
  util::require(data.num_rows() > 0, "cannot grow a tree on empty data");
  util::require(data.has_response(), "growing requires a response column");
  util::require(config.min_samples_leaf >= 1, "min_samples_leaf must be >= 1");
  util::require(config.allowed_features.empty() ||
                    config.allowed_features.size() == data.num_features(),
                "allowed_features size must match feature count");
  util::require(row_weights.empty() || row_weights.size() == data.num_rows(),
                "row_weights size must match the dataset row count");
  for (const double wt : row_weights) {
    util::require(wt >= 0.0 && !std::isnan(wt),
                  "row_weights must be non-negative and not NaN");
  }
  Builder builder(data, config, row_weights, orders);
  return builder.build();
}

}  // namespace rainshine::cart
