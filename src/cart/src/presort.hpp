// Library-private: the per-feature row orders that every tree grown on one
// dataset shares (DESIGN.md §6d). grow_forest sorts them once for all its
// trees; the public grow overloads sort them for their one tree.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rainshine/cart/tree.hpp"

namespace rainshine::cart {

/// Per feature, every row id of a dataset in the split engine's total order:
/// present rows ascending by (value, row id), then missing rows ascending by
/// row id. Empty for categorical features, and for every feature when the
/// engine is kExhaustive (which sorts at each node instead).
using RowOrders = std::vector<std::vector<std::uint32_t>>;

/// Sorts each numeric feature of `data`, one parallel_for over features.
[[nodiscard]] RowOrders presort_rows(const Dataset& data, SplitEngine engine);

/// The weighted grow on orders from presort_rows(data, config.engine): each
/// numeric feature's order keeps, in sequence, the rows with weight > 0 —
/// the same sequence a sort of those rows alone would give.
[[nodiscard]] Tree grow(const Dataset& data, const Config& config,
                        std::span<const double> row_weights, const RowOrders& orders);

}  // namespace rainshine::cart
