#include "rainshine/table/table.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "rainshine/util/check.hpp"

namespace rainshine::table {

std::optional<std::size_t> Table::index_of(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  return std::nullopt;
}

void Table::add_column(std::string name, Column column) {
  util::require(!index_of(name).has_value(), "duplicate column name: " + name);
  if (!columns_.empty()) {
    util::require(column.size() == num_rows_,
                  "column '" + name + "' length mismatch");
  } else {
    num_rows_ = column.size();
  }
  names_.push_back(std::move(name));
  columns_.push_back(std::move(column));
}

bool Table::has_column(std::string_view name) const noexcept {
  return index_of(name).has_value();
}

const Column& Table::column(std::string_view name) const {
  const auto idx = index_of(name);
  util::require(idx.has_value(), "no such column: " + std::string(name));
  return columns_[*idx];
}

Column& Table::column(std::string_view name) {
  const auto idx = index_of(name);
  util::require(idx.has_value(), "no such column: " + std::string(name));
  return columns_[*idx];
}

const Column& Table::column_at(std::size_t index) const {
  util::require(index < columns_.size(), "column index out of range");
  return columns_[index];
}

const std::string& Table::column_name(std::size_t index) const {
  util::require(index < names_.size(), "column index out of range");
  return names_[index];
}

Table Table::take(std::span<const std::size_t> indices) const {
  Table out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out.add_column(names_[c], columns_[c].take(indices));
  }
  if (columns_.empty()) out.num_rows_ = 0;
  return out;
}

std::vector<std::size_t> Table::find_rows(
    const std::function<bool(std::size_t)>& predicate) const {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < num_rows_; ++r) {
    if (predicate(r)) out.push_back(r);
  }
  return out;
}

Table Table::select(std::span<const std::string> names) const {
  Table out;
  for (const auto& name : names) out.add_column(name, column(name));
  return out;
}

std::vector<std::size_t> Table::sorted_indices(std::string_view name) const {
  const Column& col = column(name);
  std::vector<std::size_t> order(num_rows_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double va = col.as_double(a);
    const double vb = col.as_double(b);
    if (std::isnan(va)) return false;  // missing sorts last
    if (std::isnan(vb)) return true;
    return va < vb;
  });
  return order;
}

}  // namespace rainshine::table
