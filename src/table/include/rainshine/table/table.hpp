// A small columnar dataframe.
//
// `Table` is the exchange format between the feature tables (one row per
// rack-day, rack or server snapshot), the CART learner (which consumes
// feature columns) and the decision studies. Producers build it column by
// column: they fill typed `Column`s and pass each to `add_column`, whose
// duplicate-name and equal-length checks catch a missed or doubled value.
// It deliberately implements only what the analyses need: schema-checked
// column access, row selection and sorting.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rainshine/table/column.hpp"

namespace rainshine::table {

/// Named, equal-length columns. Value semantics.
class Table {
 public:
  Table() = default;

  /// Adds a column; all columns must have equal length. Throws on duplicate
  /// name or length mismatch with existing columns.
  void add_column(std::string name, Column column);

  [[nodiscard]] std::size_t num_rows() const noexcept { return num_rows_; }
  [[nodiscard]] std::size_t num_columns() const noexcept { return columns_.size(); }
  [[nodiscard]] bool has_column(std::string_view name) const noexcept;
  [[nodiscard]] const std::vector<std::string>& column_names() const noexcept {
    return names_;
  }

  /// Column by name; throws util::precondition_error if absent.
  [[nodiscard]] const Column& column(std::string_view name) const;
  [[nodiscard]] Column& column(std::string_view name);
  [[nodiscard]] const Column& column_at(std::size_t index) const;
  [[nodiscard]] const std::string& column_name(std::size_t index) const;

  /// New table with the rows at `indices` (in that order).
  [[nodiscard]] Table take(std::span<const std::size_t> indices) const;

  /// Row indices where `predicate(row)` holds.
  [[nodiscard]] std::vector<std::size_t> find_rows(
      const std::function<bool(std::size_t)>& predicate) const;

  /// New table with only the named columns (schema projection).
  [[nodiscard]] Table select(std::span<const std::string> names) const;

  /// Row indices sorted ascending by the numeric view of `name`.
  [[nodiscard]] std::vector<std::size_t> sorted_indices(std::string_view name) const;

 private:
  std::vector<std::string> names_;
  std::vector<Column> columns_;
  std::size_t num_rows_ = 0;

  [[nodiscard]] std::optional<std::size_t> index_of(std::string_view name) const noexcept;
};

}  // namespace rainshine::table
