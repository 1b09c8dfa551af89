// Typed columns for the dataframe substrate.
//
// The paper's feature table (Table III) mixes continuous (temperature, RH),
// ordinal (day, week, month, year, age bucket) and nominal (SKU, workload,
// DC, rack, fault type) variables, and the CART implementation must treat
// each kind correctly. A Column is a dynamically typed, dictionary-encoding
// aware vector with a uniform numeric view:
//
//   * continuous  -> double values (NaN = missing)
//   * ordinal     -> int32 values with a meaningful order (-2^31 = missing)
//   * nominal     -> int32 dictionary codes, order meaningless (-1 = missing)
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

namespace rainshine::table {

enum class ColumnType : std::uint8_t { kContinuous, kOrdinal, kNominal };

[[nodiscard]] std::string_view to_string(ColumnType t) noexcept;

inline constexpr std::int32_t kMissingCode = -1;
inline constexpr std::int32_t kMissingOrdinal = std::numeric_limits<std::int32_t>::min();

/// A single typed column. Value semantics; cheap to move.
class Column {
 public:
  /// Empty continuous column.
  Column() : Column(ColumnType::kContinuous) {}
  explicit Column(ColumnType type);

  [[nodiscard]] static Column continuous(std::vector<double> values);
  [[nodiscard]] static Column ordinal(std::vector<std::int32_t> values);
  /// Nominal from string labels; builds the dictionary in first-seen order.
  [[nodiscard]] static Column nominal(std::span<const std::string> labels);
  /// Nominal from pre-encoded codes and an explicit dictionary.
  [[nodiscard]] static Column nominal(std::vector<std::int32_t> codes,
                                      std::vector<std::string> dictionary);

  [[nodiscard]] ColumnType type() const noexcept { return type_; }
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  // -- Appending ------------------------------------------------------------
  void push_continuous(double v);
  void push_ordinal(std::int32_t v);
  /// Appends a nominal label, growing the dictionary on first sight.
  void push_nominal(std::string_view label);
  void push_missing();

  // -- Typed access (throw util::precondition_error on type mismatch) -------
  [[nodiscard]] std::span<const double> continuous_values() const;
  [[nodiscard]] std::span<const std::int32_t> ordinal_values() const;
  [[nodiscard]] std::span<const std::int32_t> nominal_codes() const;
  [[nodiscard]] const std::vector<std::string>& dictionary() const;

  /// Label for a nominal code ("?" for missing).
  [[nodiscard]] std::string_view label_of(std::int32_t code) const;
  /// Code for a nominal label, or kMissingCode if absent.
  [[nodiscard]] std::int32_t code_of(std::string_view label) const noexcept;
  /// Number of distinct nominal categories (dictionary size).
  [[nodiscard]] std::size_t cardinality() const;

  // -- Uniform numeric view ---------------------------------------------------
  /// Row `i` as a double: value (continuous), level (ordinal) or dictionary
  /// code (nominal). NaN when missing. CART consumes columns through this.
  [[nodiscard]] double as_double(std::size_t i) const;
  [[nodiscard]] bool is_missing(std::size_t i) const;
  /// Human-readable cell rendering for reports/CSV.
  [[nodiscard]] std::string cell_to_string(std::size_t i) const;

  /// New column with only the rows in `indices` (same type/dictionary).
  [[nodiscard]] Column take(std::span<const std::size_t> indices) const;

 private:
  ColumnType type_;
  std::variant<std::vector<double>, std::vector<std::int32_t>> data_;
  /// Hashes a std::string and a std::string_view alike, so looking a label
  /// up builds no std::string.
  struct LabelHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view label) const noexcept {
      return std::hash<std::string_view>{}(label);
    }
  };

  std::vector<std::string> dictionary_;  // nominal only
  std::unordered_map<std::string, std::int32_t, LabelHash, std::equal_to<>>
      dict_index_;  // label -> code

  [[nodiscard]] std::vector<double>& doubles();
  [[nodiscard]] const std::vector<double>& doubles() const;
  [[nodiscard]] std::vector<std::int32_t>& ints();
  [[nodiscard]] const std::vector<std::int32_t>& ints() const;
};

}  // namespace rainshine::table
