#include "rainshine/table/column.hpp"

#include <cmath>

#include "rainshine/util/check.hpp"
#include "rainshine/util/strings.hpp"

namespace rainshine::table {

std::string_view to_string(ColumnType t) noexcept {
  switch (t) {
    case ColumnType::kContinuous: return "continuous";
    case ColumnType::kOrdinal: return "ordinal";
    case ColumnType::kNominal: return "nominal";
  }
  return "?";
}

Column::Column(ColumnType type) : type_(type) {
  if (type_ == ColumnType::kContinuous) {
    data_ = std::vector<double>{};
  } else {
    data_ = std::vector<std::int32_t>{};
  }
}

Column Column::continuous(std::vector<double> values) {
  Column c(ColumnType::kContinuous);
  c.data_ = std::move(values);
  return c;
}

Column Column::ordinal(std::vector<std::int32_t> values) {
  Column c(ColumnType::kOrdinal);
  c.data_ = std::move(values);
  return c;
}

Column Column::nominal(std::span<const std::string> labels) {
  Column c(ColumnType::kNominal);
  for (const auto& label : labels) c.push_nominal(label);
  return c;
}

Column Column::nominal(std::vector<std::int32_t> codes, std::vector<std::string> dictionary) {
  Column c(ColumnType::kNominal);
  for (const auto code : codes) {
    util::require(code == kMissingCode ||
                      (code >= 0 && static_cast<std::size_t>(code) < dictionary.size()),
                  "nominal code outside dictionary");
  }
  c.data_ = std::move(codes);
  c.dictionary_ = std::move(dictionary);
  for (std::size_t i = 0; i < c.dictionary_.size(); ++i) {
    c.dict_index_.emplace(c.dictionary_[i], static_cast<std::int32_t>(i));
  }
  util::require(c.dict_index_.size() == c.dictionary_.size(),
                "nominal dictionary has duplicate labels");
  return c;
}

std::vector<double>& Column::doubles() { return std::get<std::vector<double>>(data_); }
const std::vector<double>& Column::doubles() const {
  return std::get<std::vector<double>>(data_);
}
std::vector<std::int32_t>& Column::ints() {
  return std::get<std::vector<std::int32_t>>(data_);
}
const std::vector<std::int32_t>& Column::ints() const {
  return std::get<std::vector<std::int32_t>>(data_);
}

std::size_t Column::size() const noexcept {
  return type_ == ColumnType::kContinuous
             ? std::get<std::vector<double>>(data_).size()
             : std::get<std::vector<std::int32_t>>(data_).size();
}

void Column::push_continuous(double v) {
  util::require(type_ == ColumnType::kContinuous, "push_continuous on non-continuous column");
  doubles().push_back(v);
}

void Column::push_ordinal(std::int32_t v) {
  util::require(type_ == ColumnType::kOrdinal, "push_ordinal on non-ordinal column");
  ints().push_back(v);
}

void Column::push_nominal(std::string_view label) {
  util::require(type_ == ColumnType::kNominal, "push_nominal on non-nominal column");
  const auto it = dict_index_.find(label);
  if (it != dict_index_.end()) {
    ints().push_back(it->second);
    return;
  }
  const auto code = static_cast<std::int32_t>(dictionary_.size());
  dictionary_.emplace_back(label);
  dict_index_.emplace(dictionary_.back(), code);
  ints().push_back(code);
}

void Column::push_missing() {
  switch (type_) {
    case ColumnType::kContinuous:
      doubles().push_back(std::numeric_limits<double>::quiet_NaN());
      return;
    case ColumnType::kOrdinal:
      ints().push_back(kMissingOrdinal);
      return;
    case ColumnType::kNominal:
      ints().push_back(kMissingCode);
      return;
  }
}

std::span<const double> Column::continuous_values() const {
  util::require(type_ == ColumnType::kContinuous, "continuous_values on non-continuous column");
  return doubles();
}

std::span<const std::int32_t> Column::ordinal_values() const {
  util::require(type_ == ColumnType::kOrdinal, "ordinal_values on non-ordinal column");
  return ints();
}

std::span<const std::int32_t> Column::nominal_codes() const {
  util::require(type_ == ColumnType::kNominal, "nominal_codes on non-nominal column");
  return ints();
}

const std::vector<std::string>& Column::dictionary() const {
  util::require(type_ == ColumnType::kNominal, "dictionary on non-nominal column");
  return dictionary_;
}

std::string_view Column::label_of(std::int32_t code) const {
  util::require(type_ == ColumnType::kNominal, "label_of on non-nominal column");
  if (code == kMissingCode) return "?";
  util::require(code >= 0 && static_cast<std::size_t>(code) < dictionary_.size(),
                "nominal code out of range");
  return dictionary_[static_cast<std::size_t>(code)];
}

std::int32_t Column::code_of(std::string_view label) const noexcept {
  const auto it = dict_index_.find(label);
  return it == dict_index_.end() ? kMissingCode : it->second;
}

std::size_t Column::cardinality() const {
  util::require(type_ == ColumnType::kNominal, "cardinality on non-nominal column");
  return dictionary_.size();
}

double Column::as_double(std::size_t i) const {
  util::require(i < size(), "row index out of range");
  switch (type_) {
    case ColumnType::kContinuous:
      return doubles()[i];
    case ColumnType::kOrdinal: {
      const auto v = ints()[i];
      return v == kMissingOrdinal ? std::numeric_limits<double>::quiet_NaN()
                                  : static_cast<double>(v);
    }
    case ColumnType::kNominal: {
      const auto v = ints()[i];
      return v == kMissingCode ? std::numeric_limits<double>::quiet_NaN()
                               : static_cast<double>(v);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

bool Column::is_missing(std::size_t i) const {
  util::require(i < size(), "row index out of range");
  switch (type_) {
    case ColumnType::kContinuous:
      return std::isnan(doubles()[i]);
    case ColumnType::kOrdinal:
      return ints()[i] == kMissingOrdinal;
    case ColumnType::kNominal:
      return ints()[i] == kMissingCode;
  }
  return true;
}

std::string Column::cell_to_string(std::size_t i) const {
  if (is_missing(i)) return "";
  switch (type_) {
    case ColumnType::kContinuous:
      return util::format_double(doubles()[i], 6);
    case ColumnType::kOrdinal:
      return std::to_string(ints()[i]);
    case ColumnType::kNominal:
      return std::string(label_of(ints()[i]));
  }
  return "";
}

Column Column::take(std::span<const std::size_t> indices) const {
  Column out(type_);
  out.dictionary_ = dictionary_;
  out.dict_index_ = dict_index_;
  if (type_ == ColumnType::kContinuous) {
    auto& dst = out.doubles();
    dst.reserve(indices.size());
    const auto& src = doubles();
    for (const auto i : indices) {
      util::require(i < src.size(), "take index out of range");
      dst.push_back(src[i]);
    }
  } else {
    auto& dst = out.ints();
    dst.reserve(indices.size());
    const auto& src = ints();
    for (const auto i : indices) {
      util::require(i < src.size(), "take index out of range");
      dst.push_back(src[i]);
    }
  }
  return out;
}

}  // namespace rainshine::table
