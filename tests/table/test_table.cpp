#include "rainshine/table/table.hpp"

#include <gtest/gtest.h>

#include "rainshine/util/check.hpp"

namespace rainshine::table {
namespace {

Table make_sample() {
  Table t;
  t.add_column("x", Column::continuous({1.0, 2.0, 3.0, 4.0}));
  t.add_column("group", Column::nominal(std::vector<std::string>{"a", "b", "a", "b"}));
  t.add_column("rank", Column::ordinal({4, 3, 2, 1}));
  return t;
}

TEST(Table, SchemaAndAccess) {
  const Table t = make_sample();
  EXPECT_EQ(t.num_rows(), 4U);
  EXPECT_EQ(t.num_columns(), 3U);
  EXPECT_TRUE(t.has_column("x"));
  EXPECT_FALSE(t.has_column("y"));
  EXPECT_EQ(t.column("group").type(), ColumnType::kNominal);
  EXPECT_EQ(t.column_name(2), "rank");
  EXPECT_THROW(t.column("nope"), util::precondition_error);
  EXPECT_THROW(t.column_at(5), util::precondition_error);
}

TEST(Table, RejectsDuplicateAndMismatchedColumns) {
  Table t;
  t.add_column("x", Column::continuous({1.0}));
  EXPECT_THROW(t.add_column("x", Column::continuous({2.0})), util::precondition_error);
  EXPECT_THROW(t.add_column("y", Column::continuous({1.0, 2.0})),
               util::precondition_error);
}

TEST(Table, TakeAndFilter) {
  const Table t = make_sample();
  const std::vector<std::size_t> big = t.find_rows([&](std::size_t r) {
    return t.column("x").as_double(r) > 2.0;
  });
  EXPECT_EQ(big, (std::vector<std::size_t>{2, 3}));
  const Table filtered = t.take(big);
  EXPECT_EQ(filtered.num_rows(), 2U);
  EXPECT_DOUBLE_EQ(filtered.column("x").as_double(0), 3.0);
  EXPECT_DOUBLE_EQ(filtered.column("rank").as_double(1), 1.0);
  EXPECT_TRUE(t.find_rows([](std::size_t) { return false; }).empty());

  const std::vector<std::size_t> idx = {3, 0};
  const Table taken = t.take(idx);
  EXPECT_EQ(taken.num_rows(), 2U);
  EXPECT_EQ(taken.column("group").cell_to_string(0), "b");
}

TEST(Table, SelectProjectsColumns) {
  const Table t = make_sample();
  const std::vector<std::string> cols = {"rank", "x"};
  const Table p = t.select(cols);
  EXPECT_EQ(p.num_columns(), 2U);
  EXPECT_EQ(p.column_name(0), "rank");
  EXPECT_EQ(p.num_rows(), 4U);
}

TEST(Table, SortedIndices) {
  const Table t = make_sample();
  const auto order = t.sorted_indices("rank");
  ASSERT_EQ(order.size(), 4U);
  EXPECT_EQ(order[0], 3U);  // rank 1
  EXPECT_EQ(order[3], 0U);  // rank 4
}

TEST(Table, SortedIndicesMissingLast) {
  Table t;
  Column c(ColumnType::kContinuous);
  c.push_continuous(5.0);
  c.push_missing();
  c.push_continuous(1.0);
  t.add_column("v", std::move(c));
  const auto order = t.sorted_indices("v");
  EXPECT_EQ(order[0], 2U);
  EXPECT_EQ(order[1], 0U);
  EXPECT_EQ(order[2], 1U);  // missing sorts last
}

}  // namespace
}  // namespace rainshine::table
