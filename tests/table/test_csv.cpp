#include <gtest/gtest.h>

#include <sstream>

#include "rainshine/table/csv.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::table {
namespace {

Table make_sample() {
  Table t;
  t.add_column("dc", Column::nominal(std::vector<std::string>{"DC1", "DC2", "DC1",
                                                              "DC2", "DC1"}));
  t.add_column("sku", Column::nominal(std::vector<std::string>{"S1", "S1", "S2",
                                                               "S2", "S1"}));
  t.add_column("rate", Column::continuous({1.0, 2.0, 3.0, 4.0, 5.0}));
  return t;
}

TEST(Csv, RoundTripsTypedTable) {
  const Table t = make_sample();
  std::stringstream buf;
  write_csv(t, buf);
  const Table back = read_csv(buf);
  EXPECT_EQ(back.num_rows(), t.num_rows());
  EXPECT_EQ(back.column("dc").type(), ColumnType::kNominal);
  EXPECT_EQ(back.column("rate").type(), ColumnType::kContinuous);
  EXPECT_EQ(back.column("dc").cell_to_string(2), "DC1");
  EXPECT_DOUBLE_EQ(back.column("rate").as_double(4), 5.0);
}

TEST(Csv, InfersTypes) {
  std::stringstream in("a,b,c\n1,1.5,x\n2,2.5,y\n");
  const Table t = read_csv(in);
  EXPECT_EQ(t.column("a").type(), ColumnType::kOrdinal);
  EXPECT_EQ(t.column("b").type(), ColumnType::kContinuous);
  EXPECT_EQ(t.column("c").type(), ColumnType::kNominal);
}

TEST(Csv, HandlesQuotingAndMissing) {
  Table t;
  Column c(ColumnType::kNominal);
  c.push_nominal("has,comma");
  c.push_nominal("has \"quote\"");
  c.push_missing();
  t.add_column("messy", std::move(c));
  std::stringstream buf;
  write_csv(t, buf);
  const Table back = read_csv(buf);
  EXPECT_EQ(back.column("messy").cell_to_string(0), "has,comma");
  EXPECT_EQ(back.column("messy").cell_to_string(1), "has \"quote\"");
  EXPECT_TRUE(back.column("messy").is_missing(2));
}

TEST(Csv, SchemaEnforcement) {
  std::stringstream in("a,b\n1,2\n");
  const std::vector<CsvSchemaEntry> good = {{"a", ColumnType::kOrdinal},
                                            {"b", ColumnType::kContinuous}};
  EXPECT_NO_THROW(read_csv(in, good));

  std::stringstream in2("a,b\n1,2\n");
  const std::vector<CsvSchemaEntry> wrong_name = {{"a", ColumnType::kOrdinal},
                                                  {"z", ColumnType::kContinuous}};
  EXPECT_THROW(read_csv(in2, wrong_name), util::precondition_error);

  std::stringstream in3("a\nnot_a_number\n");
  const std::vector<CsvSchemaEntry> wrong_type = {{"a", ColumnType::kContinuous}};
  EXPECT_THROW(read_csv(in3, wrong_type), util::precondition_error);
}

TEST(Csv, RejectsRaggedRows) {
  std::stringstream in("a,b\n1,2\n3\n");
  EXPECT_THROW(read_csv(in), util::precondition_error);
}

}  // namespace
}  // namespace rainshine::table
