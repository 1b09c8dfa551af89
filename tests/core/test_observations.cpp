#include "rainshine/core/observations.hpp"

#include <gtest/gtest.h>

#include "rainshine/core/marginals.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::core {
namespace {

class ObservationsTest : public ::testing::Test {
 protected:
  ObservationsTest()
      : fleet_(simdc::FleetSpec::test_default()),
        env_(fleet_, fleet_.spec().seed),
        hazard_(fleet_, env_),
        log_(simulate(fleet_, env_, hazard_, {.seed = 5})),
        metrics_(fleet_, log_) {}

  simdc::Fleet fleet_;
  simdc::EnvironmentModel env_;
  simdc::HazardModel hazard_;
  simdc::TicketLog log_;
  FailureMetrics metrics_;
};

TEST_F(ObservationsTest, SchemaAndRowCount) {
  ObservationOptions opt;
  opt.skip_pre_commission = false;
  const table::Table t = rack_day_table(metrics_, env_, opt);
  for (const char* name :
       {col::kRack, col::kDc, col::kRegion, col::kSku, col::kWorkload,
        col::kPowerKw, col::kAgeMonths, col::kCommissionYear, col::kDay,
        col::kWeekday, col::kMonth, col::kYear, col::kTempF, col::kRh,
        col::kLambdaAll, col::kLambdaHw, col::kLambdaDisk, col::kLambdaMem,
        col::kMuServer, col::kMuServerFrac, col::kMuDisk, col::kMuDimm}) {
    EXPECT_TRUE(t.has_column(name)) << name;
  }
  EXPECT_EQ(t.num_rows(),
            fleet_.num_racks() * static_cast<std::size_t>(fleet_.spec().num_days));
}

TEST_F(ObservationsTest, StrideAndCommissionFiltering) {
  ObservationOptions opt;
  opt.day_stride = 5;
  opt.include_mu = false;
  const table::Table t = rack_day_table(metrics_, env_, opt);
  std::size_t expected = 0;
  for (const simdc::Rack& rack : fleet_.racks()) {
    for (util::DayIndex d = 0; d < fleet_.spec().num_days; d += 5) {
      if (d >= rack.commission_day) ++expected;
    }
  }
  EXPECT_EQ(t.num_rows(), expected);
}

TEST_F(ObservationsTest, ValuesMatchSources) {
  ObservationOptions opt;
  opt.include_mu = true;
  const table::Table t = rack_day_table(metrics_, env_, opt);
  const util::Calendar& cal = fleet_.calendar();
  const auto label = [&](const char* name, std::size_t r) {
    return t.column(name).cell_to_string(r);
  };
  const auto value = [&](const char* name, std::size_t r) {
    return t.column(name).as_double(r);
  };

  // Every row and every column against the primary sources. Rows run rack
  // by rack, days ascending, from each rack's commission day on.
  std::size_t r = 0;
  for (const simdc::Rack& rack : fleet_.racks()) {
    const auto mu_all = metrics_.mu_series(rack.id, DeviceKind::kServer,
                                           Granularity::kDaily, true);
    const auto mu_other =
        metrics_.mu_series(rack.id, DeviceKind::kServer, Granularity::kDaily);
    const auto mu_disk =
        metrics_.mu_series(rack.id, DeviceKind::kDisk, Granularity::kDaily);
    const auto mu_dimm =
        metrics_.mu_series(rack.id, DeviceKind::kDimm, Granularity::kDaily);
    for (util::DayIndex day = std::max(0, rack.commission_day);
         day < fleet_.spec().num_days; ++day, ++r) {
      ASSERT_LT(r, t.num_rows());
      SCOPED_TRACE(testing::Message() << "row " << r);
      const auto d = static_cast<std::size_t>(day);
      const simdc::Conditions c = env_.daily_mean(rack, day);
      ASSERT_EQ(label(col::kRack, r), "R" + std::to_string(rack.id));
      ASSERT_EQ(label(col::kDc, r), to_string(rack.dc));
      ASSERT_EQ(label(col::kRegion, r), rack.region_label());
      ASSERT_EQ(label(col::kSku, r), to_string(rack.sku));
      ASSERT_EQ(label(col::kWorkload, r), to_string(rack.workload));
      ASSERT_EQ(value(col::kPowerKw, r), rack.rated_power_kw);
      ASSERT_EQ(value(col::kAgeMonths, r), rack.age_months(day));
      ASSERT_EQ(value(col::kCommissionYear, r),
                cal.year_offset(rack.commission_day));
      ASSERT_EQ(value(col::kDay, r), day);
      ASSERT_EQ(label(col::kWeekday, r), util::to_string(cal.weekday(day)));
      ASSERT_EQ(label(col::kMonth, r), util::to_string(cal.month(day)));
      ASSERT_EQ(value(col::kYear, r), cal.year_offset(day));
      ASSERT_EQ(value(col::kTempF, r), c.temperature_f);
      ASSERT_EQ(value(col::kRh, r), c.relative_humidity);
      ASSERT_EQ(value(col::kLambdaAll, r), metrics_.total_count(rack.id, day));
      ASSERT_EQ(value(col::kLambdaHw, r), metrics_.hardware_count(rack.id, day));
      ASSERT_EQ(value(col::kLambdaDisk, r),
                metrics_.count(rack.id, day, FaultType::kDiskFailure));
      ASSERT_EQ(value(col::kLambdaMem, r),
                metrics_.count(rack.id, day, FaultType::kMemoryFailure));
      ASSERT_EQ(value(col::kMuServer, r), mu_all[d]);
      ASSERT_EQ(value(col::kMuServerFrac, r),
                static_cast<double>(mu_all[d]) / rack.servers());
      ASSERT_EQ(value(col::kMuServerOther, r), mu_other[d]);
      ASSERT_EQ(value(col::kMuServerOtherFrac, r),
                static_cast<double>(mu_other[d]) / rack.servers());
      ASSERT_EQ(value(col::kMuDisk, r), mu_disk[d]);
      ASSERT_EQ(value(col::kMuDiskFrac, r),
                static_cast<double>(mu_disk[d]) / rack.disks());
      ASSERT_EQ(value(col::kMuDimm, r), mu_dimm[d]);
      ASSERT_EQ(value(col::kMuDimmFrac, r),
                static_cast<double>(mu_dimm[d]) / rack.dimms());
    }
  }
  EXPECT_EQ(r, t.num_rows());
  EXPECT_EQ(t.num_columns(), 26U);

  // CART's categorical codes follow each nominal dictionary, so the
  // dictionary must list labels in the order rows first show them.
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const table::Column& column = t.column_at(c);
    if (column.type() != table::ColumnType::kNominal) continue;
    std::int32_t seen = 0;
    for (const std::int32_t code : column.nominal_codes()) {
      ASSERT_LE(code, seen) << t.column_name(c);
      if (code == seen) ++seen;
    }
    EXPECT_EQ(static_cast<std::size_t>(seen), column.cardinality())
        << t.column_name(c);
  }
}

TEST_F(ObservationsTest, WorkloadFilterRestrictsRacks) {
  ObservationOptions opt;
  opt.include_mu = false;
  const table::Table t =
      rack_day_table(metrics_, env_, simdc::WorkloadId::kW6, opt);
  if (t.num_rows() == 0) GTEST_SKIP() << "no W6 racks in this test layout";
  const auto& wl = t.column(col::kWorkload);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(wl.cell_to_string(r), "W6");
  }
}

TEST_F(ObservationsTest, RejectsBadOptions) {
  ObservationOptions opt;
  opt.day_stride = 0;
  EXPECT_THROW(rack_day_table(metrics_, env_, opt), util::precondition_error);
  ObservationOptions weekly;
  weekly.mu_granularity = Granularity::kWeekly;
  EXPECT_THROW(rack_day_table(metrics_, env_, weekly), util::precondition_error);
}

TEST_F(ObservationsTest, MarginalRowsCoverExpectedGroups) {
  const Marginals marginals(metrics_, env_, /*day_stride=*/2);
  EXPECT_EQ(marginals.by_weekday().size(), 7U);
  EXPECT_EQ(marginals.by_month().size(), 12U);
  EXPECT_EQ(marginals.by_humidity().size(), 7U);
  EXPECT_EQ(marginals.by_workload().size(), 7U);
  EXPECT_EQ(marginals.by_sku().size(), 7U);
  // Regions present in the test fleet: 2 per DC.
  EXPECT_EQ(marginals.by_region().size(), 4U);
  // All row means are non-negative.
  for (const auto& row : marginals.by_age()) {
    EXPECT_GE(row.mean, 0.0);
  }
}

// Boundary regression (half-open [first_day, last_day) contract): a ticket
// opened at EXACTLY first_hour(last_day) belongs to day last_day and must
// stay outside the window, while one hour earlier is the window's last
// countable event. -1, the exact horizon, and an overshooting last_day all
// name the same full-horizon table, and open_day == num_days overhang
// tickets never leak into any λ cell.
TEST_F(ObservationsTest, WindowBoundariesAreHalfOpen) {
  const util::DayIndex last = 40;
  const util::DayIndex num_days = fleet_.spec().num_days;
  ASSERT_LT(last, num_days);

  simdc::Ticket inside;
  inside.open_hour = util::Calendar::first_hour(last) - 1;
  inside.close_hour = inside.open_hour + 4;
  inside.rack_id = 0;
  inside.fault = FaultType::kDiskFailure;
  simdc::Ticket boundary = inside;
  boundary.open_hour = util::Calendar::first_hour(last);
  boundary.close_hour = boundary.open_hour + 4;
  simdc::Ticket overhang = inside;
  overhang.open_hour = util::Calendar::first_hour(num_days);
  overhang.close_hour = overhang.open_hour + 4;

  FailureMetrics metrics(fleet_);
  const simdc::Ticket tickets[] = {inside, boundary, overhang};
  metrics.index(tickets);

  ObservationOptions opt;
  opt.include_mu = false;
  opt.skip_pre_commission = false;
  opt.last_day = last;
  const auto lambda_sum = [](const table::Table& t) {
    const auto& hw = t.column(col::kLambdaHw);
    double sum = 0;
    for (std::size_t i = 0; i < t.num_rows(); ++i) sum += hw.as_double(i);
    return sum;
  };

  // [0, last): only the ticket one hour before the boundary counts, and no
  // row carries a day at or past last_day.
  const table::Table clipped = rack_day_table(metrics, env_, opt);
  EXPECT_EQ(lambda_sum(clipped), 1.0);
  const auto& day_col = clipped.column(col::kDay);
  for (std::size_t i = 0; i < clipped.num_rows(); ++i)
    EXPECT_LT(day_col.as_double(i), static_cast<double>(last));

  // [0, last + 1): one day wider picks the boundary ticket up.
  opt.last_day = last + 1;
  EXPECT_EQ(lambda_sum(rack_day_table(metrics, env_, opt)), 2.0);

  // Full horizon three ways: -1, num_days exactly, and a clamp-worthy
  // overshoot. All agree, and none sees the open_day == num_days overhang.
  opt.last_day = -1;
  const table::Table full = rack_day_table(metrics, env_, opt);
  EXPECT_EQ(lambda_sum(full), 2.0);
  opt.last_day = num_days;
  EXPECT_EQ(rack_day_table(metrics, env_, opt).num_rows(), full.num_rows());
  opt.last_day = num_days + 50;
  EXPECT_EQ(rack_day_table(metrics, env_, opt).num_rows(), full.num_rows());

  // An empty window (first_day == last_day) is legal and yields no rows;
  // an inverted one violates the precondition.
  opt.first_day = last;
  opt.last_day = last;
  EXPECT_EQ(rack_day_table(metrics, env_, opt).num_rows(), 0U);
  opt.last_day = last - 1;
  EXPECT_THROW(rack_day_table(metrics, env_, opt), util::precondition_error);
}

TEST_F(ObservationsTest, TicketMixSumsTo100PerDc) {
  const auto rows = ticket_mix(fleet_, log_);
  double dc1 = 0.0;
  double dc2 = 0.0;
  for (const auto& row : rows) {
    dc1 += row.dc1_pct;
    dc2 += row.dc2_pct;
  }
  EXPECT_NEAR(dc1, 100.0, 1e-6);
  EXPECT_NEAR(dc2, 100.0, 1e-6);
}

}  // namespace
}  // namespace rainshine::core
