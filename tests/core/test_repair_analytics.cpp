#include <gtest/gtest.h>

#include "rainshine/core/repair_analytics.hpp"

namespace rainshine::core {
namespace {

class AnalyticsTest : public ::testing::Test {
 protected:
  static simdc::FleetSpec spec() {
    simdc::FleetSpec s = simdc::FleetSpec::test_default();
    s.num_days = 240;
    return s;
  }

  AnalyticsTest()
      : fleet_(spec()),
        env_(fleet_, fleet_.spec().seed),
        hazard_(fleet_, env_),
        log_(simulate(fleet_, env_, hazard_, {.seed = 11})),
        metrics_(fleet_, log_) {}

  simdc::Fleet fleet_;
  simdc::EnvironmentModel env_;
  simdc::HazardModel hazard_;
  simdc::TicketLog log_;
  FailureMetrics metrics_;
};

TEST_F(AnalyticsTest, MttrByFaultCoversHardwareTypes) {
  const auto rows = mttr_by_fault(fleet_, log_);
  ASSERT_GE(rows.size(), 3U);
  std::size_t total = 0;
  for (const auto& r : rows) {
    EXPECT_GT(r.mttr_hours, 0.0);
    EXPECT_LE(r.median_hours, r.p95_hours);
    total += r.tickets;
  }
  EXPECT_EQ(total, log_.hardware_true_positives().size());
}

TEST_F(AnalyticsTest, MttrBySkuPartitionsTickets) {
  const auto rows = mttr_by_sku(fleet_, log_);
  std::size_t total = 0;
  for (const auto& r : rows) total += r.tickets;
  EXPECT_EQ(total, log_.hardware_true_positives().size());
}

TEST_F(AnalyticsTest, RackAvailabilityBounds) {
  const auto rows = rack_availability(metrics_, log_);
  ASSERT_EQ(rows.size(), fleet_.num_racks());
  std::size_t with_failures = 0;
  for (const auto& r : rows) {
    EXPECT_GE(r.server_downtime_fraction, 0.0);
    EXPECT_LT(r.server_downtime_fraction, 1.0);
    if (r.hardware_tickets > 0) {
      ++with_failures;
      EXPECT_GT(r.mtbf_days, 0.0);
      EXPECT_LE(r.mtbf_days, fleet_.spec().num_days);
    } else {
      EXPECT_DOUBLE_EQ(r.mtbf_days, 0.0);
      EXPECT_DOUBLE_EQ(r.server_downtime_fraction, 0.0);
    }
  }
  EXPECT_GT(with_failures, fleet_.num_racks() / 2);
}

TEST_F(AnalyticsTest, ServerSurvivalCurvesAreValid) {
  const auto cohorts = server_survival_by(fleet_, log_, Cohort::kDataCenter);
  ASSERT_EQ(cohorts.size(), 2U);
  std::size_t servers = 0;
  for (const auto& c : cohorts) {
    servers += c.servers;
    EXPECT_LE(c.failures, c.servers);
    EXPECT_GT(c.rmst_days, 0.0);
    EXPECT_LE(c.rmst_days, fleet_.spec().num_days);
    double prev = 1.0;
    for (const auto& p : c.curve) {
      EXPECT_LE(p.survival, prev);
      EXPECT_GE(p.survival, 0.0);
      prev = p.survival;
    }
  }
  EXPECT_EQ(servers, fleet_.num_servers());
}

TEST_F(AnalyticsTest, SurvivalSeparatesSkuQuality) {
  const auto cohorts = server_survival_by(fleet_, log_, Cohort::kSku);
  const CohortSurvival* s2 = nullptr;
  const CohortSurvival* s4 = nullptr;
  for (const auto& c : cohorts) {
    if (c.label == "S2") s2 = &c;
    if (c.label == "S4") s4 = &c;
  }
  if (s2 == nullptr || s4 == nullptr) {
    GTEST_SKIP() << "test fleet lacks S2/S4 pair";
  }
  // S4 (planted 4x more reliable) must show longer failure-free time.
  EXPECT_GT(s4->rmst_days, s2->rmst_days);
}

}  // namespace
}  // namespace rainshine::core
