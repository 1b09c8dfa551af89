// Input checks of the early-warning pipeline: a FeatureConfig that cannot
// describe a snapshot schedule or a trailing window, and a fit with no rows,
// are refused with util::precondition_error before any work is done.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "rainshine/predict/model.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::predict {
namespace {

class PredictInputTest : public ::testing::Test {
 protected:
  PredictInputTest()
      : fleet_([] {
          simdc::FleetSpec s = simdc::FleetSpec::test_default();
          s.num_days = 30;
          return s;
        }()),
        env_(fleet_, fleet_.spec().seed) {}

  void expect_refused(const FeatureConfig& config) {
    EXPECT_THROW(FeatureBuilder(fleet_, env_, config), util::precondition_error);
  }

  simdc::Fleet fleet_;
  simdc::EnvironmentModel env_;
};

TEST_F(PredictInputTest, FeatureBuilderRefusesCountsBelowOne) {
  EXPECT_NO_THROW(FeatureBuilder(fleet_, env_, FeatureConfig{}));
  for (const util::DayIndex bad : {0, -1}) {
    SCOPED_TRACE(bad);
    FeatureConfig warmup;
    warmup.warmup_days = bad;
    expect_refused(warmup);
    FeatureConfig stride;
    stride.snapshot_stride = bad;
    expect_refused(stride);
    FeatureConfig horizon;
    horizon.horizon_days = bad;
    expect_refused(horizon);
  }
}

TEST_F(PredictInputTest, FeatureBuilderRefusesWindowsThatAreNotAscending) {
  const std::vector<std::array<util::DayIndex, 3>> bad = {
      {30, 7, 90}, {7, 90, 30}, {7, 7, 90}, {7, 30, 30}, {0, 30, 90}};
  for (const auto& windows : bad) {
    SCOPED_TRACE(::testing::PrintToString(windows));
    FeatureConfig config;
    config.windows_days = windows;
    expect_refused(config);
  }
}

TEST(PredictFitTest, FitRiskModelRefusesAnEmptyRowSet) {
  const FeatureSet set;
  EXPECT_THROW(fit_risk_model(set, {}, cart::ForestConfig{}),
               util::precondition_error);
}

}  // namespace
}  // namespace rainshine::predict
