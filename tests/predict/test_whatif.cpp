// whatif_sweep contract: sweep-order row layout, TCO decomposition
// arithmetic, the predictor credit, sorting (stable, best re-flagged),
// table formatting, and byte-identity of the formatted table across thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rainshine/predict/features.hpp"
#include "rainshine/predict/whatif.hpp"
#include "rainshine/util/parallel.hpp"

namespace rainshine::predict {
namespace {

constexpr util::DayIndex kDays = 100;

class WhatifTest : public ::testing::Test {
 protected:
  WhatifTest()
      : spec_([] {
          simdc::FleetSpec s = simdc::FleetSpec::test_default();
          s.num_days = kDays;
          return s;
        }()),
        fleet_(spec_),
        env_(fleet_, spec_.seed),
        hazard_(fleet_, env_),
        metrics_(fleet_, simdc::simulate(fleet_, env_, hazard_,
                                         {.seed = spec_.seed})) {}
  ~WhatifTest() override { util::clear_thread_override(); }

  [[nodiscard]] WhatifOptions small_options() const {
    WhatifOptions opt;
    opt.offsets_f = {0.0, 4.0};
    opt.slas = {0.95, 1.0};
    opt.approaches = {Approach::kSF, Approach::kMF};
    opt.catch_rate = 0.25;
    opt.day_stride = 5;
    return opt;
  }

  simdc::FleetSpec spec_;
  simdc::Fleet fleet_;
  simdc::EnvironmentModel env_;
  simdc::HazardModel hazard_;
  core::FailureMetrics metrics_;
};

TEST_F(WhatifTest, SweepOrderAndCostDecomposition) {
  const WhatifOptions opt = small_options();
  const WhatifStudy study =
      whatif_sweep(metrics_, env_, hazard_.config(), opt);

  ASSERT_EQ(study.rows.size(), 2U * 2U * 2U);  // offsets x approaches x slas
  EXPECT_EQ(study.servers, fleet_.num_servers());
  EXPECT_DOUBLE_EQ(study.catch_rate, 0.25);

  std::size_t i = 0;
  for (double offset : opt.offsets_f) {
    for (Approach approach : opt.approaches) {
      for (double sla : opt.slas) {
        const PolicyRow& r = study.rows[i++];
        EXPECT_EQ(r.offset_f, offset);
        EXPECT_EQ(r.approach, approach);
        EXPECT_EQ(r.sla, sla);
        // The yearly TCO is exactly its three parts.
        EXPECT_DOUBLE_EQ(r.tco_year, r.spare_capex_year + r.repair_cost_year +
                                         r.cooling_cost_year);
        // The predictor credit and the capex amortization are closed-form.
        EXPECT_GT(r.hw_failures_year, 0.0);
        EXPECT_DOUBLE_EQ(r.caught_year, r.hw_failures_year * opt.catch_rate);
        EXPECT_DOUBLE_EQ(r.spare_capex_year,
                         r.spare_pct / 100.0 *
                             static_cast<double>(study.servers) *
                             opt.costs.server_cost / opt.amortization_years);
      }
    }
  }

  // Spares depend on (approach, sla) only; failures/cooling on offset only.
  EXPECT_DOUBLE_EQ(study.rows[0].spare_pct, study.rows[4].spare_pct);
  EXPECT_DOUBLE_EQ(study.rows[3].spare_pct, study.rows[7].spare_pct);
  EXPECT_DOUBLE_EQ(study.rows[0].hw_failures_year,
                   study.rows[3].hw_failures_year);
  EXPECT_DOUBLE_EQ(study.rows[0].cooling_cost_year,
                   study.rows[3].cooling_cost_year);
  // A 100% SLA can only cost at least as much spare capacity as 95%.
  EXPECT_LE(study.rows[0].spare_pct, study.rows[1].spare_pct);

  // `best` points at the TCO minimum.
  for (const PolicyRow& r : study.rows)
    EXPECT_LE(study.rows[study.best].tco_year, r.tco_year);

  // A better predictor strictly cheapens repairs and touches nothing else.
  WhatifOptions eager = opt;
  eager.catch_rate = 0.75;
  const WhatifStudy caught =
      whatif_sweep(metrics_, env_, hazard_.config(), eager);
  ASSERT_EQ(caught.rows.size(), study.rows.size());
  for (std::size_t k = 0; k < study.rows.size(); ++k) {
    EXPECT_LT(caught.rows[k].repair_cost_year, study.rows[k].repair_cost_year);
    EXPECT_DOUBLE_EQ(caught.rows[k].spare_capex_year,
                     study.rows[k].spare_capex_year);
    EXPECT_DOUBLE_EQ(caught.rows[k].cooling_cost_year,
                     study.rows[k].cooling_cost_year);
  }
}

TEST_F(WhatifTest, SortRowsOrdersEveryKeyAndKeepsTheRowMultiset) {
  WhatifStudy study = whatif_sweep(metrics_, env_, hazard_.config(),
                                   small_options());
  std::vector<double> want_tcos;
  for (const PolicyRow& r : study.rows) want_tcos.push_back(r.tco_year);
  std::sort(want_tcos.begin(), want_tcos.end());

  for (SortKey key : {SortKey::kTco, SortKey::kOffset, SortKey::kSpares,
                      SortKey::kRepair, SortKey::kCooling, SortKey::kSla}) {
    for (bool desc : {false, true}) {
      sort_rows(study, key, desc);
      const auto value = [&](const PolicyRow& r) {
        switch (key) {
          case SortKey::kTco: return r.tco_year;
          case SortKey::kOffset: return r.offset_f;
          case SortKey::kSpares: return r.spare_capex_year;
          case SortKey::kRepair: return r.repair_cost_year;
          case SortKey::kCooling: return r.cooling_cost_year;
          case SortKey::kSla: return r.sla;
        }
        return r.tco_year;
      };
      EXPECT_TRUE(std::is_sorted(study.rows.begin(), study.rows.end(),
                                 [&](const PolicyRow& a, const PolicyRow& b) {
                                   return desc ? value(a) > value(b)
                                               : value(a) < value(b);
                                 }))
          << "key " << static_cast<int>(key) << " desc " << desc;
      for (const PolicyRow& r : study.rows)
        EXPECT_LE(study.rows[study.best].tco_year, r.tco_year);
    }
  }

  // Ascending-TCO sort pins the best row to the top; the multiset survives.
  sort_rows(study, SortKey::kTco, false);
  EXPECT_EQ(study.best, 0U);
  std::vector<double> got_tcos;
  for (const PolicyRow& r : study.rows) got_tcos.push_back(r.tco_year);
  EXPECT_EQ(got_tcos, want_tcos);
}

TEST_F(WhatifTest, FormatPolicyTableShapesAndTopN) {
  WhatifStudy study = whatif_sweep(metrics_, env_, hazard_.config(),
                                   small_options());
  sort_rows(study, SortKey::kTco);

  const auto lines = [](const std::string& text) {
    return static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
  };
  const std::string text = format_policy_table(study);
  EXPECT_EQ(text.rfind("what-if policies", 0), 0U);
  EXPECT_EQ(lines(text), 2 + study.rows.size());  // banner + header + rows
  // The best row (first after the TCO sort) carries the marker.
  EXPECT_EQ(text[text.find('\n', text.find('\n') + 1) + 1], '*');

  EXPECT_EQ(lines(format_policy_table(study, 3)), 2 + 3U);

  const std::string csv = format_policy_table(study, 0, true);
  EXPECT_EQ(csv.rfind("offset_f,approach,sla,", 0), 0U);
  EXPECT_EQ(lines(csv), 1 + study.rows.size());
  EXPECT_NE(csv.find(",SF,"), std::string::npos);
  EXPECT_NE(csv.find(",MF,"), std::string::npos);
}

TEST_F(WhatifTest, FormattedTableByteIdenticalAcrossThreadCounts) {
  // The provisioning studies inside the sweep grow forests; the claim is
  // that none of it depends on the worker count.
  std::string want;
  for (const std::size_t threads : {1UL, 3UL}) {
    util::set_num_threads(threads);
    // Rebuild the metrics under this thread count too: the whole input
    // chain, not just the sweep, must be invariant.
    const core::FailureMetrics metrics(
        fleet_, simdc::simulate(fleet_, env_, hazard_, {.seed = spec_.seed}));
    WhatifStudy study =
        whatif_sweep(metrics, env_, hazard_.config(), small_options());
    sort_rows(study, SortKey::kTco);
    const std::string text = format_policy_table(study) +
                             format_policy_table(study, 0, true);
    if (want.empty()) {
      want = text;
      ASSERT_FALSE(want.empty());
    } else {
      EXPECT_EQ(text, want) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace rainshine::predict
