// What-if cost explorer: one sweep unifying the paper's Q1 (spare
// provisioning), Q3 (environmental set point) and the early-warning
// predictor into a single TCO-per-policy table.
//
// A policy is (set-point offset for the studied DC) x (provisioning
// approach) x (availability SLA). Its yearly cost decomposes into
//
//   spare capex / year   — the approach's fleet-wide overprovision fraction
//                          (core::provision_servers per workload, weighted
//                          by deployed servers) priced at server cost and
//                          amortized,
//   repair opex / year   — expected hardware failures under the offset
//                          (core::setpoint_tradeoff for the studied DC, the
//                          other DCs at their current set point) x repair
//                          event cost, discounted by the predictor: failures
//                          caught ahead of time (catch_rate = the model's
//                          recall at the alert budget) become planned swaps
//                          that cost a fraction of an emergency truck roll,
//   cooling opex / year  — tco::CoolingModel at the offset.
//
// Everything is deterministic and byte-identical at any RAINSHINE_THREADS
// (the provisioning study's forests are; the rest is closed-form), which
// the whatif determinism test pins on the formatted table.
#pragma once

#include <string>
#include <vector>

#include "rainshine/core/metrics.hpp"
#include "rainshine/core/provisioning.hpp"
#include "rainshine/core/setpoint_study.hpp"
#include "rainshine/tco/cost_model.hpp"

namespace rainshine::predict {

enum class Approach : std::uint8_t { kLB, kSF, kMF };

[[nodiscard]] std::string_view to_string(Approach a) noexcept;

struct WhatifOptions {
  /// Set-point deltas (F) for the studied DC, relative to today.
  std::vector<double> offsets_f = {-2, 0, 2, 4, 6};
  std::vector<double> slas = {0.95, 1.0};
  std::vector<Approach> approaches = {Approach::kLB, Approach::kSF,
                                      Approach::kMF};
  simdc::DataCenterId dc = simdc::DataCenterId::kDC1;
  /// Spare hardware is capitalized over this many years.
  double amortization_years = 3.0;
  /// Fraction of hardware failures the predictor catches ahead of time
  /// (recall at the operating alert budget; 0 = no predictor).
  double catch_rate = 0.0;
  /// Fraction of the repair-event cost a predicted (planned) swap saves.
  double planned_repair_discount = 0.5;
  /// Day stride for the set-point expectation sums.
  std::int32_t day_stride = 3;
  core::Granularity granularity = core::Granularity::kDaily;
  tco::CostModel costs;
  tco::CoolingModel cooling;
};

struct PolicyRow {
  double offset_f = 0;
  Approach approach = Approach::kSF;
  double sla = 0;
  double spare_pct = 0;        ///< fleet overprovision, % of deployed servers
  double spare_capex_year = 0; ///< amortized
  double hw_failures_year = 0; ///< whole fleet, studied DC at the offset
  double caught_year = 0;      ///< failures predicted ahead of time
  double repair_cost_year = 0; ///< after the planned-swap discount
  double cooling_cost_year = 0;
  double tco_year = 0;
};

struct WhatifStudy {
  simdc::DataCenterId dc{};
  double catch_rate = 0;
  std::size_t servers = 0;  ///< deployed servers across the fleet
  /// Sweep order: offset-major, then approach, then SLA.
  std::vector<PolicyRow> rows;
  std::size_t best = 0;  ///< index of the TCO-minimal row
};

/// Runs the sweep. `metrics` must be indexed over `fleet`'s window (stream
/// it once through a FeatureBuilder or MetricsSink and share the index).
[[nodiscard]] WhatifStudy whatif_sweep(const core::FailureMetrics& metrics,
                                       const simdc::EnvironmentModel& env,
                                       const simdc::HazardConfig& hazard_config,
                                       const WhatifOptions& options = {});

enum class SortKey : std::uint8_t {
  kTco,
  kOffset,
  kSpares,
  kRepair,
  kCooling,
  kSla,
};

/// Stable-sorts rows by `key` (ascending unless `descending`); ties keep
/// sweep order, so the result is deterministic.
void sort_rows(WhatifStudy& study, SortKey key, bool descending = false);

/// Renders the policy table: aligned text (csv = false) or CSV. `top_n`
/// limits the rows printed (0 = all). Output is byte-stable.
[[nodiscard]] std::string format_policy_table(const WhatifStudy& study,
                                              std::size_t top_n = 0,
                                              bool csv = false);

}  // namespace rainshine::predict
