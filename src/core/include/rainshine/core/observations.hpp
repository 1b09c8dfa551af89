// Feature-table assembly: the join of failure metrics, topology and
// environment into the candidate-feature table of Table III, one row per
// rack-day. Every figure bench and every CART model in the decision studies
// consumes one of these tables.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "rainshine/core/metrics.hpp"
#include "rainshine/simdc/environment.hpp"
#include "rainshine/table/table.hpp"

namespace rainshine::core {

/// Controls for table assembly.
struct ObservationOptions {
  /// Keep every `day_stride`-th day (1 = all). Strided subsampling keeps
  /// CART fitting tractable on the full fleet without biasing factor
  /// marginals (days are dropped deterministically, not at random).
  std::int32_t day_stride = 1;
  /// Skip days before a rack's commission date (it reports no telemetry).
  bool skip_pre_commission = true;
  /// Restrict rows to the half-open day window [first_day, last_day).
  /// `last_day = -1` means the fleet's full horizon. The rolling retrain
  /// loop (src/stream) uses this to fit on a trailing window; the stride
  /// phase stays anchored at `first_day` so identical windows yield
  /// identical tables regardless of how they were reached.
  util::DayIndex first_day = 0;
  util::DayIndex last_day = -1;
  /// Include µ columns (requires per-rack µ computation; mildly expensive).
  bool include_mu = true;
  Granularity mu_granularity = Granularity::kDaily;
};

/// Column names of the emitted table, centralized so analyses and tests
/// reference one vocabulary.
namespace col {
inline constexpr const char* kRack = "rack";
inline constexpr const char* kDc = "dc";
inline constexpr const char* kRegion = "region";
inline constexpr const char* kSku = "sku";
inline constexpr const char* kWorkload = "workload";
inline constexpr const char* kPowerKw = "power_kw";
inline constexpr const char* kAgeMonths = "age_months";
inline constexpr const char* kCommissionYear = "commission_year";
inline constexpr const char* kDay = "day";
inline constexpr const char* kWeekday = "weekday";
inline constexpr const char* kMonth = "month";
inline constexpr const char* kYear = "year";
inline constexpr const char* kTempF = "temp_f";
inline constexpr const char* kRh = "rh";
inline constexpr const char* kLambdaAll = "lambda_all";
inline constexpr const char* kLambdaHw = "lambda_hw";
inline constexpr const char* kLambdaDisk = "lambda_disk";
inline constexpr const char* kLambdaMem = "lambda_mem";
inline constexpr const char* kMuServer = "mu_server";
inline constexpr const char* kMuServerFrac = "mu_server_frac";
inline constexpr const char* kMuServerOther = "mu_server_other";
inline constexpr const char* kMuServerOtherFrac = "mu_server_other_frac";
inline constexpr const char* kMuDisk = "mu_disk";
inline constexpr const char* kMuDiskFrac = "mu_disk_frac";
inline constexpr const char* kMuDimm = "mu_dimm";
inline constexpr const char* kMuDimmFrac = "mu_dimm_frac";
}  // namespace col

/// Builds the rack-day observation table. Columns (see `col`):
///   nominal:  rack, dc, region, sku, workload, weekday, month
///   ordinal:  day, year, commission_year
///   continuous: power_kw, age_months, temp_f, rh,
///               lambda_all / lambda_hw / lambda_disk / lambda_mem (per day),
///               mu_server (+fraction), mu_disk, mu_dimm (if include_mu)
[[nodiscard]] table::Table rack_day_table(const FailureMetrics& metrics,
                                          const simdc::EnvironmentModel& env,
                                          const ObservationOptions& options = {});

/// Same, restricted to racks of one workload (Q1 provisions per workload).
[[nodiscard]] table::Table rack_day_table(const FailureMetrics& metrics,
                                          const simdc::EnvironmentModel& env,
                                          simdc::WorkloadId workload,
                                          const ObservationOptions& options = {});

/// The static rack-feature columns every MF model conditions on, in the
/// order the paper lists its λ ~ ... calls.
[[nodiscard]] std::vector<std::string> static_rack_features();

/// One row per rack of `racks`, in that order, holding the static features a
/// provisioner knows before deployment: dc, region, sku, workload, power_kw
/// and commission_year (as in the rack-day table). The per-rack studies
/// append their responses to it.
[[nodiscard]] table::Table static_rack_table(const util::Calendar& calendar,
                                             std::span<const simdc::Rack* const> racks);

}  // namespace rainshine::core
