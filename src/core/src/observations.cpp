#include "rainshine/core/observations.hpp"

#include <algorithm>
#include <optional>

#include "rainshine/util/check.hpp"

namespace rainshine::core {

namespace {

table::Table build(const FailureMetrics& metrics, const simdc::EnvironmentModel& env,
                   std::optional<simdc::WorkloadId> workload,
                   const ObservationOptions& opt) {
  util::require(opt.day_stride >= 1, "day_stride must be >= 1");
  util::require(opt.first_day >= 0, "first_day must be >= 0");
  const util::DayIndex last_day =
      opt.last_day < 0 ? metrics.fleet().spec().num_days
                       : std::min(opt.last_day, metrics.fleet().spec().num_days);
  util::require(opt.first_day <= last_day,
                "observation window is empty: first_day > last_day");
  util::require(!opt.include_mu || opt.mu_granularity == Granularity::kDaily ||
                    opt.mu_granularity == Granularity::kHourly,
                "observation rows are per-day; µ granularity must be daily or hourly");
  const Fleet& fleet = metrics.fleet();
  const util::Calendar& cal = fleet.calendar();

  using table::ColumnType;
  table::Column rack_col(ColumnType::kNominal), dc(ColumnType::kNominal),
      region(ColumnType::kNominal), sku(ColumnType::kNominal),
      workload_col(ColumnType::kNominal), weekday(ColumnType::kNominal),
      month(ColumnType::kNominal);
  table::Column commission_year(ColumnType::kOrdinal),
      day_col(ColumnType::kOrdinal), year(ColumnType::kOrdinal);
  // Default-constructed columns are continuous.
  table::Column power_kw, age_months, temp_f, rh, lambda_all, lambda_hw,
      lambda_disk, lambda_mem, mu_server, mu_server_frac, mu_server_other,
      mu_server_other_frac, mu_disk, mu_disk_frac, mu_dimm, mu_dimm_frac;

  for (const simdc::Rack& rack : fleet.racks()) {
    if (workload && rack.workload != *workload) continue;

    // µ series are only materialized when requested; the daily index maps
    // directly for kDaily, and for kHourly we take the day's peak so the
    // row stays one-per-day.
    std::vector<std::uint16_t> mu_server_series;
    std::vector<std::uint16_t> mu_server_other_series;
    std::vector<std::uint16_t> mu_disk_series;
    std::vector<std::uint16_t> mu_dimm_series;
    if (opt.include_mu) {
      mu_server_series = metrics.mu_series(rack.id, DeviceKind::kServer,
                                           opt.mu_granularity,
                                           /*server_level_all=*/true);
      mu_server_other_series =
          metrics.mu_series(rack.id, DeviceKind::kServer, opt.mu_granularity);
      mu_disk_series =
          metrics.mu_series(rack.id, DeviceKind::kDisk, opt.mu_granularity);
      mu_dimm_series =
          metrics.mu_series(rack.id, DeviceKind::kDimm, opt.mu_granularity);
    }
    const auto mu_at = [&](const std::vector<std::uint16_t>& series,
                           util::DayIndex day) -> double {
      if (opt.mu_granularity == Granularity::kDaily) {
        return series[static_cast<std::size_t>(day)];
      }
      std::uint16_t peak = 0;
      const std::size_t base = static_cast<std::size_t>(day) * util::kHoursPerDay;
      for (std::size_t h = 0; h < util::kHoursPerDay; ++h) {
        peak = std::max(peak, series[base + h]);
      }
      return peak;
    };

    const std::string rack_label = "R" + std::to_string(rack.id);
    const std::string region_label = rack.region_label();
    const std::int32_t rack_commission_year = cal.year_offset(rack.commission_day);

    for (util::DayIndex day = opt.first_day; day < last_day;
         day += opt.day_stride) {
      if (opt.skip_pre_commission && day < rack.commission_day) continue;
      const simdc::Conditions c = env.daily_mean(rack, day);

      rack_col.push_nominal(rack_label);
      dc.push_nominal(simdc::to_string(rack.dc));
      region.push_nominal(region_label);
      sku.push_nominal(simdc::to_string(rack.sku));
      workload_col.push_nominal(simdc::to_string(rack.workload));
      power_kw.push_continuous(rack.rated_power_kw);
      age_months.push_continuous(rack.age_months(day));
      commission_year.push_ordinal(rack_commission_year);
      day_col.push_ordinal(day);
      weekday.push_nominal(util::to_string(cal.weekday(day)));
      month.push_nominal(util::to_string(cal.month(day)));
      year.push_ordinal(cal.year_offset(day));
      temp_f.push_continuous(c.temperature_f);
      rh.push_continuous(c.relative_humidity);
      lambda_all.push_continuous(metrics.total_count(rack.id, day));
      lambda_hw.push_continuous(metrics.hardware_count(rack.id, day));
      lambda_disk.push_continuous(
          metrics.count(rack.id, day, FaultType::kDiskFailure));
      lambda_mem.push_continuous(
          metrics.count(rack.id, day, FaultType::kMemoryFailure));
      if (opt.include_mu) {
        const double mu_s = mu_at(mu_server_series, day);
        const double mu_so = mu_at(mu_server_other_series, day);
        const double mu_dk = mu_at(mu_disk_series, day);
        const double mu_dm = mu_at(mu_dimm_series, day);
        mu_server.push_continuous(mu_s);
        mu_server_frac.push_continuous(mu_s / rack.servers());
        mu_server_other.push_continuous(mu_so);
        mu_server_other_frac.push_continuous(mu_so / rack.servers());
        mu_disk.push_continuous(mu_dk);
        mu_disk_frac.push_continuous(mu_dk / rack.disks());
        mu_dimm.push_continuous(mu_dm);
        mu_dimm_frac.push_continuous(mu_dm / rack.dimms());
      }
    }
  }

  table::Table out;
  out.add_column(col::kRack, std::move(rack_col));
  out.add_column(col::kDc, std::move(dc));
  out.add_column(col::kRegion, std::move(region));
  out.add_column(col::kSku, std::move(sku));
  out.add_column(col::kWorkload, std::move(workload_col));
  out.add_column(col::kPowerKw, std::move(power_kw));
  out.add_column(col::kAgeMonths, std::move(age_months));
  out.add_column(col::kCommissionYear, std::move(commission_year));
  out.add_column(col::kDay, std::move(day_col));
  out.add_column(col::kWeekday, std::move(weekday));
  out.add_column(col::kMonth, std::move(month));
  out.add_column(col::kYear, std::move(year));
  out.add_column(col::kTempF, std::move(temp_f));
  out.add_column(col::kRh, std::move(rh));
  out.add_column(col::kLambdaAll, std::move(lambda_all));
  out.add_column(col::kLambdaHw, std::move(lambda_hw));
  out.add_column(col::kLambdaDisk, std::move(lambda_disk));
  out.add_column(col::kLambdaMem, std::move(lambda_mem));
  if (opt.include_mu) {
    out.add_column(col::kMuServer, std::move(mu_server));
    out.add_column(col::kMuServerFrac, std::move(mu_server_frac));
    out.add_column(col::kMuServerOther, std::move(mu_server_other));
    out.add_column(col::kMuServerOtherFrac, std::move(mu_server_other_frac));
    out.add_column(col::kMuDisk, std::move(mu_disk));
    out.add_column(col::kMuDiskFrac, std::move(mu_disk_frac));
    out.add_column(col::kMuDimm, std::move(mu_dimm));
    out.add_column(col::kMuDimmFrac, std::move(mu_dimm_frac));
  }
  return out;
}

}  // namespace

table::Table rack_day_table(const FailureMetrics& metrics,
                            const simdc::EnvironmentModel& env,
                            const ObservationOptions& options) {
  return build(metrics, env, std::nullopt, options);
}

table::Table rack_day_table(const FailureMetrics& metrics,
                            const simdc::EnvironmentModel& env,
                            simdc::WorkloadId workload,
                            const ObservationOptions& options) {
  return build(metrics, env, workload, options);
}

std::vector<std::string> static_rack_features() {
  return {col::kDc,       col::kRegion,        col::kSku,
          col::kWorkload, col::kPowerKw,       col::kAgeMonths,
          col::kCommissionYear};
}

table::Table static_rack_table(const util::Calendar& calendar,
                               std::span<const simdc::Rack* const> racks) {
  using table::ColumnType;
  table::Column dc(ColumnType::kNominal), region(ColumnType::kNominal),
      sku(ColumnType::kNominal), workload(ColumnType::kNominal), power_kw,
      commission_year(ColumnType::kOrdinal);
  for (const simdc::Rack* rack : racks) {
    dc.push_nominal(simdc::to_string(rack->dc));
    region.push_nominal(rack->region_label());
    sku.push_nominal(simdc::to_string(rack->sku));
    workload.push_nominal(simdc::to_string(rack->workload));
    power_kw.push_continuous(rack->rated_power_kw);
    commission_year.push_ordinal(calendar.year_offset(rack->commission_day));
  }
  table::Table out;
  out.add_column(col::kDc, std::move(dc));
  out.add_column(col::kRegion, std::move(region));
  out.add_column(col::kSku, std::move(sku));
  out.add_column(col::kWorkload, std::move(workload));
  out.add_column(col::kPowerKw, std::move(power_kw));
  out.add_column(col::kCommissionYear, std::move(commission_year));
  return out;
}

}  // namespace rainshine::core
