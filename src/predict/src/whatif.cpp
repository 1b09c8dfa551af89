#include "rainshine/predict/whatif.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "rainshine/obs/metrics.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::predict {

namespace {

/// Fleet-wide overprovision percentage per (approach, sla): the per-workload
/// studies weighted by deployed servers.
struct SparePlanTable {
  // [approach][sla index]
  std::array<std::vector<double>, 3> pct;
  std::size_t servers = 0;
};

SparePlanTable weighted_spares(const core::FailureMetrics& metrics,
                               const simdc::EnvironmentModel& env,
                               const WhatifOptions& options) {
  const simdc::Fleet& fleet = metrics.fleet();
  std::array<std::size_t, simdc::kNumWorkloads> servers_of{};
  for (const auto& rack : fleet.racks())
    servers_of[static_cast<std::size_t>(rack.workload)] +=
        static_cast<std::size_t>(rack.servers());

  SparePlanTable table;
  for (auto& v : table.pct) v.assign(options.slas.size(), 0.0);
  for (std::size_t w = 0; w < simdc::kNumWorkloads; ++w) {
    if (servers_of[w] == 0) continue;
    table.servers += servers_of[w];
    core::ProvisioningOptions popt;
    popt.granularity = options.granularity;
    popt.slas = options.slas;
    const auto study = core::provision_servers(
        metrics, env, static_cast<simdc::WorkloadId>(w), popt);
    const std::array<const core::ApproachResult*, 3> by_approach = {
        &study.lb, &study.sf, &study.mf};
    for (std::size_t a = 0; a < 3; ++a)
      for (std::size_t s = 0; s < options.slas.size(); ++s)
        table.pct[a][s] += by_approach[a]->overprovision_pct[s] *
                           static_cast<double>(servers_of[w]);
  }
  util::require(table.servers > 0, "whatif_sweep: fleet has no servers");
  for (auto& v : table.pct)
    for (double& p : v) p /= static_cast<double>(table.servers);
  return table;
}

void recompute_best(WhatifStudy& study) {
  study.best = 0;
  for (std::size_t i = 1; i < study.rows.size(); ++i)
    if (study.rows[i].tco_year < study.rows[study.best].tco_year)
      study.best = i;
}

[[nodiscard]] double sort_value(const PolicyRow& r, SortKey key) noexcept {
  switch (key) {
    case SortKey::kTco: return r.tco_year;
    case SortKey::kOffset: return r.offset_f;
    case SortKey::kSpares: return r.spare_capex_year;
    case SortKey::kRepair: return r.repair_cost_year;
    case SortKey::kCooling: return r.cooling_cost_year;
    case SortKey::kSla: return r.sla;
  }
  return r.tco_year;
}

}  // namespace

std::string_view to_string(Approach a) noexcept {
  switch (a) {
    case Approach::kLB: return "LB";
    case Approach::kSF: return "SF";
    case Approach::kMF: return "MF";
  }
  return "?";
}

WhatifStudy whatif_sweep(const core::FailureMetrics& metrics,
                         const simdc::EnvironmentModel& env,
                         const simdc::HazardConfig& hazard_config,
                         const WhatifOptions& options) {
  util::require(!options.offsets_f.empty() && !options.slas.empty() &&
                    !options.approaches.empty(),
                "whatif_sweep: empty sweep axis");
  const simdc::Fleet& fleet = metrics.fleet();

  const SparePlanTable spares = weighted_spares(metrics, env, options);

  // Studied DC swept over the offsets; every other DC contributes its
  // current-set-point baseline to the fleet totals.
  core::SetpointOptions sopt;
  sopt.dc = options.dc;
  sopt.offsets_f = options.offsets_f;
  sopt.day_stride = options.day_stride;
  const auto swept = core::setpoint_tradeoff(fleet, env, hazard_config,
                                             options.costs, options.cooling,
                                             sopt);
  double base_failures = 0, base_repair = 0, base_cooling = 0;
  for (simdc::DataCenterId other :
       {simdc::DataCenterId::kDC1, simdc::DataCenterId::kDC2}) {
    if (other == options.dc) continue;
    bool present = false;
    for (const auto& rack : fleet.racks())
      if (rack.dc == other) { present = true; break; }
    if (!present) continue;
    core::SetpointOptions bopt;
    bopt.dc = other;
    bopt.offsets_f = {0.0};
    bopt.day_stride = options.day_stride;
    const auto base = core::setpoint_tradeoff(fleet, env, hazard_config,
                                              options.costs, options.cooling,
                                              bopt);
    base_failures += base.points[0].hw_failures_per_year;
    base_repair += base.points[0].repair_cost_per_year;
    base_cooling += base.points[0].cooling_cost_per_year;
  }

  WhatifStudy study;
  study.dc = options.dc;
  study.catch_rate = options.catch_rate;
  study.servers = spares.servers;
  for (std::size_t o = 0; o < options.offsets_f.size(); ++o) {
    const auto& point = swept.points[o];
    const double failures = point.hw_failures_per_year + base_failures;
    const double repair_raw = point.repair_cost_per_year + base_repair;
    const double cooling = point.cooling_cost_per_year + base_cooling;
    const double caught = failures * options.catch_rate;
    const double repair =
        repair_raw - caught * options.planned_repair_discount *
                         options.costs.repair_event_cost;
    for (Approach approach : options.approaches) {
      for (std::size_t s = 0; s < options.slas.size(); ++s) {
        PolicyRow row;
        row.offset_f = options.offsets_f[o];
        row.approach = approach;
        row.sla = options.slas[s];
        row.spare_pct = spares.pct[static_cast<std::size_t>(approach)][s];
        row.spare_capex_year = row.spare_pct / 100.0 *
                               static_cast<double>(spares.servers) *
                               options.costs.server_cost /
                               options.amortization_years;
        row.hw_failures_year = failures;
        row.caught_year = caught;
        row.repair_cost_year = repair;
        row.cooling_cost_year = cooling;
        row.tco_year = row.spare_capex_year + repair + cooling;
        study.rows.push_back(row);
      }
    }
  }
  recompute_best(study);
  obs::registry().counter("predict.whatif_policies").add(study.rows.size());
  return study;
}

void sort_rows(WhatifStudy& study, SortKey key, bool descending) {
  std::stable_sort(study.rows.begin(), study.rows.end(),
                   [&](const PolicyRow& a, const PolicyRow& b) {
                     const double va = sort_value(a, key);
                     const double vb = sort_value(b, key);
                     return descending ? va > vb : va < vb;
                   });
  recompute_best(study);
}

std::string format_policy_table(const WhatifStudy& study, std::size_t top_n,
                                bool csv) {
  std::string out;
  char line[256];
  const std::size_t n = top_n == 0 ? study.rows.size()
                                   : std::min(top_n, study.rows.size());
  if (csv) {
    out += "offset_f,approach,sla,spare_pct,spare_capex_yr,hw_failures_yr,"
           "caught_yr,repair_yr,cooling_yr,tco_yr\n";
    for (std::size_t i = 0; i < n; ++i) {
      const PolicyRow& r = study.rows[i];
      std::snprintf(line, sizeof line,
                    "%+.1f,%s,%.2f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
                    r.offset_f, std::string(to_string(r.approach)).c_str(),
                    r.sla, r.spare_pct, r.spare_capex_year, r.hw_failures_year,
                    r.caught_year, r.repair_cost_year, r.cooling_cost_year,
                    r.tco_year);
      out += line;
    }
    return out;
  }

  std::snprintf(line, sizeof line,
                "what-if policies  dc=%s  servers=%zu  catch_rate=%.3f  "
                "(costs in server-cost units / year)\n",
                std::string(simdc::to_string(study.dc)).c_str(), study.servers,
                study.catch_rate);
  out += line;
  out += "  offset  appr   sla   spare%  spare/yr  fails/yr  caught/yr"
         "  repair/yr  cool/yr     tco/yr\n";
  // The best row is flagged wherever sorting put it.
  for (std::size_t i = 0; i < n; ++i) {
    const PolicyRow& r = study.rows[i];
    std::snprintf(line, sizeof line,
                  "%c %+6.1f  %4s  %.2f  %7.2f  %8.1f  %8.1f  %9.1f  %9.1f"
                  "  %7.1f  %9.1f\n",
                  i == study.best ? '*' : ' ', r.offset_f,
                  std::string(to_string(r.approach)).c_str(), r.sla,
                  r.spare_pct, r.spare_capex_year, r.hw_failures_year,
                  r.caught_year, r.repair_cost_year, r.cooling_cost_year,
                  r.tco_year);
    out += line;
  }
  return out;
}

}  // namespace rainshine::predict
