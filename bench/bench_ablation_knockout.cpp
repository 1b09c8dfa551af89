// Ablation — ground-truth factor knockout. Re-simulates the fleet with one
// planted effect disabled at a time and reports how the corresponding
// single-factor marginal flattens. This validates that each marginal in
// Figs. 3-9/17 is driven by its intended mechanism and not an artifact of
// the generator's other machinery.
#include <cstdio>

#include "common.hpp"
#include "rainshine/core/marginals.hpp"
#include "rainshine/simdc/tickets.hpp"
#include "rainshine/stats/descriptive.hpp"

using namespace rainshine;

namespace {

/// Peak-to-trough ratio of the non-empty group means of a marginal.
double contrast(const std::vector<stats::BinnedRow>& rows) {
  double lo = 1e300;
  double hi = 0.0;
  for (const auto& r : rows) {
    if (r.count < 200) continue;  // skip sparsely populated groups
    lo = std::min(lo, r.mean);
    hi = std::max(hi, r.mean);
  }
  return lo > 0.0 ? hi / lo : 0.0;
}

struct Variant {
  const char* name;
  simdc::HazardConfig config;
  const char* marginal;  // which marginal should flatten
};

}  // namespace

int main() {
  simdc::FleetSpec spec = simdc::FleetSpec::paper_default();
  spec.num_days =
      static_cast<util::DayIndex>(bench::env_int("RAINSHINE_DAYS", 365, 1, 100000));
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, spec.seed);

  simdc::HazardConfig baseline;

  simdc::HazardConfig no_weekday = baseline;
  no_weekday.weekday_hw = 1.0;
  no_weekday.weekday_sw = 1.0;

  simdc::HazardConfig no_season = baseline;
  no_season.month_mult.fill(1.0);

  simdc::HazardConfig no_sku = baseline;
  no_sku.sku_hw.fill(1.0);
  no_sku.sku_disk.fill(1.0);

  simdc::HazardConfig no_power = baseline;
  no_power.power_slope_per_kw = 0.0;

  simdc::HazardConfig no_env = baseline;
  no_env.env_sensitive = {false, false};
  no_env.disk_temp_slope_per_f = 0.0;

  const Variant variants[] = {
      {"baseline", baseline, "-"},
      {"no weekday effect", no_weekday, "Fig. 3 (weekday)"},
      {"no seasonality", no_season, "Fig. 4 (month)"},
      {"no SKU effect", no_sku, "Fig. 7 (SKU)"},
      {"no power effect", no_power, "Fig. 8 (power)"},
      {"no environment", no_env, "Figs. 5/17 (RH, temp-vs-disk)"},
  };

  std::printf("### Ablation - ground-truth factor knockout (%d days)\n\n",
              spec.num_days);
  std::printf("%-20s | %8s %8s %8s %8s %8s | %s\n", "variant", "weekday",
              "month", "sku", "power", "rh", "expected flattening");
  for (const Variant& v : variants) {
    const simdc::HazardModel hazard(fleet, env, v.config);
    const simdc::TicketLog log = simulate(fleet, env, hazard, {.seed = spec.seed});
    const core::FailureMetrics metrics(fleet, log);
    const core::Marginals marginals(metrics, env, /*day_stride=*/2);
    std::printf("%-20s | %8.2f %8.2f %8.2f %8.2f %8.2f | %s\n", v.name,
                contrast(marginals.by_weekday()), contrast(marginals.by_month()),
                contrast(marginals.by_sku()), contrast(marginals.by_power()),
                contrast(marginals.by_humidity()), v.marginal);
  }
  std::printf("\n(each cell = max/min group-mean ratio of that marginal; the\n"
              " knocked-out row should be markedly flatter in its own column)\n");
  return 0;
}
