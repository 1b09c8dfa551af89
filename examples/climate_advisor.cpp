// climate_advisor — the Q3 operating-range decision: "how far can I relax
// the temperature/humidity set points before reliability pays for it?"
//
// Runs the single-factor temperature views, the multi-factor disk-failure
// tree, reports the environmental thresholds it discovered per DC, and
// sketches the cost-reliability framing the paper closes with.
//
// Run:  ./build/examples/climate_advisor [days]
#include <cstdio>

#include "args.hpp"
#include "rainshine/core/environment_analysis.hpp"
#include "rainshine/core/metrics.hpp"
#include "rainshine/simdc/tickets.hpp"
#include "rainshine/util/strings.hpp"

using namespace rainshine;

int main(int argc, char** argv) {
  simdc::FleetSpec spec = simdc::FleetSpec::paper_default();
  spec.num_days = examples::int_arg(argc, argv, 1, "days", 1, 100000, 365);
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, spec.seed);
  const simdc::HazardModel hazard(fleet, env);
  std::printf("Simulating %d days over %zu racks...\n\n", spec.num_days,
              fleet.num_racks());
  // Stream the sweep straight into the metrics index (no TicketLog).
  core::FailureMetrics metrics(fleet);
  core::MetricsSink sink(metrics);
  simulate_streamed(fleet, hazard, sink, {.seed = spec.seed});

  core::EnvironmentOptions opt;
  opt.day_stride = 2;
  const auto study = core::analyze_environment(metrics, env, opt);

  std::printf("=== Climate advisor ===\n\n");
  std::printf("Single-factor check - ALL failures by temperature (F):\n");
  for (const auto& row : study.all_by_temp) {
    std::printf("  %-8s mean %7.4f  sd %7.4f  (n=%zu)\n", row.label.c_str(),
                row.mean, row.stddev, row.count);
  }
  std::printf("  -> flat means, wide spread: temperature alone tells you little.\n\n");

  std::printf("Single-factor check - DISK failures by temperature (F):\n");
  for (const auto& row : study.disk_by_temp) {
    std::printf("  %-8s mean %7.4f  sd %7.4f  (n=%zu)\n", row.label.c_str(),
                row.mean, row.stddev, row.count);
  }
  std::printf("  -> a clear upward trend once isolated to disks.\n\n");

  std::printf("Multi-factor verdict (CART on disk failures, all factors):\n");
  const auto fmt = [](const std::optional<double>& v) {
    return v ? util::format_double(*v, 1) : std::string("none found");
  };
  std::printf("  DC1 temperature threshold: %s F\n",
              fmt(study.dc1_temp_split).c_str());
  std::printf("  DC1 humidity threshold (hot branch): %s %%\n",
              fmt(study.dc1_rh_split).c_str());
  std::printf("  DC2 temperature threshold: %s\n", fmt(study.dc2_temp_split).c_str());
  std::printf("  factor ranking:");
  for (std::size_t i = 0; i < study.factors.size() && i < 5; ++i) {
    std::printf(" %s(%.2f)", study.factors[i].feature.c_str(),
                study.factors[i].importance);
  }
  std::printf("\n\nDisk failure rate by regime (mean tickets/rack-day):\n");
  for (const auto& cell : study.cells) {
    std::printf("  %-4s %-28s %8.4f  (n=%zu)\n", cell.dc.c_str(),
                cell.condition.c_str(), cell.mean_rate, cell.n);
  }

  std::printf("\nOperator guidance:\n"
              "  * DC1 (adiabatic): keep inlets at or below the discovered\n"
              "    threshold, and if running hot to save cooling power, do NOT\n"
              "    let relative humidity drop below the discovered floor - the\n"
              "    combination is what spikes disk failures.\n"
              "  * DC2 (chilled water): no environmental sensitivity found in\n"
              "    range; set points there can chase energy savings.\n"
              "  * Weigh the spare-capacity cost of any relaxed set point\n"
              "    against cooling opex (see tco::CostModel) before changing\n"
              "    controls.\n");
  return 0;
}
