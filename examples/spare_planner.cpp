// spare_planner — an operator's walk-through of the Q1 decision: "how many
// spare servers (or component spares) does each rack of my workload need to
// meet its availability SLA?"
//
// Demonstrates the full public API path: simulate (or ingest) a ticket
// stream, index metrics, run the LB/SF/MF comparison at both daily and
// hourly accounting, inspect the MF clusters and their rules, and price the
// component-level alternative.
//
// Run:  ./build/examples/spare_planner [workload 1-7] [days]
#include <cstdio>

#include "args.hpp"
#include "rainshine/core/metrics.hpp"
#include "rainshine/core/provisioning.hpp"
#include "rainshine/simdc/tickets.hpp"

using namespace rainshine;

int main(int argc, char** argv) {
  const int wl_num = examples::int_arg(argc, argv, 1, "workload", 1, 7, 6);
  const auto workload = static_cast<simdc::WorkloadId>(wl_num - 1);

  simdc::FleetSpec spec = simdc::FleetSpec::paper_default();
  spec.num_days = examples::int_arg(argc, argv, 2, "days", 1, 100000, 365);
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, spec.seed);
  const simdc::HazardModel hazard(fleet, env);
  std::printf("Simulating %d days over %zu racks...\n", spec.num_days,
              fleet.num_racks());
  // Stream the sweep straight into the metrics index: no TicketLog ever
  // materializes, so this path is fleet-size-independent in memory.
  core::FailureMetrics metrics(fleet);
  core::MetricsSink sink(metrics);
  simulate_streamed(fleet, hazard, sink, {.seed = spec.seed});

  std::printf("\n=== Spare planning for workload W%d (%zu racks) ===\n\n", wl_num,
              fleet.racks_of(workload).size());

  for (const auto granularity :
       {core::Granularity::kDaily, core::Granularity::kHourly}) {
    core::ProvisioningOptions opt;
    opt.granularity = granularity;
    const auto study = core::provision_servers(metrics, env, workload, opt);
    std::printf("%s accounting:\n",
                granularity == core::Granularity::kDaily ? "DAILY" : "HOURLY");
    std::printf("  %-6s %12s %12s %12s\n", "SLA", "clairvoyant", "multi-factor",
                "single-factor");
    for (std::size_t s = 0; s < study.slas.size(); ++s) {
      std::printf("  %-5.0f%% %11.2f%% %11.2f%% %11.2f%%\n", study.slas[s] * 100,
                  study.lb.overprovision_pct[s], study.mf.overprovision_pct[s],
                  study.sf.overprovision_pct[s]);
    }
    if (granularity == core::Granularity::kDaily) {
      std::printf("\n  MF rack clusters (provision each group separately):\n");
      for (std::size_t c = 0; c < study.clusters.size(); ++c) {
        const auto& cluster = study.clusters[c];
        std::printf("   #%zu: %3zu racks, need %5.1f%% spares @100%% SLA  [%s]\n",
                    c + 1, cluster.rack_ids.size(),
                    100.0 * cluster.requirement.back(), cluster.rule.c_str());
      }
      std::printf("  key factors:");
      for (std::size_t i = 0; i < study.factors.size() && i < 4; ++i) {
        std::printf(" %s(%.2f)", study.factors[i].feature.c_str(),
                    study.factors[i].importance);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  const tco::CostModel costs;
  const auto comp =
      core::provision_components(metrics, env, workload, 1.0, costs, {});
  std::printf("Component-level alternative @100%% SLA (cost, %% of server capex):\n");
  std::printf("  server-level spares:    MF %6.2f%%   SF %6.2f%%\n",
              comp.mf.server_level, comp.sf.server_level);
  std::printf("  component-level spares: MF %6.2f%%   SF %6.2f%%\n",
              comp.mf.component_level, comp.sf.component_level);
  const double saving = 100.0 *
                        (comp.mf.server_level - comp.mf.component_level) /
                        comp.mf.server_level;
  std::printf("  => MF verdict: component spares %s by %.1f%%\n",
              saving >= 0 ? "cheaper" : "more expensive", std::abs(saving));
  return 0;
}
