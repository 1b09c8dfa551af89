// vendor_scorecard — the Q2 procurement decision: "which SKU/vendor should I
// buy, and how much of a price premium is the reliable one worth?"
//
// Contrasts the raw per-SKU dashboard (single-factor) against the
// multi-factor normalized view, then prices the decision at several premium
// levels, reproducing the paper's warning: the SF view can make you pay a
// premium the true reliability gap does not justify.
//
// Run:  ./build/examples/vendor_scorecard [days]
#include <cstdio>

#include "args.hpp"
#include "rainshine/core/metrics.hpp"
#include "rainshine/core/sku_analysis.hpp"
#include "rainshine/util/strings.hpp"
#include "rainshine/simdc/tickets.hpp"

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

  core::SkuAnalysisOptions opt;
  opt.day_stride = 2;
  const core::SkuStudy study = core::compare_skus(metrics, env, opt);

  std::printf("=== Vendor scorecard (S1-S4) ===\n\n");
  std::printf("RAW dashboard (single factor) - what the ticket system shows:\n");
  std::printf("  %-4s %8s | %14s %14s\n", "SKU", "racks", "avg rate (sd)",
              "peak rate (sd)");
  for (const auto& m : study.sf) {
    std::printf("  %-4s %8zu | %7.4f (%5.3f) %8.2f (%5.2f)\n", m.sku.c_str(),
                m.racks, m.mean_lambda, m.lambda_stddev, m.peak_mu,
                m.peak_mu_stddev);
  }

  std::printf("\nNORMALIZED view (multi factor) - SKU effect with DC, workload,\n"
              "power and vintage influences removed:\n");
  std::printf("  %-4s %14s %14s\n", "SKU", "avg rate (sd)", "peak rate (sd)");
  for (const auto& l : study.mf_lambda) {
    double peak = 0.0;
    double peak_sd = 0.0;
    for (const auto& p : study.mf_peak_mu) {
      if (p.label == l.label) {
        peak = p.mean;
        peak_sd = p.stddev;
      }
    }
    std::printf("  %-4s %7.4f (%5.3f) %8.2f (%5.2f)\n", l.label.c_str(), l.mean,
                l.stddev, peak, peak_sd);
  }

  const tco::CostModel costs;
  std::printf("\nProcurement scenarios: replace incumbent S2 with candidate S4\n");
  std::printf("  %-22s %12s %12s %s\n", "S4 price vs S2", "SF estimate",
              "MF estimate", "verdict");
  for (const double ratio : {1.0, 1.2, 1.5, 2.0}) {
    const auto s = core::sku_tco_scenario(study, "S4", "S2", ratio, costs);
    const char* verdict =
        s.mf_savings_pct > 0 && s.sf_savings_pct > 0   ? "buy S4"
        : s.mf_savings_pct < 0 && s.sf_savings_pct > 0 ? "SF MISLEADS: premium not worth it"
        : s.mf_savings_pct > 0                         ? "buy S4 (SF pessimistic)"
                                                       : "keep S2";
    const std::string price = util::format_double(ratio, 1) + "x";
    std::printf("  %-21s %11.2f%% %11.2f%%  %s\n", price.c_str(),
                s.sf_savings_pct, s.mf_savings_pct, verdict);
  }
  return 0;
}
