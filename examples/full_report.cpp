// full_report — runs the complete analysis suite and writes a single
// markdown report (default: rainshine_report.md) an operator could hand to
// capacity planning: fleet summary, ticket mix, factor marginals, all three
// decision studies, repair analytics and the early-warning scorecard.
//
// Run:  ./build/examples/full_report [days] [output.md]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "args.hpp"
#include "rainshine/core/environment_analysis.hpp"
#include "rainshine/core/marginals.hpp"
#include "rainshine/core/provisioning.hpp"
#include "rainshine/core/repair_analytics.hpp"
#include "rainshine/core/sku_analysis.hpp"
#include "rainshine/predict/eval.hpp"
#include "rainshine/predict/model.hpp"
#include "rainshine/util/strings.hpp"

using namespace rainshine;

namespace {

void marginal_section(std::ofstream& md, const std::string& title,
                      const std::vector<stats::BinnedRow>& rows) {
  md << "### " << title << "\n\n| group | mean | sd | n |\n|---|---|---|---|\n";
  for (const auto& r : rows) {
    md << "| " << r.label << " | " << util::format_double(r.mean, 4) << " | "
       << util::format_double(r.stddev, 4) << " | " << r.count << " |\n";
  }
  md << "\n";
}

/// Everything up to repair analytics: the paper's descriptive and decision
/// studies over one simulated ticket log, freed before the early warning.
void study_sections(std::ofstream& md, const simdc::Fleet& fleet,
                    const simdc::EnvironmentModel& env,
                    const simdc::HazardModel& hazard) {
  const simdc::FleetSpec& spec = fleet.spec();
  std::printf("simulating %d days over %zu racks...\n", spec.num_days,
              fleet.num_racks());
  const simdc::TicketLog log = simulate(fleet, env, hazard, {.seed = spec.seed});
  const core::FailureMetrics metrics(fleet, log);

  md << "# Fleet reliability report\n\n";
  md << "Window: " << spec.num_days << " days from "
     << util::to_string(spec.epoch) << ". Fleet: " << fleet.num_racks()
     << " racks / " << fleet.num_servers() << " servers. Tickets: "
     << log.size() << " (" << log.hardware_true_positives().size()
     << " confirmed hardware).\n\n";

  md << "## Ticket classification\n\n| category | fault | DC1 % | DC2 % |\n"
        "|---|---|---|---|\n";
  for (const auto& row : core::ticket_mix(fleet, log)) {
    md << "| " << row.category << " | " << row.fault << " | "
       << util::format_double(row.dc1_pct, 2) << " | "
       << util::format_double(row.dc2_pct, 2) << " |\n";
  }
  md << "\n## Factor marginals (total tickets per rack-day)\n\n";
  std::printf("computing marginals...\n");
  const core::Marginals marginals(metrics, env, 2);
  marginal_section(md, "By DC region", marginals.by_region());
  marginal_section(md, "By workload", marginals.by_workload());
  marginal_section(md, "By SKU", marginals.by_sku());
  marginal_section(md, "By rack power (kW)", marginals.by_power());
  marginal_section(md, "By equipment age (months)", marginals.by_age());

  std::printf("running Q1 (provisioning)...\n");
  md << "## Q1 — spare provisioning\n\n";
  for (const auto wl : {simdc::WorkloadId::kW1, simdc::WorkloadId::kW6}) {
    const auto study = core::provision_servers(metrics, env, wl, {});
    md << "### Workload " << to_string(wl) << " (" << study.clusters.size()
       << " MF clusters)\n\n| SLA | clairvoyant | multi-factor | single-factor |\n"
          "|---|---|---|---|\n";
    for (std::size_t s = 0; s < study.slas.size(); ++s) {
      md << "| " << util::format_double(100 * study.slas[s], 0) << "% | "
         << util::format_double(study.lb.overprovision_pct[s], 2) << "% | "
         << util::format_double(study.mf.overprovision_pct[s], 2) << "% | "
         << util::format_double(study.sf.overprovision_pct[s], 2) << "% |\n";
    }
    md << "\nClusters:\n\n";
    for (std::size_t c = 0; c < study.clusters.size(); ++c) {
      md << "* " << study.clusters[c].rack_ids.size() << " racks need "
         << util::format_double(100 * study.clusters[c].requirement.back(), 1)
         << "% @100% SLA — `" << study.clusters[c].rule << "`\n";
    }
    md << "\n";
  }

  std::printf("running Q2 (SKU comparison)...\n");
  md << "## Q2 — SKU reliability\n\n";
  core::SkuAnalysisOptions sku_opt;
  sku_opt.day_stride = 2;
  const auto q2 = core::compare_skus(metrics, env, sku_opt);
  md << "| SKU | raw avg rate | raw sd | normalized avg | normalized sd |\n"
        "|---|---|---|---|---|\n";
  for (const auto& sf : q2.sf) {
    for (const auto& mf : q2.mf_lambda) {
      if (mf.label != sf.sku) continue;
      md << "| " << sf.sku << " | " << util::format_double(sf.mean_lambda, 4)
         << " | " << util::format_double(sf.lambda_stddev, 3) << " | "
         << util::format_double(mf.mean, 4) << " | "
         << util::format_double(mf.stddev, 3) << " |\n";
    }
  }
  const tco::CostModel costs;
  md << "\nProcurement: S4 over S2 — ";
  for (const double ratio : {1.0, 1.5}) {
    const auto s = core::sku_tco_scenario(q2, "S4", "S2", ratio, costs);
    md << "at " << ratio << "x price: SF "
       << util::format_double(s.sf_savings_pct, 1) << "% / MF "
       << util::format_double(s.mf_savings_pct, 1) << "%; ";
  }
  md << "\n\n";

  std::printf("running Q3 (environment)...\n");
  md << "## Q3 — environment\n\n";
  core::EnvironmentOptions env_opt;
  env_opt.day_stride = 2;
  const auto q3 = core::analyze_environment(metrics, env, env_opt);
  md << "Discovered thresholds: DC1 temperature "
     << (q3.dc1_temp_split ? util::format_double(*q3.dc1_temp_split, 1) + " F"
                           : std::string("none"))
     << ", DC1 humidity "
     << (q3.dc1_rh_split ? util::format_double(*q3.dc1_rh_split, 1) + " %"
                         : std::string("none"))
     << ".\n\n| DC | condition | disk rate | n |\n|---|---|---|---|\n";
  for (const auto& cell : q3.cells) {
    md << "| " << cell.dc << " | " << cell.condition << " | "
       << util::format_double(cell.mean_rate, 4) << " | " << cell.n << " |\n";
  }

  std::printf("running repair analytics...\n");
  md << "\n## Repair analytics\n\n| fault | tickets | MTTR (h) | p95 (h) |\n"
        "|---|---|---|---|\n";
  for (const auto& row : core::mttr_by_fault(fleet, log)) {
    md << "| " << row.label << " | " << row.tickets << " | "
       << util::format_double(row.mttr_hours, 1) << " | "
       << util::format_double(row.p95_hours, 1) << " |\n";
  }
}

/// The §VII extension: per-server snapshots every 30 days, a risk forest
/// fitted on those whose 30-day labels close before the split day, and the
/// snapshots from that day on ranked against the trailing-count baseline.
void early_warning_section(std::ofstream& md, const simdc::Fleet& fleet,
                           const simdc::EnvironmentModel& env,
                           const simdc::HazardModel& hazard) {
  std::printf("running early warning...\n");
  const predict::FeatureConfig config{.snapshot_stride = 30, .horizon_days = 30};
  const cart::ForestConfig forest{.num_trees = 16, .seed = 11};
  const util::DayIndex days = fleet.spec().num_days;
  const util::DayIndex split_day = std::max<util::DayIndex>(
      config.warmup_days + config.horizon_days,
      days - std::max(3 * config.horizon_days, 60));
  const predict::FeatureSet set = predict::build_features(
      fleet, env, hazard, config, {.seed = fleet.spec().seed});
  const predict::SplitIndices split = predict::temporal_split(set, split_day);

  md << "\n## " << config.horizon_days << "-day early warning\n\n";
  if (split.train.empty() || split.test.empty()) {
    md << "Not run: the " << days << "-day window leaves "
       << split.train.size() << " train and " << split.test.size()
       << " test snapshots for a split at day " << split_day << ".\n";
    return;
  }
  const predict::TrainedModel model =
      predict::fit_risk_model(set, split.train, forest);
  const predict::EvalReport report = predict::evaluate(
      set, split.test, predict::score_rows(model, set, split.test),
      predict::baseline_scores(set, split.test));

  md << "A server snapshot every " << config.snapshot_stride << " days from day "
     << config.warmup_days << " is positive if a hardware failure opens within "
     << "the next " << config.horizon_days << " days. A " << forest.num_trees
     << "-tree risk forest fits the " << split.train.size()
     << " snapshots whose labels close by day " << split_day << " and ranks the "
     << split.test.size() << " taken from then on (base rate "
     << util::format_double(report.base_rate, 3)
     << "); the baseline ranks them by recent ticket count. Each flags its top "
        "5%.\n\n| ranker | precision@5% | recall | median lead (days) |\n"
        "|---|---|---|---|\n";
  for (const auto& [name, at] : {std::pair{"model", report.model_primary},
                                 std::pair{"baseline", report.baseline_primary}}) {
    md << "| " << name << " | " << util::format_double(at.precision, 3) << " | "
       << util::format_double(at.recall, 3) << " | "
       << util::format_double(at.median_lead_days, 1) << " |\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  simdc::FleetSpec spec = simdc::FleetSpec::paper_default();
  spec.num_days = examples::int_arg(argc, argv, 1, "days", 1, 100000, 365);
  const std::string out_path = argc > 2 ? argv[2] : "rainshine_report.md";

  std::ofstream md(out_path);
  if (!md.good()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, spec.seed);
  const simdc::HazardModel hazard(fleet, env);
  study_sections(md, fleet, env, hazard);
  early_warning_section(md, fleet, env, hazard);

  md.close();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
