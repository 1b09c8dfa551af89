// Quickstart: build the two-DC fleet, simulate 2.5 years of RMA tickets,
// print the study's configuration and headline aggregates (the Table
// I/II/III views of the paper), then fit a forest on the rack-day
// observations and push it through the serving tier: save -> load -> score.
//
// Run:  ./build/examples/quickstart [days]
#include <cstdio>
#include <filesystem>

#include "args.hpp"
#include "rainshine/cart/forest.hpp"
#include "rainshine/core/marginals.hpp"
#include "rainshine/core/observations.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/simdc/tickets.hpp"

using namespace rainshine;

int main(int argc, char** argv) {
  simdc::FleetSpec spec = simdc::FleetSpec::paper_default();
  spec.num_days = examples::int_arg(argc, argv, 1, "days", 1, 100000,
                                    spec.num_days);

  std::printf("=== rainshine quickstart ===\n\n");
  std::printf("Table I - DC properties\n");
  std::printf("%-10s %-12s %-12s %-14s %s\n", "Facility", "Packaging",
              "Availability", "Cooling", "Racks");
  const simdc::Fleet fleet(spec);
  for (const auto& dc : spec.datacenters) {
    std::printf("%-10s %-12s %d nines      %-14s %d\n",
                std::string(to_string(dc.id)).c_str(),
                std::string(to_string(dc.packaging)).c_str(),
                dc.availability_nines, std::string(to_string(dc.cooling)).c_str(),
                dc.num_racks());
  }
  std::printf("\nFleet: %zu racks, %zu servers, %d days of observation\n\n",
              fleet.num_racks(), fleet.num_servers(), fleet.spec().num_days);

  const simdc::EnvironmentModel env(fleet, spec.seed);
  const simdc::HazardModel hazard(fleet, env);
  std::printf("Simulating RMA ticket stream...\n");
  const simdc::TicketLog log = simulate(fleet, env, hazard, {.seed = spec.seed});
  std::printf("Generated %zu tickets (%zu hardware true positives)\n\n",
              log.size(), log.hardware_true_positives().size());

  std::printf("Table II - Classification of failure tickets (%%)\n");
  std::printf("%-10s %-22s %8s %8s\n", "Category", "Failure type", "DC1", "DC2");
  for (const auto& row : core::ticket_mix(fleet, log)) {
    std::printf("%-10s %-22s %8.2f %8.2f\n", row.category.c_str(),
                row.fault.c_str(), row.dc1_pct, row.dc2_pct);
  }

  const core::FailureMetrics metrics(fleet, log);
  const core::Marginals marginals(metrics, env, /*day_stride=*/2);
  std::printf("\nFig. 2 preview - mean total failure rate per DC region\n");
  for (const auto& row : marginals.by_region()) {
    std::printf("  %-8s mean=%.4f sd=%.4f (n=%zu rack-days)\n", row.label.c_str(),
                row.mean, row.stddev, row.count);
  }
  std::printf("\nSave, load & serve: fit a forest, round-trip it through an\n"
              ".rsf artifact, and score rows through the prediction service\n");
  core::ObservationOptions opt;
  opt.day_stride = 2;
  const table::Table observations = core::rack_day_table(metrics, env, opt);
  cart::ForestConfig forest_cfg;
  forest_cfg.num_trees = 16;
  forest_cfg.tree.cp = 0.001;
  const cart::Dataset training(observations, core::col::kLambdaHw,
                               core::static_rack_features(),
                               cart::Task::kRegression);
  const cart::Forest forest = cart::grow_forest(training, forest_cfg);

  const std::string artifact_path =
      (std::filesystem::temp_directory_path() / "quickstart_lambda_hw.rsf")
          .string();
  serve::save_forest_file(
      forest, {.name = "lambda_hw", .version = 1, .config = forest_cfg},
      artifact_path);
  const serve::ModelArtifact artifact = serve::load_forest_file(artifact_path);
  std::printf("  artifact: %s (model %s v%u, oob_error=%.4f)\n",
              artifact_path.c_str(), artifact.meta.name.c_str(),
              artifact.meta.version, artifact.meta.oob_error);

  serve::PredictionService service(artifact);
  const auto predictions = service.score(observations);
  double mean = 0.0;
  for (const double p : predictions) mean += p;
  mean /= static_cast<double>(predictions.size());
  std::printf("  scored %zu rack-day rows through the prediction service "
              "(mean lambda_hw=%.4f)\n",
              predictions.size(), mean);
  std::printf("  %s\n", service.stats().summary().c_str());
  std::filesystem::remove(artifact_path);

  std::printf("\nNext steps: run the bench binaries (build/bench/bench_*) to\n"
              "regenerate every table and figure of the paper; see DESIGN.md\n"
              "for the experiment index. The rainshine_modelc and\n"
              "rainshine_score tools (build/tools/) do the same save/score\n"
              "flow from the command line.\n");
  return 0;
}
