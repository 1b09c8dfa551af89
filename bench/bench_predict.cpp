// Early-warning study bench: streams the seeded test fleet through the
// predict feature pipeline, fits the risk forest on the temporal-split
// train side, and reports precision/recall-at-k and lead-time distribution
// against the SF-style naive baseline (rank by trailing ticket count) as
// BENCH_predict.json on stdout.
//
//   RAINSHINE_DAYS   — window length (default 360; smoke 160)
//   RAINSHINE_SEED   — fleet + simulation seed (default 7, the test seed)
//   RAINSHINE_TREES  — forest size (default 48; smoke 12)
//
// --smoke additionally ASSERTS the acceptance bar — the classifier must
// beat the baseline on precision at the 5% alert budget and on median
// lead-time — and exits nonzero otherwise, so CI catches a regression in
// the model, the pipeline, or the planted signal.
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>

#include "common.hpp"
#include "rainshine/predict/eval.hpp"
#include "rainshine/predict/model.hpp"

using namespace rainshine;

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void print_at(const char* name, const predict::RankedEval& eval) {
  std::printf("  \"%s\": [", name);
  for (std::size_t i = 0; i < eval.at.size(); ++i) {
    const auto& a = eval.at[i];
    std::printf("%s\n    {\"fraction\": %.4f, \"k\": %zu, \"hits\": %zu, "
                "\"precision\": %.6f, \"recall\": %.6f, "
                "\"median_lead_days\": %.4f}",
                i == 0 ? "" : ",", a.fraction, a.k, a.hits, a.precision,
                a.recall, a.median_lead_days);
  }
  std::printf("\n  ],\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int days = static_cast<int>(
      bench::env_int("RAINSHINE_DAYS", smoke ? 240 : 360, 1, 100000));
  const auto seed =
      static_cast<std::uint64_t>(bench::env_int("RAINSHINE_SEED", 7, 0, LLONG_MAX));
  const auto trees = static_cast<std::size_t>(
      bench::env_int("RAINSHINE_TREES", smoke ? 16 : 48, 1, 100000));

  simdc::FleetSpec spec = simdc::FleetSpec::test_default();
  spec.num_days = days;
  spec.seed = seed;
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, spec.seed);
  const simdc::HazardModel hazard(fleet, env);

  predict::FeatureConfig config;
  config.warmup_days = std::min(90, days / 3);
  config.snapshot_stride = 5;
  config.horizon_days = 30;
  const util::DayIndex split_day =
      std::max<util::DayIndex>(config.warmup_days + config.horizon_days,
                               days - std::max(3 * config.horizon_days, 100));

  const auto t0 = Clock::now();
  const predict::FeatureSet set = build_features(fleet, env, hazard, config,
                                                 {.seed = spec.seed});
  const double pipeline_ms = ms_since(t0);

  const auto split = predict::temporal_split(set, split_day);
  if (split.train.empty() || split.test.empty()) {
    std::fprintf(stderr, "bench_predict: degenerate split (train=%zu test=%zu)\n",
                 split.train.size(), split.test.size());
    return 1;
  }

  cart::ForestConfig forest{.num_trees = trees, .seed = 11};
  const auto t1 = Clock::now();
  const auto model = predict::fit_risk_model(set, split.train, forest);
  const double fit_ms = ms_since(t1);

  const auto t2 = Clock::now();
  const auto scores = predict::score_rows(model, set, split.test);
  const double score_ms = ms_since(t2);
  const auto naive = predict::baseline_scores(set, split.test);

  predict::EvalOptions eopt;  // budgets 1/2/5/10%, primary 5%
  const auto report = predict::evaluate(set, split.test, scores, naive, eopt);

  const bool beats_precision =
      report.model_primary.precision > report.baseline_primary.precision;
  const bool beats_lead = report.model_primary.median_lead_days >
                          report.baseline_primary.median_lead_days;

  std::printf("{\n");
  std::printf("  \"bench\": \"predict_early_warning\",\n");
  std::printf("  \"days\": %d,\n  \"seed\": %llu,\n  \"servers\": %zu,\n",
              days, static_cast<unsigned long long>(seed), fleet.num_servers());
  std::printf("  \"warmup_days\": %d,\n  \"snapshot_stride\": %d,\n"
              "  \"horizon_days\": %d,\n  \"split_day\": %d,\n",
              config.warmup_days, config.snapshot_stride, config.horizon_days,
              split_day);
  std::printf("  \"rows\": %zu,\n  \"train_rows\": %zu,\n  \"test_rows\": %zu,\n",
              set.meta.size(), split.train.size(), split.test.size());
  std::printf("  \"test_positives\": %zu,\n  \"base_rate\": %.6f,\n",
              report.positives, report.base_rate);
  std::printf("  \"trees\": %zu,\n", trees);
  print_at("model_at_k", report.model);
  print_at("baseline_at_k", report.baseline);
  std::printf("  \"alert_budget\": %.4f,\n", report.primary_fraction);
  std::printf("  \"model_precision_at_budget\": %.6f,\n",
              report.model_primary.precision);
  std::printf("  \"baseline_precision_at_budget\": %.6f,\n",
              report.baseline_primary.precision);
  std::printf("  \"model_recall_at_budget\": %.6f,\n",
              report.model_primary.recall);
  std::printf("  \"baseline_recall_at_budget\": %.6f,\n",
              report.baseline_primary.recall);
  std::printf("  \"model_median_lead_days\": %.4f,\n",
              report.model_primary.median_lead_days);
  std::printf("  \"baseline_median_lead_days\": %.4f,\n",
              report.baseline_primary.median_lead_days);
  std::printf("  \"model_lead_deciles_days\": [");
  for (std::size_t i = 0; i < report.model_lead_deciles_days.size(); ++i)
    std::printf("%s%.4f", i == 0 ? "" : ", ", report.model_lead_deciles_days[i]);
  std::printf("],\n");
  std::printf("  \"oob_error\": %.6f,\n", model.forest.oob_error());
  std::printf("  \"beats_baseline_precision\": %s,\n",
              beats_precision ? "true" : "false");
  std::printf("  \"beats_baseline_lead\": %s,\n", beats_lead ? "true" : "false");
  std::printf("  \"pipeline_ms\": %.1f,\n  \"fit_ms\": %.1f,\n"
              "  \"score_ms\": %.1f,\n",
              pipeline_ms, fit_ms, score_ms);
  std::printf("  \"peak_rss_mb\": %.1f\n",
              static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0));
  std::printf("}\n");

  if (smoke && !(beats_precision && beats_lead)) {
    std::fprintf(stderr,
                 "bench_predict SMOKE FAILED: model p@k %.3f vs baseline %.3f, "
                 "median lead %.1fd vs %.1fd\n",
                 report.model_primary.precision,
                 report.baseline_primary.precision,
                 report.model_primary.median_lead_days,
                 report.baseline_primary.median_lead_days);
    return 1;
  }
  return 0;
}
