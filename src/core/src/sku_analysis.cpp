#include "rainshine/core/sku_analysis.hpp"

#include <algorithm>
#include <cmath>

#include "rainshine/stats/descriptive.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::core {

namespace {

using simdc::Rack;
using simdc::SkuId;

std::optional<SkuId> sku_from_label(const std::string& label) {
  for (const SkuId id : simdc::kAllSkus) {
    if (label == simdc::to_string(id)) return id;
  }
  return std::nullopt;
}

/// One row per rack: static features + peak µ, for the µ-side MF
/// normalization and the SF peak metric.
struct RackSummary {
  const Rack* rack;
  double peak_mu = 0.0;
};

std::vector<RackSummary> summarize_racks(const FailureMetrics& metrics) {
  const Fleet& fleet = metrics.fleet();
  std::vector<RackSummary> out;
  out.reserve(fleet.num_racks());
  for (const Rack& rack : fleet.racks()) {
    const auto mu = metrics.mu_series(rack.id, DeviceKind::kServer,
                                      Granularity::kDaily, /*server_level_all=*/true);
    const double peak_mu = *std::max_element(mu.begin(), mu.end());
    out.push_back({&rack, peak_mu});
  }
  return out;
}

table::Table rack_summary_table(const FailureMetrics& metrics,
                                const std::vector<RackSummary>& summaries) {
  std::vector<const Rack*> racks;
  std::vector<double> peak_mu;
  for (const RackSummary& s : summaries) {
    racks.push_back(s.rack);
    peak_mu.push_back(s.peak_mu);
  }
  table::Table out = static_rack_table(metrics.fleet().calendar(), racks);
  out.add_column("peak_mu", table::Column::continuous(std::move(peak_mu)));
  return out;
}

/// Keeps only the requested SKU levels, preserving their order in `options`.
template <typename LevelT>
std::vector<LevelT> filter_levels(std::vector<LevelT> levels,
                                  const std::vector<SkuId>& skus) {
  if (skus.empty()) return levels;
  std::vector<LevelT> out;
  for (const SkuId id : skus) {
    const std::string want(simdc::to_string(id));
    for (const auto& level : levels) {
      if (level.label == want) out.push_back(level);
    }
  }
  return out;
}

}  // namespace

SkuStudy compare_skus(const FailureMetrics& metrics,
                      const simdc::EnvironmentModel& env,
                      const SkuAnalysisOptions& options) {
  SkuStudy study;
  study.warnings = ingest::quality_warnings(options.quality);
  const std::vector<RackSummary> summaries = summarize_racks(metrics);

  // -- SF view (Fig. 14): straight per-SKU histograms -------------------------
  // λ spread is measured across rack-days (that is what an operator's raw
  // per-SKU dashboard shows); peak µ is a per-rack quantity.
  ObservationOptions obs;
  obs.day_stride = options.day_stride;
  obs.include_mu = false;
  const table::Table day_table = rack_day_table(metrics, env, obs);
  const table::Column& sku_col = day_table.column(col::kSku);
  const table::Column& lambda_col = day_table.column(col::kLambdaHw);

  const std::vector<SkuId> report =
      options.skus.empty()
          ? std::vector<SkuId>(simdc::kAllSkus.begin(), simdc::kAllSkus.end())
          : options.skus;
  for (const SkuId id : report) {
    const std::string label(simdc::to_string(id));
    stats::Accumulator lambda;
    const std::int32_t code = sku_col.code_of(label);
    if (code != table::kMissingCode) {
      const auto codes = sku_col.nominal_codes();
      for (std::size_t r = 0; r < day_table.num_rows(); ++r) {
        if (codes[r] == code) lambda.add(lambda_col.as_double(r));
      }
    }
    stats::Accumulator peak;
    std::size_t racks = 0;
    for (const RackSummary& s : summaries) {
      if (s.rack->sku != id) continue;
      peak.add(s.peak_mu);
      ++racks;
    }
    if (racks == 0) continue;
    study.sf.push_back({label, racks, lambda.mean(), lambda.sample_stddev(),
                        peak.mean(), peak.sample_stddev()});
  }

  // -- MF view (Fig. 15): λ ~ SKU, N(DC), N(Region), N(RatedPower),
  //    N(Workload), N(CommissionYear) ------------------------------------------
  const std::vector<std::string> nuisance = {col::kDc, col::kRegion,
                                             col::kWorkload, col::kPowerKw,
                                             col::kCommissionYear};
  study.mf_lambda = filter_levels(
      cart::residualized_effect(day_table, col::kLambdaHw, col::kSku, nuisance,
                                options.nuisance_tree),
      report);

  const table::Table rack_table = rack_summary_table(metrics, summaries);
  cart::Config rack_tree = options.nuisance_tree;
  // Rack-level data is ~3 orders of magnitude smaller than rack-day data;
  // scale the node-size floors down to match.
  rack_tree.min_samples_split = 20;
  rack_tree.min_samples_leaf = 8;
  study.mf_peak_mu = filter_levels(
      cart::residualized_effect(rack_table, "peak_mu", col::kSku, nuisance,
                                rack_tree),
      report);
  return study;
}

SkuTcoScenario sku_tco_scenario(const SkuStudy& study, const std::string& candidate,
                                const std::string& incumbent, double price_ratio,
                                const tco::CostModel& costs, double years) {
  const auto find_sf = [&](const std::string& label) -> const SkuMetrics& {
    for (const SkuMetrics& m : study.sf) {
      if (m.sku == label) return m;
    }
    throw util::precondition_error("SKU not in study: " + label);
  };
  const auto find_mf = [&](const std::vector<cart::EffectLevel>& levels,
                           const std::string& label) -> const cart::EffectLevel& {
    for (const cart::EffectLevel& l : levels) {
      if (l.label == label) return l;
    }
    throw util::precondition_error("SKU not in MF effects: " + label);
  };

  const auto sku_id = [&](const std::string& label) {
    const auto id = sku_from_label(label);
    util::require(id.has_value(), "unknown SKU label: " + label);
    return *id;
  };
  const double cand_servers = simdc::sku_spec(sku_id(candidate)).servers_per_rack;
  const double inc_servers = simdc::sku_spec(sku_id(incumbent)).servers_per_rack;

  const auto scenario = [&](double price, double peak_mu, double mean_lambda,
                            double servers_per_rack) {
    tco::SkuScenario s;
    s.price_multiplier = price;
    s.spare_fraction = std::max(0.0, peak_mu) / servers_per_rack;
    s.repairs_per_server_year = std::max(0.0, mean_lambda) * 365.25 / servers_per_rack;
    return s;
  };

  constexpr std::size_t kServers = 10000;  // population size cancels in the %
  SkuTcoScenario out;
  out.price_ratio = price_ratio;
  {
    const SkuMetrics& c = find_sf(candidate);
    const SkuMetrics& i = find_sf(incumbent);
    out.sf_savings_pct = tco::sku_savings_pct(
        costs,
        scenario(price_ratio, c.peak_mu, c.mean_lambda, cand_servers),
        scenario(1.0, i.peak_mu, i.mean_lambda, inc_servers), kServers, years);
  }
  {
    const cart::EffectLevel& cl = find_mf(study.mf_lambda, candidate);
    const cart::EffectLevel& il = find_mf(study.mf_lambda, incumbent);
    const cart::EffectLevel& cm = find_mf(study.mf_peak_mu, candidate);
    const cart::EffectLevel& im = find_mf(study.mf_peak_mu, incumbent);
    out.mf_savings_pct = tco::sku_savings_pct(
        costs, scenario(price_ratio, cm.mean, cl.mean, cand_servers),
        scenario(1.0, im.mean, il.mean, inc_servers), kServers, years);
  }
  return out;
}

}  // namespace rainshine::core
