#include "rainshine/core/provisioning.hpp"

#include <algorithm>
#include <map>
#include <span>

#include "rainshine/stats/descriptive.hpp"
#include "rainshine/stats/ecdf.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::core {

namespace {

using simdc::Rack;

/// Per-rack µ-fraction series for the racks of one workload.
struct FractionSeries {
  std::vector<const Rack*> racks;
  std::vector<std::vector<double>> per_rack;  ///< parallel to racks
};

FractionSeries collect(const FailureMetrics& metrics,
                       std::span<const Rack* const> racks, DeviceKind kind,
                       Granularity g, bool server_level_all) {
  FractionSeries out;
  out.racks.assign(racks.begin(), racks.end());
  out.per_rack.reserve(racks.size());
  for (const Rack* rack : racks) {
    out.per_rack.push_back(
        metrics.mu_fraction_series(rack->id, kind, g, server_level_all));
  }
  return out;
}

/// Capacity-weighted overall spare percentage from per-rack requirements.
double weighted_pct(std::span<const Rack* const> racks,
                    std::span<const double> reqs) {
  double spares = 0.0;
  double capacity = 0.0;
  for (std::size_t i = 0; i < racks.size(); ++i) {
    spares += reqs[i] * racks[i]->servers();
    capacity += racks[i]->servers();
  }
  return capacity > 0.0 ? 100.0 * spares / capacity : 0.0;
}

std::vector<double> pool(const FractionSeries& series,
                         std::span<const std::size_t> members) {
  std::vector<double> out;
  for (const std::size_t m : members) {
    const auto& s = series.per_rack[m];
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

std::vector<double> deciles(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(11);
  for (int i = 0; i <= 10; ++i) {
    out.push_back(stats::quantile_sorted(sorted, i / 10.0));
  }
  return out;
}

struct Clustering {
  /// Leaf index per rack (parallel to the racks vector used to build it).
  std::vector<std::size_t> leaf_of_rack;
  std::vector<std::size_t> leaf_ids;  ///< distinct leaves, stable order
  std::vector<std::string> rules;     ///< per leaf id
  std::vector<cart::Importance> importance;
};

/// Fits the MF cluster tree on per-rack TAIL statistics — each rack's own
/// spare requirement at the most stringent requested SLA — over the static
/// factors, then maps every rack to a leaf. Provisioning is a tail problem:
/// clustering on the period-mean µ would group racks by their everyday
/// failure level and miss the correlated-burst severity that actually sizes
/// the spare pool.
Clustering cluster_racks(const FailureMetrics& metrics,
                         std::span<const Rack* const> racks,
                         const FractionSeries& series, double top_sla,
                         const ProvisioningOptions& options) {
  std::vector<double> response(racks.size());
  for (std::size_t i = 0; i < racks.size(); ++i) {
    response[i] = stats::Ecdf(series.per_rack[i]).quantile(top_sla);
  }
  // The tree splits on the static columns only. age_months varies over the
  // window, which would let a rack straddle leaves; commission_year carries
  // the same cohort signal statically, so racks map to exactly one cluster.
  table::Table tbl = static_rack_table(metrics.fleet().calendar(), racks);
  const std::vector<std::string> features = tbl.column_names();
  tbl.add_column("requirement", table::Column::continuous(std::move(response)));
  const cart::Dataset fit_data(tbl, "requirement", features,
                               cart::Task::kRegression);
  const cart::Tree tree = cart::grow(fit_data, options.tree_config);
  const cart::Dataset assign_data(tbl, tree.features());

  Clustering out;
  out.importance = tree.variable_importance();
  std::map<std::size_t, std::size_t> leaf_index;  // tree leaf -> dense id
  out.leaf_of_rack.reserve(racks.size());
  for (std::size_t i = 0; i < racks.size(); ++i) {
    const std::size_t leaf = tree.leaf_of(assign_data, i);
    const auto [it, inserted] = leaf_index.try_emplace(leaf, out.leaf_ids.size());
    if (inserted) {
      out.leaf_ids.push_back(leaf);
      out.rules.push_back(tree.path_to(leaf));
    }
    out.leaf_of_rack.push_back(it->second);
  }
  return out;
}

/// Per-approach requirements for one device population. Returns, per rack,
/// the spare fraction under each approach at each SLA.
struct Requirements {
  // [sla][rack]
  std::vector<std::vector<double>> lb;
  std::vector<std::vector<double>> sf;
  std::vector<std::vector<double>> mf;
};

Requirements compute_requirements(const FractionSeries& series,
                                  const Clustering& clustering,
                                  std::span<const double> slas) {
  const std::size_t n = series.racks.size();
  Requirements out;
  out.lb.assign(slas.size(), std::vector<double>(n, 0.0));
  out.sf.assign(slas.size(), std::vector<double>(n, 0.0));
  out.mf.assign(slas.size(), std::vector<double>(n, 0.0));

  // LB: each rack from its own distribution.
  for (std::size_t r = 0; r < n; ++r) {
    const stats::Ecdf ecdf(series.per_rack[r]);
    for (std::size_t s = 0; s < slas.size(); ++s) {
      out.lb[s][r] = ecdf.quantile(slas[s]);
    }
  }

  // SF: one pooled distribution for the whole workload.
  {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    const std::vector<double> pooled = pool(series, all);
    const stats::Ecdf ecdf(pooled);
    for (std::size_t s = 0; s < slas.size(); ++s) {
      const double req = ecdf.quantile(slas[s]);
      for (std::size_t r = 0; r < n; ++r) out.sf[s][r] = req;
    }
  }

  // MF: pooled per cluster.
  for (std::size_t c = 0; c < clustering.leaf_ids.size(); ++c) {
    std::vector<std::size_t> members;
    for (std::size_t r = 0; r < n; ++r) {
      if (clustering.leaf_of_rack[r] == c) members.push_back(r);
    }
    if (members.empty()) continue;
    const std::vector<double> pooled = pool(series, members);
    const stats::Ecdf ecdf(pooled);
    for (std::size_t s = 0; s < slas.size(); ++s) {
      const double req = ecdf.quantile(slas[s]);
      for (const std::size_t r : members) out.mf[s][r] = req;
    }
  }
  return out;
}

std::vector<double> overall_per_sla(std::span<const Rack* const> racks,
                                    const std::vector<std::vector<double>>& reqs) {
  std::vector<double> out;
  out.reserve(reqs.size());
  for (const auto& per_rack : reqs) out.push_back(weighted_pct(racks, per_rack));
  return out;
}

/// Capacity-weighted mean spare fraction (not percent) across racks.
double mean_fraction(std::span<const Rack* const> racks,
                     std::span<const double> reqs) {
  return weighted_pct(racks, reqs) / 100.0;
}

}  // namespace

ServerProvisioningStudy provision_servers(const FailureMetrics& metrics,
                                          const simdc::EnvironmentModel& env,
                                          simdc::WorkloadId workload,
                                          const ProvisioningOptions& options) {
  util::require(!options.slas.empty(), "provisioning needs at least one SLA");
  const std::span<const Rack* const> racks = metrics.fleet().racks_of(workload);
  util::require(!racks.empty(), "workload has no racks in this fleet");

  (void)env;  // static factors suffice for clustering; kept for API symmetry
  const FractionSeries series = collect(metrics, racks, DeviceKind::kServer,
                                        options.granularity,
                                        /*server_level_all=*/true);
  const double top_sla =
      *std::max_element(options.slas.begin(), options.slas.end());
  const Clustering clustering =
      cluster_racks(metrics, racks, series, top_sla, options);
  const Requirements reqs =
      compute_requirements(series, clustering, options.slas);

  ServerProvisioningStudy study;
  study.workload = workload;
  study.slas = options.slas;
  study.warnings = ingest::quality_warnings(options.quality);
  study.lb.overprovision_pct = overall_per_sla(racks, reqs.lb);
  study.sf.overprovision_pct = overall_per_sla(racks, reqs.sf);
  study.mf.overprovision_pct = overall_per_sla(racks, reqs.mf);
  study.factors = clustering.importance;

  // Cluster summaries (Fig. 11).
  for (std::size_t c = 0; c < clustering.leaf_ids.size(); ++c) {
    Cluster cluster;
    cluster.rule = clustering.rules[c];
    std::vector<std::size_t> members;
    for (std::size_t r = 0; r < racks.size(); ++r) {
      if (clustering.leaf_of_rack[r] == c) {
        members.push_back(r);
        cluster.rack_ids.push_back(racks[r]->id);
        cluster.servers += static_cast<std::size_t>(racks[r]->servers());
      }
    }
    if (members.empty()) continue;
    const std::vector<double> pooled = pool(series, members);
    const stats::Ecdf ecdf(pooled);
    for (const double sla : options.slas) {
      cluster.requirement.push_back(ecdf.quantile(sla));
    }
    cluster.mu_fraction_deciles = deciles(pooled);
    study.clusters.push_back(std::move(cluster));
  }

  // SF pooled CDF for the same figure.
  {
    std::vector<std::size_t> all(racks.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    study.sf_mu_deciles = deciles(pool(series, all));
  }
  return study;
}

ComponentProvisioningStudy provision_components(const FailureMetrics& metrics,
                                                const simdc::EnvironmentModel& env,
                                                simdc::WorkloadId workload,
                                                double sla,
                                                const tco::CostModel& costs,
                                                const ProvisioningOptions& options) {
  const std::span<const Rack* const> racks = metrics.fleet().racks_of(workload);
  util::require(!racks.empty(), "workload has no racks in this fleet");
  const std::vector<double> slas = {sla};

  // Populations: whole-server regime and the three component-regime pools.
  const FractionSeries servers_all =
      collect(metrics, racks, DeviceKind::kServer, options.granularity, true);
  const FractionSeries servers_other =
      collect(metrics, racks, DeviceKind::kServer, options.granularity, false);
  const FractionSeries disks =
      collect(metrics, racks, DeviceKind::kDisk, options.granularity, false);
  const FractionSeries dimms =
      collect(metrics, racks, DeviceKind::kDimm, options.granularity, false);

  (void)env;
  // ONE rack grouping serves every spare pool: the operator clusters racks
  // once (on their total concurrent-failure tail) and provisions each pool
  // per cluster. Independent per-pool clusterings would let the component
  // regime's pools be sized on incomparable groupings.
  const Clustering clustering =
      cluster_racks(metrics, racks, servers_all, sla, options);

  const Requirements r_server = compute_requirements(servers_all, clustering, slas);
  const Requirements r_other = compute_requirements(servers_other, clustering, slas);
  const Requirements r_disk = compute_requirements(disks, clustering, slas);
  const Requirements r_dimm = compute_requirements(dimms, clustering, slas);

  std::size_t total_servers = 0;
  std::size_t total_disks = 0;
  std::size_t total_dimms = 0;
  for (const Rack* rack : racks) {
    total_servers += static_cast<std::size_t>(rack->servers());
    total_disks += static_cast<std::size_t>(rack->disks());
    total_dimms += static_cast<std::size_t>(rack->dimms());
  }

  const auto make_costs = [&](const std::vector<double>& server_all_req,
                              const std::vector<double>& server_other_req,
                              const std::vector<double>& disk_req,
                              const std::vector<double>& dimm_req) {
    ComponentProvisioningStudy::Costs out;
    tco::SparePlan server_level;
    server_level.servers = total_servers;
    server_level.disks = total_disks;
    server_level.dimms = total_dimms;
    server_level.server_spare_fraction = mean_fraction(racks, server_all_req);
    out.server_level = tco::spare_cost_pct_of_capacity(costs, server_level);

    tco::SparePlan component_level = server_level;
    component_level.server_spare_fraction = mean_fraction(racks, server_other_req);
    // Disk/DIMM fractions weight by the rack's component counts.
    double disk_spares = 0.0;
    double dimm_spares = 0.0;
    for (std::size_t r = 0; r < racks.size(); ++r) {
      disk_spares += disk_req[r] * racks[r]->disks();
      dimm_spares += dimm_req[r] * racks[r]->dimms();
    }
    component_level.disk_spare_fraction =
        total_disks > 0 ? disk_spares / static_cast<double>(total_disks) : 0.0;
    component_level.dimm_spare_fraction =
        total_dimms > 0 ? dimm_spares / static_cast<double>(total_dimms) : 0.0;
    out.component_level = tco::spare_cost_pct_of_capacity(costs, component_level);
    return out;
  };

  ComponentProvisioningStudy study;
  study.workload = workload;
  study.sla = sla;
  study.warnings = ingest::quality_warnings(options.quality);
  study.lb = make_costs(r_server.lb[0], r_other.lb[0], r_disk.lb[0], r_dimm.lb[0]);
  study.sf = make_costs(r_server.sf[0], r_other.sf[0], r_disk.sf[0], r_dimm.sf[0]);
  study.mf = make_costs(r_server.mf[0], r_other.mf[0], r_disk.mf[0], r_dimm.mf[0]);
  study.factors = clustering.importance;
  return study;
}

}  // namespace rainshine::core
