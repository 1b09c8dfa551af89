// Fleet-scale sweep: tickets/s and peak RSS of simdc::simulate_streamed at
// 10k -> 100k -> 1M servers, printed as JSON (BENCH_simdc.json records the
// committed baseline). The point of the curve is the memory column: the
// streaming engine holds O(one day) of tickets resident, so peak RSS stays
// flat while the fleet grows 100x — a materialized TicketLog for the same
// window is the `materialized_*` estimate columns, which cross any sane
// bound long before 1M servers at the paper's 913-day horizon.
//
// Scale points grow paper_default() in BOTH row dimensions (num_rows and
// racks_per_row scale by sqrt(servers factor)), so a rack-row grows with the
// fleet; the headroom demo exploits that: a cooling outage striking one DC1
// rack-row at the 1M point downs thousands of servers in one burst — the
// scenario class the paper's 600-rack fleet could not express.
//
//   bench_simdc_scale             # full 10k/100k/1M curve + headroom demo
//   bench_simdc_scale --smoke     # one 100k point, assert RSS bound + tickets
//
// Knobs: RAINSHINE_SCALE_DAYS (window per point, default 32; smoke 10),
// RAINSHINE_RSS_BOUND_MB (RSS ceiling, default 256 for the full curve's 1M
// point, 32 for the 100k smoke). Both defaults sit BELOW the materialized
// full-window estimate at their scale — a design holding the fleet's
// tickets resident could not pass them — and ~16x above observed peak.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>

#include "common.hpp"
#include "rainshine/simdc/tickets.hpp"

using namespace rainshine;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Counts what flows through the sink without retaining any of it — the
/// bench's consumer IS the O(1) baseline the RSS column measures against.
struct CountingSink final : simdc::TicketSink {
  std::size_t tickets = 0;
  bool on_day(util::DayIndex /*day*/,
              std::span<const simdc::Ticket> chunk) override {
    tickets += chunk.size();
    return true;
  }
};

/// paper_default() with both row dimensions scaled by sqrt(factor), keeping
/// the DC mix, SKU assignment and climate exactly the paper's — only bigger.
simdc::FleetSpec scaled_spec(double factor, util::DayIndex days) {
  simdc::FleetSpec spec = simdc::FleetSpec::paper_default();
  const double side = std::sqrt(factor);
  for (auto& dc : spec.datacenters) {
    dc.num_rows =
        static_cast<int>(std::max(1L, std::lround(dc.num_rows * side)));
    dc.racks_per_row =
        static_cast<int>(std::max(1L, std::lround(dc.racks_per_row * side)));
  }
  spec.num_days = days;
  return spec;
}

struct PointResult {
  std::size_t servers = 0;
  std::size_t racks = 0;
  simdc::StreamStats stats;
  double seconds = 0.0;
  std::size_t rss_bytes = 0;
};

PointResult run_point(const simdc::FleetSpec& spec,
                      simdc::SimulationOptions opts = {}) {
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, spec.seed);
  const simdc::HazardModel hazard(fleet, env);
  CountingSink sink;
  const auto t0 = std::chrono::steady_clock::now();
  PointResult r;
  r.stats = simulate_streamed(fleet, hazard, sink, std::move(opts));
  r.seconds = seconds_since(t0);
  r.servers = fleet.num_servers();
  r.racks = fleet.num_racks();
  r.rss_bytes = bench::peak_rss_bytes();
  return r;
}

void print_point(const char* label, long target, const PointResult& r,
                 util::DayIndex days, bool trailing_comma) {
  // Residency, measured two ways: what the engine actually held
  // (StreamStats, exact) and what the materialized alternative would hold —
  // for this window and extrapolated to the paper's full 913-day horizon.
  const double per_day =
      static_cast<double>(r.stats.total_tickets) / static_cast<double>(days);
  const auto full_window_est =
      static_cast<std::size_t>(per_day * 913.0) * sizeof(simdc::Ticket);
  std::printf(
      "    {\"point\": \"%s\", \"target_servers\": %ld, \"servers\": %zu, "
      "\"racks\": %zu, \"days\": %d,\n"
      "     \"tickets\": %zu, \"bursts\": %d, \"seconds\": %.3f, "
      "\"tickets_per_s\": %.0f, \"rack_days_per_s\": %.0f,\n"
      "     \"peak_resident_tickets\": %zu, \"peak_chunk_tickets\": %zu, "
      "\"resident_ticket_bytes\": %zu,\n"
      "     \"materialized_window_bytes\": %zu, "
      "\"materialized_913d_bytes_est\": %zu, \"peak_rss_bytes\": %zu}%s\n",
      label, target, r.servers, r.racks, static_cast<int>(days),
      r.stats.total_tickets, r.stats.bursts, r.seconds,
      static_cast<double>(r.stats.total_tickets) / r.seconds,
      static_cast<double>(r.racks) * days / r.seconds,
      r.stats.peak_resident_tickets, r.stats.peak_chunk_tickets,
      r.stats.peak_resident_tickets * sizeof(simdc::Ticket),
      r.stats.total_tickets * sizeof(simdc::Ticket), full_window_est,
      r.rss_bytes, trailing_comma ? "," : "");
}

/// servers-per-fleet of the unscaled paper spec, to turn a server target
/// into a row-scaling factor. Built once; 612 racks, negligible cost.
double paper_servers() {
  const simdc::Fleet probe(simdc::FleetSpec::paper_default());
  return static_cast<double>(probe.num_servers());
}

int run_smoke() {
  const auto days = static_cast<util::DayIndex>(
      bench::env_int("RAINSHINE_SCALE_DAYS", 10, 1, 100000));
  const long long bound_mb =
      bench::env_int("RAINSHINE_RSS_BOUND_MB", 32, 1, 1'000'000);
  const double factor = 100'000.0 / paper_servers();
  const PointResult r = run_point(scaled_spec(factor, days));
  std::printf("scale smoke: %zu servers / %zu racks, %d days -> %zu tickets, "
              "peak RSS %.1f MiB (bound %lld MiB), peak resident %zu tickets\n",
              r.servers, r.racks, static_cast<int>(days),
              r.stats.total_tickets,
              static_cast<double>(r.rss_bytes) / (1024.0 * 1024.0), bound_mb,
              r.stats.peak_resident_tickets);
  if (r.stats.total_tickets == 0) {
    std::fprintf(stderr, "scale smoke FAILED: no tickets generated\n");
    return 1;
  }
  if (r.rss_bytes == 0) {
    std::fprintf(stderr, "scale smoke FAILED: peak_rss_bytes unavailable\n");
    return 1;
  }
  if (r.rss_bytes > static_cast<std::size_t>(bound_mb) * 1024 * 1024) {
    std::fprintf(stderr, "scale smoke FAILED: peak RSS %zu bytes > %lld MiB\n",
                 r.rss_bytes, bound_mb);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();

  const auto days = static_cast<util::DayIndex>(
      bench::env_int("RAINSHINE_SCALE_DAYS", 32, 1, 100000));
  const double base = paper_servers();

  std::printf("{\n  \"bench\": \"simdc_scale\", \"days_per_point\": %d, "
              "\"ticket_bytes\": %zu,\n",
              static_cast<int>(days), sizeof(simdc::Ticket));
  std::printf("  \"points\": [\n");

  // Ascending order on purpose: VmHWM is a high-water mark, so each point's
  // RSS reading is dominated by the largest fleet seen so far — its own.
  const struct { const char* label; long target; } kPoints[] = {
      {"10k", 10'000}, {"100k", 100'000}, {"1M", 1'000'000}};
  simdc::FleetSpec last_spec;
  std::size_t last_rss = 0;
  for (std::size_t i = 0; i < std::size(kPoints); ++i) {
    const auto& p = kPoints[i];
    simdc::FleetSpec spec =
        scaled_spec(static_cast<double>(p.target) / base, days);
    const PointResult r = run_point(spec);
    print_point(p.label, p.target, r, days, i + 1 < std::size(kPoints));
    last_spec = spec;
    last_rss = r.rss_bytes;
  }
  std::printf("  ],\n");

  // The headline claim as a checkable predicate: the 1M point's peak RSS
  // stays under a bound that the materialized design's full-window footprint
  // (~400 MB of tickets alone, see materialized_913d_bytes_est) exceeds.
  const long long bound_mb =
      bench::env_int("RAINSHINE_RSS_BOUND_MB", 256, 1, 1'000'000);
  std::printf("  \"rss_bound_mb\": %lld, \"rss_bound_holds\": %s,\n", bound_mb,
              last_rss <= static_cast<std::size_t>(bound_mb) * 1024 * 1024
                  ? "true"
                  : "false");

  // Headroom demo: the same 1M-server fleet, short window, with one injected
  // cooling outage downing a whole DC1 rack-row — run organically first to
  // report the injected delta. Both runs fit in memory the curve above
  // already bounded.
  {
    const auto demo_days = static_cast<util::DayIndex>(
        bench::env_int("RAINSHINE_SCALE_DEMO_DAYS", 3, 2, 100000));
    simdc::FleetSpec spec = last_spec;
    spec.num_days = demo_days;
    const PointResult organic = run_point(spec);

    simdc::InjectedOutage outage;
    outage.dc = simdc::DataCenterId::kDC1;
    outage.row = 0;
    outage.day = 1;
    outage.fraction = 1.0;
    outage.fault = simdc::FaultType::kPowerFailure;
    simdc::SimulationOptions opts;
    opts.outages = {outage};
    const PointResult hit = run_point(spec, std::move(opts));

    const std::size_t injected = hit.stats.total_tickets >
                                         organic.stats.total_tickets
                                     ? hit.stats.total_tickets -
                                           organic.stats.total_tickets
                                     : 0;
    std::printf(
        "  \"headroom_demo\": {\"scenario\": \"cooling outage, DC1 row 0, "
        "full rack-row\", \"servers\": %zu, \"days\": %d,\n"
        "    \"organic_tickets\": %zu, \"with_outage_tickets\": %zu, "
        "\"injected_tickets\": %zu,\n"
        "    \"bursts\": %d, \"peak_chunk_tickets\": %zu, "
        "\"peak_resident_tickets\": %zu, \"seconds\": %.3f}\n",
        hit.servers, static_cast<int>(demo_days), organic.stats.total_tickets,
        hit.stats.total_tickets, injected, hit.stats.bursts,
        hit.stats.peak_chunk_tickets, hit.stats.peak_resident_tickets,
        hit.seconds);
  }
  std::printf("}\n");
  return 0;
}
