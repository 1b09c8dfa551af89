// Shared context for the experiment benches: one simulated study window per
// process, sized by RAINSHINE_DAYS / RAINSHINE_STRIDE environment variables
// so quick smoke runs and full reproductions use the same binaries.
#pragma once

#include <cstdlib>
#include <memory>
#include <span>
#include <string>

#include "rainshine/core/metrics.hpp"
#include "rainshine/simdc/tickets.hpp"
#include "rainshine/stats/histogram.hpp"

namespace rainshine::bench {

struct Context {
  simdc::FleetSpec spec;
  std::unique_ptr<simdc::Fleet> fleet;
  std::unique_ptr<simdc::EnvironmentModel> env;
  std::unique_ptr<simdc::HazardModel> hazard;
  std::unique_ptr<simdc::TicketLog> log;
  std::unique_ptr<core::FailureMetrics> metrics;
  std::int32_t day_stride = 1;  ///< suggested observation stride for analyses
};

/// The integer in environment variable `name`; `fallback` when it is unset
/// or empty. The whole value must parse (util::parse_int) and lie in
/// [lo, hi]; anything else prints "BENCH: NAME: want an integer in LO..HI,
/// got 'TEXT'" and exits 2.
[[nodiscard]] long long env_int(const char* name, long long fallback,
                                long long lo, long long hi);

/// Builds (once per process) the paper-scale fleet, simulates the window and
/// indexes metrics. Honors:
///   RAINSHINE_DAYS   — window length (default 913)
///   RAINSHINE_STRIDE — observation-table day stride (default 2)
///   RAINSHINE_SEED   — simulation seed (default 2017)
[[nodiscard]] const Context& context();

/// Prints a labelled mean/sd table normalized to its peak mean, the way the
/// paper plots Figs. 2-9 ("results normalized with respect to their maximum").
void print_normalized(const std::string& title,
                      std::span<const stats::BinnedRow> rows);

/// Prints the bench header (fleet size, ticket counts) once.
void print_context_banner(const std::string& experiment);

/// RAINSHINE_METRICS=path makes a bench binary drop a JSON metrics sidecar
/// (obs::registry() snapshot) at exit. No-op when the variable is unset.
void write_metrics_sidecar();

/// Process peak resident set (VmHWM from /proc/self/status) in bytes, so
/// memory ceilings land in BENCH JSON as numbers instead of prose. 0 on
/// platforms without procfs. Note this is a high-water mark: it never
/// decreases, so in a multi-phase bench measure the cheap phase first.
[[nodiscard]] std::size_t peak_rss_bytes();

namespace detail {
// Registered from the header, not common.cpp: a bench that never touches
// the shared Context would otherwise not pull common.o out of the static
// library, and the hook would silently never install. An inline variable
// is emitted in the bench's own (always-linked) translation unit.
inline const bool metrics_sidecar_registered = [] {
  std::atexit(&write_metrics_sidecar);
  return true;
}();
}  // namespace detail

}  // namespace rainshine::bench
