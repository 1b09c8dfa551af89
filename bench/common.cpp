#include "common.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "rainshine/obs/export.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/stats/descriptive.hpp"
#include "rainshine/util/strings.hpp"

namespace rainshine::bench {

long long env_int(const char* name, long long fallback, long long lo,
                  long long hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long long value = 0;
  if (!util::parse_int(v, value) || value < lo || value > hi) {
    std::fprintf(stderr, "%s: %s: want an integer in %lld..%lld, got '%s'\n",
                 program_invocation_short_name, name, lo, hi, v);
    std::exit(2);
  }
  return value;
}

std::size_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  std::size_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long value = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &value) == 1) {
      kib = static_cast<std::size_t>(value);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}

void write_metrics_sidecar() {
  const char* path = std::getenv("RAINSHINE_METRICS");
  if (path == nullptr || *path == '\0') return;
  try {
    obs::write_file(path, obs::to_json(obs::registry().snapshot()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics sidecar %s failed: %s\n", path, e.what());
  }
}

const Context& context() {
  static const Context ctx = [] {
    Context c;
    c.spec = simdc::FleetSpec::paper_default();
    c.spec.num_days =
        static_cast<util::DayIndex>(env_int("RAINSHINE_DAYS", 913, 1, 100000));
    c.spec.seed = static_cast<std::uint64_t>(
        env_int("RAINSHINE_SEED", 2017, 0, LLONG_MAX));
    c.day_stride =
        static_cast<std::int32_t>(env_int("RAINSHINE_STRIDE", 2, 1, 100000));
    c.fleet = std::make_unique<simdc::Fleet>(c.spec);
    c.env = std::make_unique<simdc::EnvironmentModel>(*c.fleet, c.spec.seed);
    c.hazard = std::make_unique<simdc::HazardModel>(*c.fleet, *c.env);
    c.log = std::make_unique<simdc::TicketLog>(
        simulate(*c.fleet, *c.env, *c.hazard, {.seed = c.spec.seed}));
    c.metrics = std::make_unique<core::FailureMetrics>(*c.fleet, *c.log);
    return c;
  }();
  return ctx;
}

void print_context_banner(const std::string& experiment) {
  const Context& c = context();
  std::printf("### %s\n", experiment.c_str());
  std::printf("fleet: %zu racks / %zu servers, %d days, seed %llu, %zu tickets\n\n",
              c.fleet->num_racks(), c.fleet->num_servers(), c.spec.num_days,
              static_cast<unsigned long long>(c.spec.seed), c.log->size());
}

void print_normalized(const std::string& title,
                      std::span<const stats::BinnedRow> rows) {
  std::printf("%s\n", title.c_str());
  double peak = 0.0;
  for (const auto& row : rows) peak = std::max(peak, row.mean);
  std::printf("%-12s %10s %10s %10s %10s\n", "group", "norm", "mean", "sd", "n");
  for (const auto& row : rows) {
    std::printf("%-12s %10.3f %10.4f %10.4f %10zu\n", row.label.c_str(),
                peak > 0.0 ? row.mean / peak : 0.0, row.mean, row.stddev,
                row.count);
  }
  std::printf("\n");
}

}  // namespace rainshine::bench
