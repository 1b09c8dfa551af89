// perfbench — one end-to-end run of the rainshine pipeline.
//
//   perfbench --workload study|serve --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--corrupt-response] [--spans FILE]
//
// Every workload runs the same three stages (study, serve, live) so that
// every end-to-end metric is measured in every run; the workload decides
// which of study and serve runs at full size (live always does). The stages
// take turns, one unit of work each (see stages.hpp). The last line of
// stdout is one JSON object: correctness, operations attempted and
// failed, the end-to-end metrics ("metrics") and the per-layer metrics
// ("layers", read from spans when --trace 1). Exit status 1 when a
// correctness gate failed, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "rainshine/util/parallel.hpp"
#include "stages.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

/// Threads of the util pool: two of the host's four cores, so the client,
/// the server's own threads and neighbouring processes keep the other two.
constexpr std::size_t kPoolThreads = 2;

void Context::count(const std::vector<Exchange>& exchanges) {
  const ClientTally t = tally(exchanges);
  ledger.attempt(t.sent);
  ledger.fail(t.failed);
  net.sent += t.sent;
  net.failed += t.failed;
  net.shed += t.shed;
}

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_response = false;
  std::string spans_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload study|serve "
               "--seed N --seconds S --trace 0|1 [--scale full|tiny] "
               "[--corrupt-response] [--spans FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") { opt.seed = std::stoull(value()); have_seed = true; }
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() == "1";
      else if (a == "--scale") opt.tiny = value() == "tiny";
      else if (a == "--corrupt-response") opt.corrupt_response = true;
      else if (a == "--spans") opt.spans_file = value();
      else usage("unknown argument");
    } catch (const std::logic_error&) {
      usage("bad number");
    }
  }
  if (opt.workload != "study" && opt.workload != "serve") {
    usage("unknown workload");
  }
  if (!have_seed || !(opt.seconds > 0.0)) usage("--seed and --seconds are required");
  return opt;
}

/// Process peak resident set (VmHWM), MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  out << "name,id,parent,request,start_us,end_us\n";
  const auto spans = Trace::spans();
  const Clock::time_point origin = spans.empty() ? Clock::now() : spans.front().start;
  for (const SpanRecord& s : spans) {
    out << s.name << ',' << s.id << ',' << s.parent << ',' << s.request << ','
        << micros(s.start - origin) << ',' << micros(s.end - origin) << '\n';
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  rainshine::util::set_num_threads(kPoolThreads);
  if (opt.trace) Trace::enable();

  Context ctx;
  ctx.seed = opt.seed;
  ctx.corrupt_response = opt.corrupt_response;
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  ctx.client_threads = std::min<std::size_t>(nproc, 4);
  std::printf("host nproc=%zu build=%s pool_threads=%zu client_threads=%zu "
              "workload=%s seed=%llu trace=%d scale=%s\n",
              nproc, PERFBENCH_BUILD_TYPE, rainshine::util::num_threads(),
              ctx.client_threads, opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              opt.tiny ? "tiny" : "full");
  std::fflush(stdout);

  // Stage sizes: the workload's own stage is full size and scales with
  // --seconds, the other runs small; the live stage is full size in both,
  // as a shorter stream did not repeat within a quarter from run to run.
  StudyPlan study{.paper_fleet = false, .mf_days = 913, .mf_reps = 24, .warn_reps = 4};
  ServePlan serve{.bisections = 2};
  LivePlan live{.paper_fleet = true,
                .days = std::max(30, static_cast<int>(std::lround(36 * opt.seconds)))};
  if (opt.workload == "study") {
    study = {.paper_fleet = true,
             .mf_reps = std::max(2, static_cast<int>(std::lround(opt.seconds / 3))),
             .warn_reps = 4};
  } else {
    serve = {.base_slices = std::max(1, static_cast<int>(std::lround(opt.seconds))),
             .replay_requests = 2000};
  }
  if (opt.tiny) {
    study = {.paper_fleet = false, .mf_days = 120, .warn_days = 240,
             .warn_trees = 16, .warn_reps = 1};
    serve = {.fleet_days = 120, .warmup_seconds = 0.2, .base_slices = 1,
             .slice_seconds = 0.5, .step_seconds = 0.3, .bisections = 1,
             .replay_requests = 40};
    live = {.paper_fleet = false, .days = 60, .segment_days = 20, .replay_requests = 4};
  }

  try {
    // The workload's own stage comes first in every round.
    std::vector<std::unique_ptr<Stage>> stages;
    if (opt.workload == "study") {
      stages.push_back(make_study(study, ctx));
      stages.push_back(make_serve(serve, ctx));
    } else {
      stages.push_back(make_serve(serve, ctx));
      stages.push_back(make_study(study, ctx));
    }
    stages.push_back(make_live(live, ctx));
    std::vector<bool> running(stages.size(), true);
    for (bool any = true; any;) {
      any = false;
      for (std::size_t i = 0; i < stages.size(); ++i) {
        if (running[i]) running[i] = stages[i]->step();
        any = any || running[i];
      }
    }
    for (const auto& stage : stages) stage->finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    ctx.ledger.check(false, std::string("run threw: ") + e.what());
  }

  ctx.e2e.set("setup_s", ctx.setup_s, "s");
  ctx.e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
  ctx.layers.set("net.attempts", static_cast<double>(ctx.net.sent), "count");
  ctx.layers.set("net.failed", static_cast<double>(ctx.net.failed), "count");
  ctx.layers.set("net.shed", static_cast<double>(ctx.net.shed), "count");
  if (opt.trace && !opt.spans_file.empty()) write_spans(opt.spans_file);

  for (const std::string& what : ctx.ledger.broken()) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", what.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s, \"layers\": %s}\n",
              ctx.ledger.correct() ? "true" : "false",
              static_cast<unsigned long long>(ctx.ledger.attempted()),
              static_cast<unsigned long long>(ctx.ledger.failed()),
              ctx.e2e.to_json().c_str(), ctx.layers.to_json().c_str());
  return ctx.ledger.correct() ? 0 : 1;
}
