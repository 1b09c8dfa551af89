// rainshine_metrics — exercise the instrumented pipeline and dump the obs
// registry, or validate an emitted metrics sidecar.
//
//   --demo [--days N] [--seed S] [--format text|csv|json]
//          [--output PATH] [--trace spans.csv]
//       runs one miniature end-to-end study on the test fleet — simulate
//       tickets, round-trip them through the ticket-CSV reader (kRepair),
//       fit a small forest, score it through the PredictionService — then
//       renders the process-wide metrics registry in the chosen format to
//       stdout or --output. With --trace, span tracing is enabled for the
//       run and the completed spans are written as CSV to the given path.
//
//   --check FILE [--require key1,key2,...]
//       validates that FILE is well-formed JSON (the rainshine.metrics.v1
//       sidecar schema) and that every --require key appears as a quoted
//       JSON object key. This is what scripts/check.sh and CI call to smoke
//       the sidecars without depending on jq or python.
//
// Exit codes: 0 ok, 2 usage error, 3 run/validation error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rainshine/core/observations.hpp"
#include "rainshine/obs/export.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/obs/trace.hpp"
#include "rainshine/serve/artifact.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/simdc/ticket_io.hpp"
#include "rainshine/simdc/tickets.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/strings.hpp"

using namespace rainshine;

namespace {

struct Options {
  bool demo = false;
  std::string check;
  std::vector<std::string> require_keys;
  int days = 60;
  std::uint64_t seed = 2017;
  std::string format = "text";
  std::string output;
  std::string trace;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --demo [--days N] [--seed S] [--format text|csv|json]\n"
               "        [--output PATH] [--trace spans.csv]\n"
               "       %s --check FILE [--require key1,key2,...]\n",
               argv0, argv0);
  std::exit(2);
}

const char* need_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(argv[0]);
  return argv[++i];
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--demo") opt.demo = true;
    else if (a == "--check") opt.check = need_value(argc, argv, i);
    else if (a == "--require") {
      for (const auto k : util::split(need_value(argc, argv, i), ','))
        opt.require_keys.emplace_back(util::trim(k));
    } else if (a == "--days") opt.days = std::atoi(need_value(argc, argv, i));
    else if (a == "--seed")
      opt.seed = std::strtoull(need_value(argc, argv, i), nullptr, 10);
    else if (a == "--format") opt.format = need_value(argc, argv, i);
    else if (a == "--output") opt.output = need_value(argc, argv, i);
    else if (a == "--trace") opt.trace = need_value(argc, argv, i);
    else usage(argv[0]);
  }
  if (opt.demo == !opt.check.empty()) usage(argv[0]);  // exactly one mode
  if (opt.format != "text" && opt.format != "csv" && opt.format != "json")
    usage(argv[0]);
  return opt;
}

/// One miniature study touching every instrumented layer: simdc (simulate),
/// ingest (ticket CSV round-trip under kRepair), cart (forest fit), serve
/// (batched scoring). Small enough to finish in about a second.
void run_demo(const Options& opt) {
  simdc::FleetSpec spec = simdc::FleetSpec::test_default();
  if (opt.days > 0) spec.num_days = opt.days;
  spec.seed = opt.seed;
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, spec.seed);
  const simdc::HazardModel hazard(fleet, env);
  const simdc::TicketLog log = simulate(fleet, env, hazard, {.seed = spec.seed});

  // Round-trip the tickets through the recoverable reader so the ingest
  // counters tick; clean input means rows_seen == rows_ingested.
  std::stringstream ticket_csv;
  simdc::write_ticket_csv(log, ticket_csv);
  simdc::TicketReadOptions read;
  read.policy = ingest::ErrorPolicy::kRepair;
  ingest::IngestReport report;
  const simdc::TicketLog imported =
      simdc::read_ticket_csv(ticket_csv, fleet, read, &report);

  const core::FailureMetrics metrics(fleet, imported);
  core::ObservationOptions obs_opt;
  obs_opt.day_stride = 4;
  const table::Table tbl = core::rack_day_table(metrics, env, obs_opt);

  cart::ForestConfig config;
  config.num_trees = 8;
  config.seed = spec.seed;
  const cart::Dataset data(tbl, core::col::kLambdaHw,
                           core::static_rack_features(), cart::Task::kRegression,
                           cart::MissingResponse::kDropRows);
  const cart::Forest forest = cart::grow_forest(data, config);

  // Round-trip through the .rsf artifact codec and score the table through
  // the service as one request.
  serve::ModelMetadata meta;
  meta.name = "metrics-demo";
  meta.config = config;
  std::stringstream artifact_bytes;
  serve::save_forest(forest, meta, artifact_bytes);
  serve::ModelArtifact artifact = serve::load_forest(artifact_bytes);

  serve::PredictionService service(std::move(artifact));
  const std::size_t scored = service.score(tbl).size();

  std::fprintf(stderr,
               "demo: %zu tickets simulated, %zu imported, %zu rows fitted, "
               "%zu rows scored\n",
               log.size(), imported.size(), data.num_rows(), scored);
}

/// Checks that `text` is well-formed JSON and contains every required key
/// as a quoted object key. Returns the failure message, or empty on success.
std::string check_sidecar(const std::string& text,
                          const std::vector<std::string>& require_keys) {
  if (const auto err = obs::json_parse_error(text)) return *err;
  for (const std::string& key : require_keys) {
    const std::string quoted = "\"" + key + "\"";
    if (text.find(quoted) == std::string::npos)
      return "required key " + quoted + " not found";
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    if (!opt.check.empty()) {
      std::ifstream in(opt.check, std::ios::binary);
      util::require(in.good(), "cannot open " + opt.check);
      std::stringstream buf;
      buf << in.rdbuf();
      const std::string err = check_sidecar(buf.str(), opt.require_keys);
      if (!err.empty()) {
        std::fprintf(stderr, "check failed for %s: %s\n", opt.check.c_str(),
                     err.c_str());
        return 3;
      }
      std::fprintf(stderr, "%s: ok (%zu bytes, %zu required keys)\n",
                   opt.check.c_str(), buf.str().size(),
                   opt.require_keys.size());
      return 0;
    }

    if (!opt.trace.empty()) obs::tracer().enable();
    run_demo(opt);

    const obs::MetricsSnapshot snap = obs::registry().snapshot();
    std::string rendered;
    if (opt.format == "csv") rendered = obs::to_csv(snap);
    else if (opt.format == "json") rendered = obs::to_json(snap);
    else rendered = obs::to_text(snap);

    if (opt.output.empty() || opt.output == "-") {
      std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    } else {
      obs::write_file(opt.output, rendered);
      std::fprintf(stderr, "metrics -> %s\n", opt.output.c_str());
    }
    if (!opt.trace.empty()) {
      const std::vector<obs::SpanRecord> spans = obs::tracer().drain();
      obs::write_file(opt.trace, obs::spans_to_csv(spans));
      std::fprintf(stderr, "%zu spans -> %s (%llu dropped)\n", spans.size(),
                   opt.trace.c_str(),
                   static_cast<unsigned long long>(obs::tracer().dropped()));
      obs::tracer().disable();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  return 0;
}
