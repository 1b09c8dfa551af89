// The scoring server under an open-loop client: small CSV bodies POSTed to
// /score, a fixed-rate base phase, then a rate ladder to the first rate the
// server cannot hold. Every request is below max_batch_rows, so each one
// waits out the service's batching window.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rainshine/cart/dataset.hpp"
#include "rainshine/cart/forest.hpp"
#include "rainshine/core/metrics.hpp"
#include "rainshine/core/observations.hpp"
#include "rainshine/net/server.hpp"
#include "rainshine/serve/artifact.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/simdc/tickets.hpp"
#include "rainshine/table/csv.hpp"
#include "stages.hpp"

namespace perfbench {
namespace {

using namespace rainshine;

constexpr double kBaseRps = 400.0;
constexpr double kLadderStartRps = 250.0;
constexpr double kLadderMaxRps = 64000.0;
constexpr std::size_t kRowsPerBody = 8;
constexpr std::size_t kBodies = 256;

/// The served model and the request bodies, made once and untimed.
struct Material {
  std::string artifact;             ///< .rsf bytes
  std::vector<std::string> bodies;  ///< CSV, kRowsPerBody rack-day rows each
  std::vector<std::vector<double>> expected;  ///< Forest::predict per body
};

Material prepare(const ServePlan& plan, std::uint64_t seed) {
  const Span root("serve.prepare");
  simdc::FleetSpec spec = simdc::FleetSpec::test_default();
  spec.num_days = plan.fleet_days;
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, seed);
  const simdc::HazardModel hazard(fleet, env);
  core::FailureMetrics metrics(fleet);
  core::MetricsSink sink(metrics);
  (void)simdc::simulate_streamed(fleet, hazard, sink, {.seed = seed});
  const table::Table tbl =
      core::rack_day_table(metrics, env, {.day_stride = 2, .include_mu = false});

  std::vector<std::string> features = core::static_rack_features();
  features.push_back(core::col::kTempF);
  features.push_back(core::col::kRh);
  const cart::Dataset data(tbl, core::col::kLambdaHw, features,
                           cart::Task::kRegression, cart::MissingResponse::kDropRows);
  const cart::Forest forest =
      cart::grow_forest(data, {.num_trees = 24, .seed = seed});

  Material m;
  {
    std::ostringstream out;
    const Span s("serve.save_forest");
    serve::save_forest(forest, {.name = "lambda-hw", .version = 1}, out);
    m.artifact = out.str();
  }
  const table::Table rows = tbl.select(features);
  const std::vector<std::size_t> order = shuffled(rows.num_rows(), seed);
  const auto schema = forest.trees().front().features();
  for (std::size_t b = 0; b < kBodies; ++b) {
    std::vector<std::size_t> idx;
    for (std::size_t r = 0; r < kRowsPerBody; ++r) {
      idx.push_back(order[(b * kRowsPerBody + r) % order.size()]);
    }
    std::ostringstream csv;
    table::write_csv(rows.take(idx), csv);
    m.bodies.push_back(csv.str());
    std::istringstream in(m.bodies.back());
    const table::Table parsed = table::read_csv(in);
    m.expected.push_back(forest.predict(serve::make_scoring_dataset(parsed, schema)));
  }
  return m;
}

/// Parses a /score response ("prediction\n" then one value a line).
[[nodiscard]] std::vector<double> parse_predictions(const std::string& text) {
  std::vector<double> out;
  std::size_t pos = text.find('\n');
  while (pos != std::string::npos && pos + 1 < text.size()) {
    const std::size_t end = text.find('\n', pos + 1);
    const std::string cell = text.substr(pos + 1, end - pos - 1);
    char* stop = nullptr;
    out.push_back(std::strtod(cell.c_str(), &stop));
    if (stop == cell.c_str()) return {};
    pos = end;
  }
  return out;
}

/// A listening server; destroying it drains the server first.
struct Server {
  std::shared_ptr<serve::PredictionService> service;
  std::unique_ptr<net::HttpServer> http;
};

std::unique_ptr<Server> start_server(const std::string& artifact) {
  const Span root("serve.setup");
  auto server = std::make_unique<Server>();
  std::istringstream in(artifact);
  std::optional<serve::ModelArtifact> loaded;
  {
    const Span s("serve.load_forest");
    loaded.emplace(serve::load_forest(in));
  }
  server->service = std::make_shared<serve::PredictionService>(std::move(*loaded));
  server->http = std::make_unique<net::HttpServer>(server->service, nullptr,
                                                   net::ServerConfig{.num_workers = 2});
  return server;
}

/// The rate ladder: doubles from kLadderStartRps until a rate misses, then
/// bisects between the last rate held and the first missed. A step is tried
/// twice before it counts as missed, so one host hiccup does not end it.
class Ladder {
 public:
  explicit Ladder(int bisections) : bisections_left_(bisections) {}
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] double rate() const { return rate_; }
  [[nodiscard]] double held() const { return held_; }

  void record(bool passed) {
    if (!passed && ++tries_ < 2) return;
    tries_ = 0;
    if (missed_ == 0.0) {
      if (passed) {
        held_ = rate_;
        rate_ *= 2;
        done_ = rate_ > kLadderMaxRps;
        return;
      }
      missed_ = rate_;
    } else {
      (passed ? held_ : missed_) = rate_;
      --bisections_left_;
    }
    done_ = bisections_left_ <= 0 || held_ == 0.0;
    rate_ = (held_ + missed_) / 2.0;
  }

 private:
  double rate_ = kLadderStartRps;
  double held_ = 0.0;
  double missed_ = 0.0;
  int bisections_left_;
  int tries_ = 0;
  bool done_ = false;
};

class ServeStage final : public Stage {
 public:
  ServeStage(const ServePlan& plan, Context& ctx)
      : plan_(plan), ctx_(ctx), m_(prepare(plan, ctx.seed)), ladder_(plan.bisections),
        corrupt_next_(ctx.corrupt_response) {
    std::vector<double> setups;
    NetTimer timer;
    for (int i = 0; i < kSetupRepeats; ++i) {
      server_.reset();
      timer.start();
      server_ = start_server(m_.artifact);
      setups.push_back(timer.stop());
    }
    ctx.setup_s += median(setups) * (1.0 - timer.steal_share());
    // Untimed warm-up of the server, the allocator and the client.
    record(run_for(schedule(kBaseRps), plan.warmup_seconds));
  }

  // One slice of the base phase and one ladder step.
  bool step() override {
    if (slices_ >= plan_.base_slices && ladder_.done()) return false;
    if (slices_ < plan_.base_slices) {
      const serve::ServiceStats before = server_->service->stats();
      const std::vector<Exchange> slice = record(run_for(schedule(kBaseRps), plan_.slice_seconds));
      const serve::ServiceStats after = server_->service->stats();
      batches_ += after.batches_flushed - before.batches_flushed;
      batched_requests_ += after.requests_completed - before.requests_completed;
      deadline_flushes_ += after.deadline_flushes - before.deadline_flushes;
      base_.insert(base_.end(), slice.begin(), slice.end());
      ++slices_;
    }
    if (!ladder_.done()) {
      const double rps = ladder_.rate();
      const std::vector<Exchange> ex = record(run_for(schedule(rps), plan_.step_seconds));
      std::vector<double> latency;
      std::vector<double> late;
      bool failed = false;
      for (const Exchange& e : ex) {
        failed = failed || !e.ok();
        latency.push_back(e.latency_us());
        late.push_back(e.late_us());
      }
      const double p99_ms = quantile(latency, 0.99) / 1000.0;
      const bool on_schedule = quantile(late, 0.99) / 1000.0 <= kLadderP99LimitMs;
      const bool passed = !failed && on_schedule && p99_ms <= kLadderP99LimitMs;
      std::fprintf(stderr, "perfbench: serve ladder %.0f rps p99 %.2f ms %s\n", rps,
                   p99_ms, passed ? "held" : "missed");
      ladder_.record(passed);
    }
    return true;
  }

  void finish() override {
    std::vector<double> latency_us, round_trip_us, late_us;
    for (const Exchange& e : base_) {
      late_us.push_back(e.late_us());
      if (!e.ok()) continue;
      latency_us.push_back(e.latency_us());
      round_trip_us.push_back(e.round_trip_us());
    }
    ctx_.ledger.check(responses_equal_,
                      "serve: every response equals in-process Forest::predict");
    ctx_.e2e.set("score_p50_us", median(latency_us), "us");
    ctx_.e2e.set("score_max_rps", ladder_.held(), "1/s");

    const Split split = Trace::on() ? replay() : Split{};
    server_.reset();

    MetricSet& layers = ctx_.layers;
    const SpanIndex spans(Trace::spans());
    const auto load = spans.durations("serve.load_forest", "serve.setup");
    const auto save = spans.durations("serve.save_forest", "serve.prepare");
    const double csv = median(split.csv_us);
    const double dataset = median(split.dataset_us);
    const double predict = median(split.predict_us);
    const double score = median(split.score_us);
    const double batches = static_cast<double>(batches_);
    layers.set("cart.predict_us", predict, "us");
    layers.set("table.csv_us", csv, "us");
    layers.set("serve.save_ms", save.empty() ? 0.0 : save.back() * 1e3, "ms");
    layers.set("serve.load_ms", median(load) * 1e3, "ms");
    layers.set("serve.artifact_bytes", static_cast<double>(m_.artifact.size()), "bytes");
    layers.set("serve.dataset_us", dataset, "us");
    layers.set("serve.score_us", score, "us");
    layers.set("serve.queue_us", score - dataset - predict, "us");
    layers.set("serve.requests_per_batch",
               batches > 0 ? static_cast<double>(batched_requests_) / batches : 0.0, "ratio");
    layers.set("serve.deadline_flush_ratio",
               batches > 0 ? static_cast<double>(deadline_flushes_) / batches : 0.0, "ratio");
    layers.set("net.request_p50_us", median(round_trip_us), "us");
    layers.set("net.request_p90_us", quantile(round_trip_us, 0.90), "us");
    layers.set("net.request_p99_us", quantile(round_trip_us, 0.99), "us");
    layers.set("net.self_us", median(round_trip_us) - score - csv, "us");
    layers.set("net.late_p50_us", median(late_us), "us");
    layers.set("net.late_p99_us", quantile(late_us, 0.99), "us");
  }

 private:
  /// Per-layer times of one request, from the traced in-process replay.
  struct Split {
    std::vector<double> csv_us, dataset_us, predict_us, score_us;
  };

  Schedule schedule(double rps) {
    return Schedule{.port = server_->http->port(),
                    .bodies = &m_.bodies,
                    .order = shuffled(m_.bodies.size(), ctx_.seed * 1000 + ++phase_),
                    .rps = rps,
                    .threads = ctx_.client_threads,
                    .check = [this](std::size_t body, const std::string& response) {
                      return check(body, response);
                    }};
  }

  // The gate: a response must equal in-process Forest::predict on the same
  // rows, bit for bit. The self-test damages one response to prove it bites.
  bool check(std::size_t body, const std::string& response) {
    std::string text = response;
    // Damages the first value's leading digit ('0' <-> '1', ...).
    const std::size_t first = text.find('\n') + 1;
    if (corrupt_next_.exchange(false) && first < text.size()) text[first] ^= 1;
    return bit_identical(parse_predictions(text), m_.expected[body]);
  }

  const std::vector<Exchange>& record(const std::vector<Exchange>& exchanges) {
    ctx_.count(exchanges);
    for (const Exchange& e : exchanges) {
      responses_equal_ = responses_equal_ && (e.status != 200 || e.checked);
    }
    return exchanges;
  }

  // The same bodies, at the base rate and in process, through each layer
  // the server's /score handler calls.
  Split replay() {
    Split split;
    std::istringstream in(m_.artifact);
    const serve::ModelArtifact local = serve::load_forest(in);
    const auto start = Clock::now();
    const auto period = std::chrono::duration<double>(1.0 / kBaseRps);
    for (std::size_t i = 0; i < plan_.replay_requests; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i)));
      const std::size_t body = i % m_.bodies.size();
      const std::uint64_t request = i + 1;
      table::Table rows;
      auto t = Clock::now();
      {
        const Span s("table.read_csv", request);
        std::istringstream csv(m_.bodies[body]);
        rows = table::read_csv(csv);
      }
      split.csv_us.push_back(micros(Clock::now() - t));
      t = Clock::now();
      std::optional<cart::Dataset> ds;
      {
        const Span s("serve.make_scoring_dataset", request);
        ds.emplace(serve::make_scoring_dataset(rows, local.meta.schema));
      }
      split.dataset_us.push_back(micros(Clock::now() - t));
      t = Clock::now();
      std::vector<double> p;
      {
        const Span s("cart.predict", request);
        p = local.forest->predict(*ds);
      }
      split.predict_us.push_back(micros(Clock::now() - t));
      t = Clock::now();
      std::vector<double> q;
      {
        const Span s("serve.score", request);
        q = server_->service->score(rows);
      }
      split.score_us.push_back(micros(Clock::now() - t));
      ctx_.ledger.check(bit_identical(p, m_.expected[body]) &&
                            bit_identical(q, m_.expected[body]),
                        "serve: in-process replay equals Forest::predict");
    }
    return split;
  }

  ServePlan plan_;
  Context& ctx_;
  const Material m_;
  Ladder ladder_;
  std::atomic<bool> corrupt_next_;
  std::unique_ptr<Server> server_;
  std::uint64_t phase_ = 0;
  int slices_ = 0;
  std::vector<Exchange> base_;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_requests_ = 0;
  std::uint64_t deadline_flushes_ = 0;
  bool responses_equal_ = true;
};

}  // namespace

std::unique_ptr<Stage> make_serve(const ServePlan& plan, Context& ctx) {
  return std::make_unique<ServeStage>(plan, ctx);
}

}  // namespace perfbench
