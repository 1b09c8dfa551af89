// The live pipeline, laid out as rainshine_streamd lays it out: tickets and
// telemetry stream day by day into a SeriesStore, a RetrainController refits
// the lambda_hw forest on a rolling window, and each publish is swapped into
// the HTTP server while a client POSTs 1024-row bodies. Those bodies skip
// the batching window (256 rows or more flush at once) and take the shared
// util pool, where they queue behind the retrain's grow_forest.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rainshine/core/metrics.hpp"
#include "rainshine/core/observations.hpp"
#include "rainshine/net/server.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/stream/retrain.hpp"
#include "rainshine/stream/source.hpp"
#include "rainshine/stream/store.hpp"
#include "rainshine/table/csv.hpp"
#include "stages.hpp"

namespace perfbench {
namespace {

using namespace rainshine;

constexpr double kLiveRps = 50.0;
constexpr std::size_t kRowsPerBody = 1024;
constexpr std::size_t kBodies = 16;
constexpr double kMaxSegmentSeconds = 60.0;  ///< caps the client's schedule

/// rainshine_streamd's retrain defaults.
stream::RetrainConfig retrain_config() {
  return {.interval_days = 15,
          .window_days = 30,
          .min_history_days = 15,
          .forest = {.num_trees = 16}};
}

/// streamd's ring geometry: an hourly tier over two windows and a daily
/// tier over four (at least 120 days).
std::vector<stream::TierSpec> tiers(util::DayIndex window_days) {
  const auto hourly = static_cast<std::size_t>(std::max<util::DayIndex>(2 * window_days, 14));
  const auto daily = static_cast<std::size_t>(std::max<util::DayIndex>(4 * window_days, 120));
  return {{1, hourly * util::kHoursPerDay}, {util::kHoursPerDay, daily}};
}

/// Everything the live loop needs before its first day.
struct Pipeline {
  Pipeline(simdc::FleetSpec spec, std::uint64_t seed)
      : fleet(std::move(spec)), env(fleet, seed), hazard(fleet, env) {
    const auto t = tiers(retrain_config().window_days);
    for (const simdc::Rack& rack : fleet.racks()) {
      const std::string suffix = "R" + std::to_string(rack.id);
      rack_series.emplace_back(store.add_series({"env.temp_f." + suffix, t}),
                               store.add_series({"env.rh." + suffix, t}));
      if (!dc_series.contains(rack.dc)) {
        dc_series[rack.dc] = store.add_series(
            {"fail.hw.dc." + std::string(simdc::to_string(rack.dc)), t});
      }
      if (!sku_series.contains(rack.sku)) {
        sku_series[rack.sku] = store.add_series(
            {"fail.hw.sku." + std::string(simdc::to_string(rack.sku)), t});
      }
    }
    const stream::SourceOptions source{.seed = seed};
    controller = std::make_unique<stream::RetrainController>(fleet, env, registry,
                                                             retrain_config());
    tickets = std::make_unique<stream::TicketStream>(fleet, hazard, source);
    telemetry = std::make_unique<stream::TelemetryStream>(fleet, env, source);
  }
  // The streams' producer threads hold the fleet and models by address.
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  simdc::Fleet fleet;
  simdc::EnvironmentModel env;
  simdc::HazardModel hazard;
  stream::SeriesStore store;
  std::vector<std::pair<stream::SeriesId, stream::SeriesId>> rack_series;
  std::map<simdc::DataCenterId, stream::SeriesId> dc_series;
  std::map<simdc::SkuId, stream::SeriesId> sku_series;
  serve::ModelRegistry registry;
  std::unique_ptr<stream::RetrainController> controller;
  std::unique_ptr<stream::TicketStream> tickets;
  std::unique_ptr<stream::TelemetryStream> telemetry;
};

/// Real rack-day rows of the live fleet's first month, shuffled by `seed`
/// and cut into kRowsPerBody-row CSV bodies with the live model's columns.
std::vector<std::string> make_bodies(const Pipeline& p, std::uint64_t seed) {
  const core::FailureMetrics none(p.fleet);
  const table::Table tbl = core::rack_day_table(
      none, p.env, {.last_day = 30, .include_mu = false});
  std::vector<std::string> features = core::static_rack_features();
  features.push_back(core::col::kTempF);
  features.push_back(core::col::kRh);
  const table::Table rows = tbl.select(features);
  const std::vector<std::size_t> order = shuffled(rows.num_rows(), seed);
  std::vector<std::string> bodies;
  for (std::size_t b = 0; b < kBodies; ++b) {
    std::vector<std::size_t> idx;
    for (std::size_t r = 0; r < kRowsPerBody; ++r) {
      idx.push_back(order[(b * kRowsPerBody + r) % order.size()]);
    }
    std::ostringstream csv;
    table::write_csv(rows.take(idx), csv);
    bodies.push_back(csv.str());
  }
  return bodies;
}

/// A response carries one prediction a line after the header.
bool has_all_predictions(const std::string& response) {
  std::size_t lines = 0;
  for (const char c : response) lines += c == '\n' ? 1 : 0;
  return lines == kRowsPerBody + 1;
}

class LiveStage final : public Stage {
 public:
  LiveStage(const LivePlan& plan, Context& ctx) : plan_(plan), ctx_(ctx) {
    simdc::FleetSpec spec = plan.paper_fleet ? simdc::FleetSpec::paper_default()
                                             : simdc::FleetSpec::test_default();
    spec.num_days = plan.days;
    std::vector<double> setups;
    NetTimer timer;
    for (int i = 0; i < kSetupRepeats; ++i) {
      p_.reset();
      timer.start();
      const Span s("live.setup");
      p_ = std::make_unique<Pipeline>(spec, ctx.seed);
      setups.push_back(timer.stop());
    }
    ctx.setup_s += median(setups) * (1.0 - timer.steal_share());
    bodies_ = make_bodies(*p_, ctx.seed);
  }

  // Streams the next segment of days, with the client sending while it
  // runs. Between segments the stream and the client pause.
  bool step() override {
    if (exhausted_) return false;
    stream_timer_.start();
    for (int d = 0; d < plan_.segment_days && !exhausted_; ++d) {
      if (server_ && !client_) start_client();
      exhausted_ = !stream_day();
    }
    const double segment_s = stream_timer_.stop();
    std::fprintf(stderr, "perfbench: live segment to day %d: %.3f s, %zu publishes\n",
                 static_cast<int>(days_), segment_s, versions_.size());
    if (client_) {
      client_->stop();
      const std::vector<Exchange> ex = client_->join();
      client_.reset();
      ctx_.count(ex);
      requests_.insert(requests_.end(), ex.begin(), ex.end());
    }
    return true;
  }

  void finish() override {
    bool increasing = !versions_.empty();
    for (std::size_t i = 1; i < versions_.size(); ++i) {
      increasing = increasing && versions_[i] > versions_[i - 1];
    }
    Ledger& ledger = ctx_.ledger;
    ledger.check(increasing, "live: published versions strictly increase");
    ledger.check(server_ && server_->service()->model().version == versions_.back(),
                 "live: the server serves the newest version");
    ledger.check(!requests_.empty(), "live: the client sent requests");
    ledger.attempt(versions_.size());  // publishes

    std::size_t within = 0;
    std::vector<double> in_retrain_us, outside_us, round_trip_us;
    for (const Exchange& e : requests_) {
      if (!e.ok()) continue;
      if (e.latency_us() <= kSloLimitMs * 1000.0) ++within;
      round_trip_us.push_back(e.round_trip_us());
      bool overlaps = false;
      for (const auto& [from, to] : retrains_) {
        overlaps = overlaps || (e.sent < to && e.done > from);
      }
      (overlaps ? in_retrain_us : outside_us).push_back(e.round_trip_us());
    }
    ctx_.e2e.set("score_within_slo",
                 static_cast<double>(within) /
                     static_cast<double>(std::max<std::size_t>(1, requests_.size())),
                 "ratio");
    // Whole-stream figures: days over the net time spent streaming them, and
    // the mean net publish, so that every busy spell of the host weighs by
    // its length.
    ctx_.e2e.set("live_days_per_s", static_cast<double>(days_) / stream_timer_.net_s(),
                 "1/s");
    ctx_.e2e.set("publish_mean_ms", publish_timer_.net_mean_s() * 1e3, "ms");
    std::fprintf(stderr, "perfbench: steal share: live stream %.3f, publishes %.3f\n",
                 stream_timer_.steal_share(), publish_timer_.steal_share());

    std::vector<double> csv_us, predict_us;
    if (Trace::on() && server_) replay(csv_us, predict_us);
    server_.reset();  // drains

    MetricSet& layers = ctx_.layers;
    const SpanIndex spans(Trace::spans());
    std::vector<double> retrain_ms;
    for (const auto& [from, to] : retrains_) retrain_ms.push_back(seconds(to - from) * 1e3);
    layers.set("cart.predict_bulk_us", median(predict_us), "us");
    layers.set("table.csv_bulk_us", median(csv_us), "us");
    layers.set("serve.swap_ms", median(swap_ms_), "ms");
    layers.set("net.live_request_p50_us", median(round_trip_us), "us");
    layers.set("net.request_in_retrain_p50_us", median(in_retrain_us), "us");
    layers.set("net.request_outside_retrain_p50_us", median(outside_us), "us");
    layers.set("stream.wait_ms", spans.self_seconds("stream.wait") * 1e3, "ms");
    layers.set("stream.push_ms", spans.self_seconds("stream.push") * 1e3, "ms");
    layers.set("stream.retrain_p50_ms", median(retrain_ms), "ms");
    layers.set("stream.publishes", static_cast<double>(versions_.size()), "count");
  }

 private:
  void start_client() {
    client_ = std::make_unique<OpenLoopClient>(Schedule{
        .port = server_->port(),
        .bodies = &bodies_,
        .order = shuffled(bodies_.size(), ctx_.seed * 1000 + ++segment_),
        .rps = kLiveRps,
        .max_requests = static_cast<std::size_t>(kLiveRps * kMaxSegmentSeconds),
        .threads = ctx_.client_threads,
        .check = [](std::size_t, const std::string& r) { return has_all_predictions(r); }});
  }

  // One day: wait for both streams, push into the store, hand the chunk to
  // the controller and swap any model it publishes into the server.
  bool stream_day() {
    std::optional<stream::TelemetryChunk> tel;
    std::optional<stream::TicketChunk> chunk;
    {
      const Span s("stream.wait");
      tel = p_->telemetry->next();
      chunk = p_->tickets->next();
    }
    if (!tel || !chunk) return false;
    {
      const Span s("stream.push");
      for (const stream::TelemetryReading& r : tel->readings) {
        const auto& [temp, rh] = p_->rack_series[static_cast<std::size_t>(r.rack_id)];
        p_->store.push(temp, r.hour, r.temperature_f);
        p_->store.push(rh, r.hour, r.relative_humidity);
      }
      for (const simdc::Ticket& t : chunk->tickets) {
        if (!t.true_positive || !simdc::is_hardware(t.fault)) continue;
        const simdc::Rack& rack = p_->fleet.rack(t.rack_id);
        p_->store.push(p_->dc_series.at(rack.dc), t.open_hour, 1.0);
        p_->store.push(p_->sku_series.at(rack.sku), t.open_hour, 1.0);
      }
    }
    publish_timer_.start();  // stopped only on days that publish
    const auto handed = Clock::now();
    std::optional<serve::ModelKey> key;
    {
      const Span s("stream.on_chunk");
      key = p_->controller->on_chunk(*chunk);
    }
    ++days_;
    if (!key) return true;
    const auto fitted = Clock::now();
    retrains_.emplace_back(handed, fitted);
    versions_.push_back(key->version);
    {
      const Span s("serve.swap");
      auto service = std::make_shared<serve::PredictionService>(
          *p_->registry.get(key->name, key->version));
      if (server_) {
        server_->swap_service(std::move(service));
      } else {
        server_ = std::make_unique<net::HttpServer>(
            std::move(service), &p_->registry, net::ServerConfig{.num_workers = 2},
            &p_->store);
        return true;  // the first publish starts the server instead of swapping
      }
    }
    swap_ms_.push_back(seconds(Clock::now() - fitted) * 1e3);
    publish_timer_.stop();
    return true;
  }

  // The 1024-row bodies, in process, through read_csv and Forest::predict.
  void replay(std::vector<double>& csv_us, std::vector<double>& predict_us) {
    const auto artifact = p_->controller->current();
    for (std::size_t i = 0; i < plan_.replay_requests; ++i) {
      const std::uint64_t request = i + 1;
      table::Table rows;
      auto t = Clock::now();
      {
        const Span s("table.read_csv", request);
        std::istringstream csv(bodies_[i % bodies_.size()]);
        rows = table::read_csv(csv);
      }
      csv_us.push_back(micros(Clock::now() - t));
      const cart::Dataset ds = serve::make_scoring_dataset(rows, artifact->meta.schema);
      t = Clock::now();
      std::size_t scored = 0;
      {
        const Span s("cart.predict", request);
        scored = artifact->forest->predict(ds).size();
      }
      predict_us.push_back(micros(Clock::now() - t));
      ctx_.ledger.check(scored == kRowsPerBody, "live: in-process replay scores every row");
    }
  }

  LivePlan plan_;
  Context& ctx_;
  std::unique_ptr<Pipeline> p_;
  std::vector<std::string> bodies_;
  std::unique_ptr<net::HttpServer> server_;
  std::unique_ptr<OpenLoopClient> client_;  ///< declared after what it reads
  bool exhausted_ = false;
  util::DayIndex days_ = 0;
  NetTimer stream_timer_;   ///< every segment, pauses excluded
  NetTimer publish_timer_;  ///< every publish but the first
  std::uint64_t segment_ = 0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> retrains_;
  std::vector<double> swap_ms_;
  std::vector<std::uint32_t> versions_;
  std::vector<Exchange> requests_;
};

}  // namespace

std::unique_ptr<Stage> make_live(const LivePlan& plan, Context& ctx) {
  return std::make_unique<LiveStage>(plan, ctx);
}

}  // namespace perfbench
