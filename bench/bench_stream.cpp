// Live-pipeline throughput: the three hot paths of src/stream measured in
// one process — ticket-stream simulation throughput (tickets/s end to end
// through the bounded channel), ring-store write throughput (pushes/s into
// a two-tier series), and hot-swap latency (registry put, plus the full
// retrain-to-publish path). BENCH_stream.json records the committed
// baseline; RAINSHINE_DAYS scales the streamed horizon.
#include <chrono>
#include <climits>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/stream/retrain.hpp"
#include "rainshine/stream/source.hpp"
#include "rainshine/stream/store.hpp"

using namespace rainshine;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  simdc::FleetSpec spec = simdc::FleetSpec::test_default();
  spec.num_days =
      static_cast<util::DayIndex>(bench::env_int("RAINSHINE_DAYS", 120, 1, 100000));
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, spec.seed);
  const simdc::HazardModel hazard(fleet, env);
  std::printf("{\n");
  std::printf("  \"fleet\": {\"racks\": %zu, \"days\": %d},\n",
              fleet.num_racks(), static_cast<int>(spec.num_days));

  // --- Ticket stream: full horizon through the channel -------------------
  {
    stream::SourceOptions opt;
    opt.seed = spec.seed;
    const auto t0 = std::chrono::steady_clock::now();
    stream::TicketStream stream(fleet, hazard, opt);
    std::size_t tickets = 0;
    std::size_t chunks = 0;
    while (auto chunk = stream.next()) {
      tickets += chunk->tickets.size();
      ++chunks;
    }
    const double s = seconds_since(t0);
    std::printf("  \"ticket_stream\": {\"tickets\": %zu, \"chunks\": %zu, "
                "\"seconds\": %.3f, \"tickets_per_s\": %.0f, "
                "\"days_per_s\": %.1f},\n",
                tickets, chunks, s, static_cast<double>(tickets) / s,
                static_cast<double>(chunks) / s);
  }

  // --- Ring store: sustained two-tier writes -----------------------------
  {
    stream::SeriesStore store;
    const stream::SeriesId id =
        store.add_series({"bench", {{1, 24 * 60}, {24, 120}}});
    const long long pushes =
        bench::env_int("RAINSHINE_STORE_PUSHES", 5'000'000, 1, LLONG_MAX);
    const auto t0 = std::chrono::steady_clock::now();
    for (long long i = 0; i < pushes; ++i) {
      store.push(id, i / 4, static_cast<double>(i & 1023));
    }
    const double s = seconds_since(t0);
    std::printf("  \"ring_store\": {\"pushes\": %lld, \"tiers\": 2, "
                "\"seconds\": %.3f, \"pushes_per_s\": %.0f, "
                "\"memory_bytes\": %zu},\n",
                pushes, s, static_cast<double>(pushes) / s,
                store.memory_bytes());
  }

  // --- Hot swap: registry put latency and full retrain-to-publish --------
  {
    serve::ModelRegistry registry;
    stream::RetrainConfig cfg;
    cfg.interval_days = spec.num_days;  // manual retrain_now only
    cfg.window_days = 30;
    cfg.min_history_days = 10;
    cfg.forest.num_trees = 16;
    stream::RetrainController controller(fleet, env, registry, cfg);
    stream::TicketStream stream(fleet, hazard, {.seed = spec.seed});
    util::DayIndex last_day = 0;
    while (auto chunk = stream.next()) {
      last_day = chunk->day;
      controller.on_chunk(*chunk);
      if (chunk->day + 1 >= 30) break;
    }
    stream.stop();

    const auto t0 = std::chrono::steady_clock::now();
    const auto key = controller.retrain_now(last_day);
    const double retrain_s = seconds_since(t0);

    // Swap alone: re-publish the fitted artifact under fresh versions.
    const auto artifact = registry.get(key->name, key->version);
    constexpr int kSwaps = 1000;
    const auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSwaps; ++i) {
      serve::ModelArtifact copy = *artifact;
      copy.meta.version = static_cast<std::uint32_t>(i + 100);
      registry.put(std::move(copy));
    }
    const double swap_s = seconds_since(t1);
    std::printf("  \"hot_swap\": {\"retrain_to_publish_s\": %.3f, "
                "\"trees\": 16, \"swaps\": %d, \"swap_us\": %.2f, "
                "\"final_generation\": %llu}\n",
                retrain_s, kSwaps, swap_s / kSwaps * 1e6,
                static_cast<unsigned long long>(registry.swap_generation()));
  }
  std::printf("}\n");
  return 0;
}
