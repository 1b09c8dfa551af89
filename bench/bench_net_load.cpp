// Network serving under open-loop load: boots an in-process HttpServer on an
// ephemeral port, then sweeps offered rps with the loadgen client (fixed due
// times, latency measured from the due time — coordinated-omission honest)
// and reports p50/p99/p999 and the shed rate at each point. The sweep is the
// rps_sweep section of BENCH_serve.json; it shows how far the workers keep
// up and where the 503 shedding path takes over.
//
//   RAINSHINE_NET_RPS       max offered rps of the sweep      (default 3200)
//   RAINSHINE_NET_DURATION  ms per sweep point                (default 2000)
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "rainshine/cart/forest.hpp"
#include "rainshine/net/loadgen.hpp"
#include "rainshine/net/server.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/util/rng.hpp"

using namespace rainshine;

namespace {

serve::ModelArtifact regression_artifact() {
  util::Rng rng(2017);
  std::vector<double> x(600);
  std::vector<double> y(600);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(0.0, 40.0);                       // inlet temp, say
    y[i] = 0.05 * x[i] + rng.uniform(0.0, 0.2);          // failure-rate-ish
  }
  table::Table t;
  t.add_column("x", table::Column::continuous(std::move(x)));
  t.add_column("y", table::Column::continuous(std::move(y)));
  const cart::Dataset data(t, "y", {"x"}, cart::Task::kRegression);
  cart::ForestConfig cfg;
  cfg.num_trees = 24;
  cfg.seed = 2017;
  cart::Forest forest = cart::grow_forest(data, cfg);
  serve::ModelMetadata meta;
  meta.name = "bench";
  meta.version = 1;
  meta.task = forest.task();
  meta.schema = forest.trees().front().features();
  return serve::ModelArtifact{
      std::move(meta), std::make_shared<const cart::Forest>(std::move(forest))};
}

}  // namespace

int main() {
  const auto max_rps =
      static_cast<double>(bench::env_int("RAINSHINE_NET_RPS", 3200, 1, 1'000'000));
  const auto duration = std::chrono::milliseconds(
      bench::env_int("RAINSHINE_NET_DURATION", 2000, 1, 3'600'000));

  auto service = std::make_shared<serve::PredictionService>(regression_artifact());
  net::ServerConfig cfg;
  // Small-box geometry: 2 workers + 4 queue slots caps in-flight capacity at
  // 6, while the client runs 8 threads — so past the knee the acceptor's
  // 503 shedding path is actually exercised instead of latency absorbing
  // everything invisibly.
  cfg.num_workers = 2;
  cfg.max_pending_connections = 4;
  net::HttpServer server(service, nullptr, cfg);

  // 8 rows per request: a rack's latest telemetry, the realistic serving
  // regime, where per-request overhead rather than scoring sets latency.
  const std::string body = "x\n1.5\n4\n9.25\n12\n18.5\n24\n31\n38.75\n";

  std::printf("{\n  \"bench\": \"bench_net_load\",\n  \"rps_sweep\": [\n");
  bool first = true;
  for (double frac : {0.125, 0.25, 0.5, 0.75, 1.0}) {
    net::LoadGenConfig load;
    load.port = server.port();
    load.body = body;
    load.rps = max_rps * frac;
    load.duration = duration;
    load.num_threads = 8;
    load.max_retries = 2;
    load.seed = 42;
    const net::LoadGenReport report = net::run_load(load);
    std::printf("%s    %s", first ? "" : ",\n", report.to_json().c_str());
    std::fflush(stdout);
    first = false;
  }
  std::printf("\n  ]\n}\n");

  server.request_drain();
  server.wait();
  return 0;
}
