// HttpServer: the hardened wire front-end over serve::PredictionService.
//
// Thread shape: one acceptor thread feeding a BOUNDED queue of accepted
// connections, drained by a fixed pool of worker threads. Every resource a
// client can consume has an explicit ceiling and an explicit overflow
// behaviour:
//
//   connection queue full   → immediate 503 + Retry-After, connection closed
//                             (load shedding — the server stays responsive
//                             past saturation instead of building unbounded
//                             backlog; shed count in net.connections_shed)
//   slow/stalled peer       → SO_RCVTIMEO/SO_SNDTIMEO expire; 408 where a
//                             reply is possible; worker thread freed either
//                             way (slow-loris defense)
//   oversized/malformed     → typed RequestError → 4xx/5xx via status_for,
//                             parsing bounded by HttpLimits at every step
//   per-request deadline    → X-Deadline-Ms (capped) or the configured
//                             default, propagated into the service; a
//                             request still queued when it expires is a 504
//
// Endpoints:
//   POST /score    CSV rows in, CSV predictions out (schema-checked; 422 on
//                  mismatch, 400 on unparseable CSV)
//   GET  /models   JSON: serving model + registry catalogue (with swap
//                  generation + registration timestamps) + drain state
//   GET  /metrics  obs::registry() exposition (text, ?format=json for JSON)
//   GET  /series   ring-store time series (JSON; bounded typed query
//                  parsing; 404 unless a SeriesStore was attached)
//   GET  /healthz  "ok" / "draining"
//
// Hot-swap: swap_service() atomically replaces the PredictionService behind
// /score. Every request snapshots the shared_ptr once, so in-flight requests
// finish on the service (and model artifact) they started with while new
// requests see the replacement — the same pinning contract as
// ModelRegistry::put.
//
// Drain state machine (SIGTERM path):
//
//   kServing --request_drain()--> kDraining --workers idle--> kStopped
//
// request_drain() is async-signal-safe (one atomic store + one self-pipe
// write): call it straight from a SIGTERM handler. The acceptor wakes, the
// listener closes (new connections are refused by the kernel), queued and
// in-flight requests finish — every admitted request gets its response,
// keep-alive connections are answered `Connection: close` — then workers
// exit and wait() returns so the process can flush its metrics sidecar and
// exit 0.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rainshine/net/http.hpp"
#include "rainshine/net/socket.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/stream/store.hpp"

namespace rainshine::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  std::size_t num_workers = 4;
  /// Accepted connections waiting for a worker. Beyond this, shed.
  std::size_t max_pending_connections = 64;
  HttpLimits limits;
  std::chrono::milliseconds read_timeout{5000};   ///< slow-loris bound
  std::chrono::milliseconds write_timeout{5000};  ///< unresponsive-reader bound
  /// Scoring budget when the client sends no X-Deadline-Ms.
  std::chrono::milliseconds default_deadline{2000};
  /// Hard cap on client-requested deadlines.
  std::chrono::milliseconds max_deadline{30000};
  /// Retry-After value on the 503 sent when the connection queue is full.
  int retry_after_seconds = 1;
};

class HttpServer {
 public:
  /// Binds and starts serving immediately. `registry` may be null (then
  /// /models lists only the serving model); `series` may be null (then
  /// /series answers 404). Both are borrowed and must outlive the server.
  /// The server shares ownership of the service so hot-swapping callers can
  /// drop theirs.
  HttpServer(std::shared_ptr<serve::PredictionService> service,
             serve::ModelRegistry* registry, ServerConfig config = {},
             const stream::SeriesStore* series = nullptr);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Atomically replaces the service behind /score. In-flight requests keep
  /// the snapshot they took; the old service (and the model it pins) is
  /// destroyed when the last of them finishes. Thread-safe.
  void swap_service(std::shared_ptr<serve::PredictionService> next);

  /// The current service snapshot (what a request arriving now would use).
  [[nodiscard]] std::shared_ptr<serve::PredictionService> service() const;

  /// Starts a graceful drain. Async-signal-safe and idempotent — designed
  /// to be called from a SIGTERM/SIGINT handler.
  void request_drain() noexcept;

  /// Blocks until the drain completes (acceptor and workers joined). Returns
  /// immediately if already stopped. Calling wait() without request_drain()
  /// blocks until someone else initiates one.
  void wait();

  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

 private:
  /// Stable obs::registry() handles (see serve::PredictionService::ObsHandles).
  struct ObsHandles {
    obs::Counter* accepted = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* responses_2xx = nullptr;
    obs::Counter* responses_4xx = nullptr;
    obs::Counter* responses_5xx = nullptr;
    obs::Counter* parse_errors = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* io_errors = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* draining = nullptr;
    obs::Histogram* request_us = nullptr;
  };

  void accept_loop();
  void worker_loop();
  void serve_connection(TcpSocket sock);
  [[nodiscard]] HttpResponse route(const HttpRequest& req);
  [[nodiscard]] HttpResponse handle_score(const HttpRequest& req);
  [[nodiscard]] HttpResponse handle_models() const;
  [[nodiscard]] HttpResponse handle_metrics(const HttpRequest& req) const;
  [[nodiscard]] HttpResponse handle_series(const HttpRequest& req) const;
  [[nodiscard]] HttpResponse shed_response() const;

  mutable std::mutex service_mutex_;  ///< guards service_ swap/snapshot only
  std::shared_ptr<serve::PredictionService> service_;
  serve::ModelRegistry* registry_;
  const stream::SeriesStore* series_;
  ServerConfig config_;
  TcpListener listener_;
  ObsHandles obs_;

  std::atomic<bool> draining_{false};

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<TcpSocket> pending_;
  bool accept_done_ = false;  ///< acceptor exited; workers drain then stop

  std::mutex join_mutex_;  ///< serializes wait(); never held with mutex_
  bool joined_ = false;    ///< wait() already reaped the threads

  std::vector<std::thread> workers_;
  std::thread acceptor_;  ///< last member: started after state is ready
};

}  // namespace rainshine::net
