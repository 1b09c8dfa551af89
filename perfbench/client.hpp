// Open-loop HTTP client owned by the benchmark, built on net::request_once.
//
// Request k is due at start + k / rps whatever happened to request k-1, so
// a server stall shows up as latency on every request due during it. Each
// of at most nproc threads takes the next due request, sleeps until its due
// time, sends it on a fresh connection and waits for the reply: the client
// never holds more connections than threads. Latency is timed from the due
// time; how late each request was sent is kept beside it, which tells a
// step lost to the client from one lost to the server.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One scheduled request and what became of it.
struct Exchange {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  std::size_t body = 0;  ///< index into the schedule's bodies
  int status = 0;        ///< HTTP status; 0 when the transport failed
  bool scheduled = false;
  bool checked = false;  ///< 200 and the response passed the check

  [[nodiscard]] bool ok() const { return status == 200 && checked; }
  [[nodiscard]] double latency_us() const { return micros(done - due); }
  [[nodiscard]] double round_trip_us() const { return micros(done - sent); }
  [[nodiscard]] double late_us() const { return micros(sent - due); }
};

struct Schedule {
  std::uint16_t port = 0;
  const std::vector<std::string>* bodies = nullptr;
  std::vector<std::size_t> order;  ///< body of request k is order[k % size]
  double rps = 1.0;
  std::size_t max_requests = 0;
  std::size_t threads = 1;
  /// Judges a 200 response to body `body`; false counts as a failure.
  std::function<bool(std::size_t body, const std::string& response)> check;
};

class OpenLoopClient {
 public:
  /// Starts sending at once.
  explicit OpenLoopClient(Schedule schedule);
  /// Stops scheduling and joins every thread.
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// No request due after this moment is sent.
  void stop();
  /// Waits for every request sent to finish; returns the scheduled ones.
  [[nodiscard]] std::vector<Exchange> join();

 private:
  void run();

  Schedule schedule_;
  Clock::time_point start_;
  Clock::duration period_;
  std::atomic<std::size_t> next_{0};
  std::atomic<Clock::rep> stop_at_;
  std::vector<Exchange> exchanges_;  ///< slot k written only by its taker
  std::vector<std::thread> threads_;
};

/// Runs `schedule` to completion: rps * seconds requests.
[[nodiscard]] std::vector<Exchange> run_for(Schedule schedule, double seconds);

/// Requests sent (scheduled), failed, and 503s among them.
struct ClientTally {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
};
[[nodiscard]] ClientTally tally(const std::vector<Exchange>& exchanges);

}  // namespace perfbench
