#include "client.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "rainshine/net/loadgen.hpp"

namespace perfbench {

OpenLoopClient::OpenLoopClient(Schedule schedule)
    : schedule_(std::move(schedule)),
      start_(Clock::now()),
      period_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / schedule_.rps))),
      stop_at_(Clock::time_point::max().time_since_epoch().count()),
      exchanges_(schedule_.max_requests) {
  threads_.reserve(schedule_.threads);
  for (std::size_t t = 0; t < schedule_.threads; ++t) {
    threads_.emplace_back([this] { run(); });
  }
}

OpenLoopClient::~OpenLoopClient() {
  stop();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void OpenLoopClient::stop() {
  stop_at_.store(Clock::now().time_since_epoch().count());
}

std::vector<Exchange> OpenLoopClient::join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  std::vector<Exchange> out;
  for (const Exchange& e : exchanges_) {
    if (e.scheduled) out.push_back(e);
  }
  return out;
}

void OpenLoopClient::run() {
  const std::vector<std::string>& bodies = *schedule_.bodies;
  for (;;) {
    const std::size_t k = next_.fetch_add(1);
    if (k >= exchanges_.size()) return;
    const Clock::time_point due = start_ + static_cast<Clock::rep>(k) * period_;
    if (due.time_since_epoch().count() > stop_at_.load()) return;
    std::this_thread::sleep_until(due);
    if (due.time_since_epoch().count() > stop_at_.load()) return;

    Exchange& e = exchanges_[k];
    e.scheduled = true;
    e.due = due;
    e.body = schedule_.order[k % schedule_.order.size()];
    e.sent = Clock::now();
    try {
      const rainshine::net::ResponseOutcome resp = rainshine::net::request_once(
          "127.0.0.1", schedule_.port, "POST", "/score", bodies[e.body]);
      e.done = Clock::now();
      if (resp.ok()) {
        e.status = resp.status;
        e.checked = resp.status == 200 && schedule_.check(e.body, resp.body);
      }
    } catch (const std::exception&) {
      e.done = Clock::now();  // transport failure: status stays 0
    }
  }
}

std::vector<Exchange> run_for(Schedule schedule, double seconds) {
  schedule.max_requests = std::max<std::size_t>(
      1, static_cast<std::size_t>(schedule.rps * seconds));
  OpenLoopClient client(std::move(schedule));
  return client.join();
}

ClientTally tally(const std::vector<Exchange>& exchanges) {
  ClientTally t;
  for (const Exchange& e : exchanges) {
    ++t.sent;
    if (!e.ok()) ++t.failed;
    if (e.status == 503) ++t.shed;
  }
  return t;
}

}  // namespace perfbench
