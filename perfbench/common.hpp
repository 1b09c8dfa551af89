// Shared pieces of the end-to-end benchmark: clocks and quantiles, the
// steal-aware timer, the metric set a run prints, the ledger of operations
// attempted, failed and checked, and the span recorder of a traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
[[nodiscard]] inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Same length and the same bits in every element.
[[nodiscard]] bool bit_identical(const std::vector<double>& a,
                                 const std::vector<double>& b);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Non-idle and stolen CPU time of the whole guest, in clock ticks, from
/// the aggregate "cpu" line of /proc/stat; zeros where it cannot be read.
struct CpuTicks {
  std::uint64_t busy = 0;   ///< user + nice + system + irq + softirq
  std::uint64_t steal = 0;  ///< time the hypervisor ran other guests instead
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Wall time summed over a set of intervals, and the hypervisor steal over
/// them. On a shared virtual host another guest's busy spell stops this
/// guest's vCPUs outright for a share of the time, and every timing of a run
/// that falls in such a spell reads up to a fifth longer. The net time takes
/// that share out: wall × (1 − steal / (busy + steal)). Where nothing is
/// stolen (bare metal, or a quiet host) it is the wall time.
class NetTimer {
 public:
  void start();
  /// Ends the interval begun by start(); returns its wall seconds.
  double stop();
  [[nodiscard]] double wall_s() const { return wall_s_; }
  [[nodiscard]] double steal_share() const;
  [[nodiscard]] double net_s() const { return wall_s_ * (1.0 - steal_share()); }
  [[nodiscard]] std::size_t intervals() const { return intervals_; }
  /// Net seconds per interval; 0 before the first.
  [[nodiscard]] double net_mean_s() const {
    return intervals_ == 0 ? 0.0 : net_s() / static_cast<double>(intervals_);
  }

 private:
  Clock::time_point t0_;
  CpuTicks c0_;
  double wall_s_ = 0.0;
  std::uint64_t busy_ = 0;
  std::uint64_t steal_ = 0;
  std::size_t intervals_ = 0;
};

/// Named values with units, printed as the "metrics" object of a run.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Operations attempted and failed (requests, publishes, checks), and the
/// correctness gates of the run. Thread-safe.
class Ledger {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  /// Records one correctness check: an attempted operation, and a failed
  /// one that marks the run incorrect when `ok` is false.
  void check(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const;
  [[nodiscard]] std::vector<std::string> broken() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> broken_;  ///< guarded by mutex_
};

/// One completed span. `parent` is the id of the span open on the same
/// thread when this one began (0 at the top); `request` ties the spans of
/// one request together (0 when the span serves no request).
struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder for the traced run. Off by default; a Span then
/// costs one relaxed load. Spans are kept until the run ends.
class Trace {
 public:
  static void enable() { on_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] static bool on() { return on_.load(std::memory_order_relaxed); }
  static void record(const SpanRecord& span);
  [[nodiscard]] static std::vector<SpanRecord> spans();
  [[nodiscard]] static std::uint64_t next_id() { return ++last_id_; }

 private:
  static inline std::atomic<bool> on_{false};
  static inline std::atomic<std::uint64_t> last_id_{0};
  static inline std::mutex mutex_;
  static inline std::vector<SpanRecord> spans_;  ///< guarded by mutex_
};

/// RAII span around one call into a layer. `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  bool live_ = false;
};

/// Reductions over recorded spans.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<SpanRecord> spans);
  /// Seconds of every span named `name`, in recording order; with `root`,
  /// only those called (at any depth) from a span named `root`.
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              const std::string& root = "") const;
  /// Sum of durations minus the part their child spans cover, in seconds;
  /// `root` filters as in durations().
  [[nodiscard]] double self_seconds(const std::string& name,
                                    const std::string& root = "") const;
  /// Share of the `root` spans' time covered by the self time of their
  /// descendants (1 = every moment of the root is inside some layer call).
  [[nodiscard]] double cover(const std::string& root) const;

 private:
  [[nodiscard]] double self_of(const SpanRecord& span) const;
  [[nodiscard]] bool under(const SpanRecord& span, const std::string& root) const;
  [[nodiscard]] double descendant_self(std::uint64_t id) const;
  std::vector<SpanRecord> spans_;
  std::map<std::uint64_t, std::vector<std::size_t>> children_;
  std::map<std::uint64_t, std::size_t> by_id_;
};

}  // namespace perfbench
