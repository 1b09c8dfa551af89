// The three stages every workload runs: the analyst's study, the scoring
// server under an open-loop client, and the live stream with retrains and
// model swaps under traffic. A workload sets each stage's size. The stages
// are set up first, then advanced one unit of work at a time in turn, so
// each stage's samples spread over the whole run: the host's speed drifts
// by up to a fifth over tens of seconds, and a stage measured in one block
// would read whatever phase that block fell in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.hpp"
#include "common.hpp"

namespace perfbench {

/// Latency limit of the serve ladder's p99: headroom above the worst p99
/// measured at 500 rps (29 ms), well below the overload regime (0.1-1 s).
inline constexpr double kLadderP99LimitMs = 50.0;
/// Latency limit of score_within_slo: between live's unstalled requests
/// (under 10 ms) and those queued behind a forest fit (55-65 ms).
inline constexpr double kSloLimitMs = 20.0;
/// Set-up is repeated this many times per stage; the median is reported.
inline constexpr int kSetupRepeats = 15;

// Fleet layouts are the specs' own (the paper fleet's 612 racks and 20,844
// servers, the test fleet's 948 servers); the run's seed drives the
// environment, the ticket process, the streams and the request bodies and
// order, so every seed does the same amount of work.
struct Context {
  std::uint64_t seed = 1;
  std::size_t client_threads = 1;
  bool corrupt_response = false;  ///< self-test: damage one serve response
  Ledger ledger;
  MetricSet e2e;     ///< end-to-end metrics
  MetricSet layers;  ///< per-layer metrics (meaningful when traced)
  ClientTally net;   ///< every client phase of the run
  double setup_s = 0.0;

  /// Counts a client phase's requests as operations and its failures.
  void count(const std::vector<Exchange>& exchanges);
};

struct StudyPlan {
  bool paper_fleet = true;  ///< MF study on the paper fleet, else the test fleet
  int mf_days = 0;          ///< 0 = the fleet spec's own window
  int mf_reps = 2;          ///< timed, after one untimed
  int warn_days = 360;      ///< early warning on the test fleet
  std::size_t warn_trees = 48;
  int warn_reps = 2;        ///< timed, after one untimed
};

struct ServePlan {
  int fleet_days = 360;         ///< test-fleet window the served forest fits
  double warmup_seconds = 0.5;  ///< untimed
  int base_slices = 2;          ///< base phase at 400 rps, in slices of...
  double slice_seconds = 1.0;   ///< ...this length, one per unit
  double step_seconds = 1.0;    ///< each ladder step, one per unit
  int bisections = 4;           ///< refinements after the first missed rate
  std::size_t replay_requests = 400;  ///< traced in-process replay
};

struct LivePlan {
  bool paper_fleet = true;
  int days = 360;
  int segment_days = 30;             ///< days streamed per unit
  std::size_t replay_requests = 40;  ///< traced in-process replay
};

/// One stage of a run. The constructor prepares its inputs (untimed) and
/// sets it up (timed into Context::setup_s).
class Stage {
 public:
  virtual ~Stage() = default;
  /// Runs the next unit of work; false once none is left.
  virtual bool step() = 0;
  /// Records the stage's metrics and gates, and stops what it started.
  virtual void finish() = 0;
};

[[nodiscard]] std::unique_ptr<Stage> make_study(const StudyPlan& plan, Context& ctx);
[[nodiscard]] std::unique_ptr<Stage> make_serve(const ServePlan& plan, Context& ctx);
[[nodiscard]] std::unique_ptr<Stage> make_live(const LivePlan& plan, Context& ctx);

/// `n` indices in an order shuffled by `seed`.
[[nodiscard]] std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
