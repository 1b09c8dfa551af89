// RMA ticket stream: the simulator's observable output and the analyses'
// sole failure-data input (mirroring §IV "Failure Tickets").
//
// A ticket records what the paper's RMA system records: which device failed
// (rack / server slot / component slot), the fault description (Table II
// taxonomy), when it opened, when the repair resolved it, whether the
// investigating engineer confirmed a real fault (true positive), and —
// purely for ground-truth bookkeeping, never consumed by the analyses — the
// burst event it belonged to, if any.
//
// Two ways to run the generative model over a study window:
//
//   * simulate()          — materializes the whole window as a TicketLog.
//     O(total tickets) memory; right for the paper-scale fleet and for the
//     analyses that want random access.
//   * simulate_streamed() — pushes finalized tickets through a TicketSink in
//     log order, one simulated day at a time, holding only O(one day) of
//     tickets resident. This is the engine (simulate() is a collect-into-log
//     wrapper over it), and the only path that scales to million-server
//     fleets. It runs on the columnar FleetTable hot path (fleet_table.hpp)
//     instead of per-rack pointer chasing, and the two are pinned
//     byte-identical by tests/simdc/test_simulate_sink.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rainshine/simdc/hazard.hpp"

namespace rainshine::simdc {

/// Field order packs the record tightly: the two 8-byte hours lead, then the
/// 4-byte ids, then the 2-byte slots, then the byte-wide tag fields — widest
/// first, so no interior padding (only 2 tail bytes from the 8-byte
/// alignment). The size is load-bearing for fleet-scale runs: a streamed
/// chunk of N tickets costs exactly 32 N bytes, so a million-server day
/// (~10 k tickets) stays around a third of a megabyte resident.
struct Ticket {
  util::HourIndex open_hour = 0;
  util::HourIndex close_hour = 0;  ///< exclusive; device unavailable in [open, close)
  std::int32_t rack_id = 0;
  std::int32_t burst_id = -1;  ///< ground-truth correlated-event id; -1 = independent
  std::int16_t server_index = 0;     ///< slot within the rack
  std::int16_t component_index = -1; ///< disk/DIMM slot within the server; -1 for server-level faults
  FaultType fault = FaultType::kOther;
  bool true_positive = true;   ///< engineer confirmed a real fault

  [[nodiscard]] util::DayIndex open_day() const noexcept {
    return util::Calendar::day_of(open_hour);
  }
  [[nodiscard]] double repair_hours() const noexcept {
    return static_cast<double>(close_hour - open_hour);
  }
};

static_assert(sizeof(Ticket) == 32 && alignof(Ticket) == 8,
              "Ticket is the unit of streamed chunk memory; growing it "
              "changes every fleet-scale memory ceiling, so do it knowingly");

/// The full stream for one simulated study window, sorted by open_hour.
class TicketLog {
 public:
  TicketLog() = default;
  explicit TicketLog(std::vector<Ticket> tickets);

  [[nodiscard]] std::span<const Ticket> tickets() const noexcept { return tickets_; }
  [[nodiscard]] std::size_t size() const noexcept { return tickets_.size(); }

  /// True-positive tickets only — what every analysis starts from (§IV).
  [[nodiscard]] std::vector<const Ticket*> true_positives() const;
  /// True-positive HARDWARE tickets — the decision studies' working set.
  [[nodiscard]] std::vector<const Ticket*> hardware_true_positives() const;

  /// Ticket count per fault type over true positives (Table II numerator).
  [[nodiscard]] std::array<std::size_t, kNumFaultTypes> count_by_fault(
      DataCenterId dc, const Fleet& fleet) const;

 private:
  std::vector<Ticket> tickets_;
};

/// A correlated scenario event injected on top of the organic generative
/// model: on `day`, a cooling/power event strikes every rack of one rack-row
/// and downs `fraction` of each rack's servers. This is the scenario class
/// the paper's 600-rack fleet could not express meaningfully — a rack-row is
/// a handful of racks there, but a fleet-scale row outage downs thousands of
/// servers at once. Injected tickets carry burst ids from the same
/// chronological counter as organic correlated events; an empty outage list
/// leaves the output byte-identical to the organic model.
struct InjectedOutage {
  DataCenterId dc = DataCenterId::kDC1;
  std::int32_t row = 0;
  util::DayIndex day = 0;
  double fraction = 1.0;  ///< of each affected rack's servers (clamped to (0,1])
  int onset_hour_of_day = 12;
  double repair_median_h = 8.0;  ///< lognormal, with burst_repair_sigma spread
  FaultType fault = FaultType::kPowerFailure;
};

/// Options for the discrete-event sweep.
struct SimulationOptions {
  std::uint64_t seed = 1;  ///< ticket-stream seed (independent of fleet seed)
  /// Racks per generation block dispatched to the thread pool by the
  /// streaming engine. Block boundaries depend only on the fleet (never on
  /// thread count), and output is byte-identical for ANY value; this only
  /// tunes scheduling granularity. 0 picks the default.
  std::size_t racks_per_block = 0;
  /// Scenario events layered on the organic model (see InjectedOutage).
  std::vector<InjectedOutage> outages;
};

/// Consumes the streamed sweep's output chunk by chunk. Chunks arrive in
/// log order (the TicketLog total order: open_hour, then generation order),
/// exactly one call per simulated day — possibly with an empty span.
/// Concatenating every span reproduces simulate()'s TicketLog byte for
/// byte. The spans point into engine-owned buffers that are reused after
/// the call returns: copy what you keep.
class TicketSink {
 public:
  virtual ~TicketSink() = default;
  /// `day` is the simulated day whose completion finalized `tickets`.
  /// Return false to stop the sweep early (remaining days are skipped).
  virtual bool on_day(util::DayIndex day, std::span<const Ticket> tickets) = 0;
};

/// What the streaming engine did; the memory columns are how the soak tests
/// pin the O(one day) residency claim without resorting to RSS heuristics.
struct StreamStats {
  std::size_t total_tickets = 0;   ///< tickets pushed through the sink
  std::int32_t bursts = 0;         ///< correlated events, injected included
  util::DayIndex days_emitted = 0; ///< sink calls made (== window unless stopped)
  /// Peak tickets simultaneously resident inside the engine (generation
  /// buffers + watermark heap + chunk under emission) over the whole run.
  std::size_t peak_resident_tickets = 0;
  /// Largest single chunk handed to the sink.
  std::size_t peak_chunk_tickets = 0;
};

/// Root generator of the ticket process for `seed` — the parent every
/// (rack, day) cell's stream is split from. Exposed so tests can derive
/// exactly the draws the sweep makes.
[[nodiscard]] util::Rng ticket_stream_root(std::uint64_t seed) noexcept;

/// The per-cell slice of the fleet the ticket generator needs: what
/// make_ticket and the correlated-event loops address, assembled from
/// FleetTable columns.
struct CellGeom {
  std::int32_t rack_id = 0;
  int servers = 0;
  int disks_per_server = 0;
  int dimms_per_server = 0;
};

/// The per-(rack, day) hazard evaluations the ticket generator consumes.
/// Computing these — not drawing from them — is the hot path's cost, which
/// is why FleetTable precomputes every static factor.
struct CellRates {
  std::array<double, kNumFaultTypes> fault{};  ///< Poisson intensity per type
  double burst = 0.0;      ///< expected correlated burst events
  double burst_lo = 0.0;   ///< burst severity fraction range
  double burst_hi = 0.0;
  double batch = 0.0;      ///< expected disk-batch events
  double batch_lo = 0.0;   ///< batch severity fraction range
  double batch_hi = 0.0;
};

/// Simulates one (rack, day) cell given its rates: the single generation
/// code path of the columnar engine, public so tests can feed it rates
/// evaluated through HazardModel instead and compare the two. Appends
/// tickets to `out` in generation order; correlated events are tagged
/// `first_burst_id`, `first_burst_id + 1`, ... in discovery order and the
/// count of events opened is returned.
std::int32_t simulate_cell(const HazardConfig& cfg, const CellGeom& geom,
                           const CellRates& rates, util::Rng& day_rng,
                           util::DayIndex day, std::int32_t first_burst_id,
                           std::vector<Ticket>& out);

/// Runs the generative model over the whole window, pushing each simulated
/// day's finalized tickets through `sink` in log order (see TicketSink).
/// Memory stays O(one day of tickets) regardless of fleet size or window
/// length — this is the path that sweeps million-server fleets.
///
/// Engine shape: days advance serially; within a day, racks are partitioned
/// into fixed blocks generated concurrently on the shared pool into reused
/// per-block buffers (each (rack, day) cell draws from its own
/// (seed, rack_id, day)-derived stream, so the schedule cannot perturb the
/// draws). Completed cells merge in rack order into a watermark min-heap
/// keyed by the log total order (open_hour, rack, day, seq); everything
/// opening before the next day's first hour is final and drains to the
/// sink. Burst ids are handed out chronologically in (day, rack, discovery)
/// order from a running counter. Deterministic and byte-identical to
/// simulate() at any thread count.
StreamStats simulate_streamed(const Fleet& fleet, const HazardModel& hazard,
                              TicketSink& sink, SimulationOptions options = {});

/// Runs the generative model over the whole window and materializes the
/// TicketLog: a collect-into-log wrapper over simulate_streamed (same
/// engine, same output, O(total tickets) memory). Deterministic for fixed
/// (fleet, environment, hazard, options) at any thread count. `env` is
/// consulted through the hazard model (which carries its environment);
/// the parameter is kept for call-site symmetry.
[[nodiscard]] TicketLog simulate(const Fleet& fleet, const EnvironmentModel& env,
                                 const HazardModel& hazard,
                                 SimulationOptions options = {});

}  // namespace rainshine::simdc
