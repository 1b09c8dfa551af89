#include "rainshine/simdc/tickets.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "rainshine/obs/metrics.hpp"
#include "rainshine/obs/trace.hpp"
#include "rainshine/simdc/fleet_table.hpp"
#include "rainshine/stats/distributions.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"

namespace rainshine::simdc {

TicketLog::TicketLog(std::vector<Ticket> tickets) : tickets_(std::move(tickets)) {
  std::stable_sort(tickets_.begin(), tickets_.end(),
                   [](const Ticket& a, const Ticket& b) {
                     return a.open_hour < b.open_hour;
                   });
}

std::vector<const Ticket*> TicketLog::true_positives() const {
  std::vector<const Ticket*> out;
  out.reserve(tickets_.size());
  for (const Ticket& t : tickets_) {
    if (t.true_positive) out.push_back(&t);
  }
  return out;
}

std::vector<const Ticket*> TicketLog::hardware_true_positives() const {
  std::vector<const Ticket*> out;
  for (const Ticket& t : tickets_) {
    if (t.true_positive && is_hardware(t.fault)) out.push_back(&t);
  }
  return out;
}

std::array<std::size_t, kNumFaultTypes> TicketLog::count_by_fault(
    DataCenterId dc, const Fleet& fleet) const {
  std::array<std::size_t, kNumFaultTypes> counts{};
  for (const Ticket& t : tickets_) {
    if (!t.true_positive) continue;
    if (fleet.rack(t.rack_id).dc != dc) continue;
    ++counts[static_cast<std::size_t>(t.fault)];
  }
  return counts;
}

namespace {

/// Failure onsets skew toward business hours (workload-driven); weights per
/// hour of day, peaking early afternoon.
constexpr std::array<double, 24> kDiurnalWeights = {
    0.5, 0.45, 0.4, 0.4, 0.45, 0.55, 0.7, 0.9, 1.1, 1.3, 1.45, 1.5,
    1.5, 1.5,  1.45, 1.35, 1.25, 1.15, 1.0, 0.9, 0.8, 0.7, 0.6, 0.55};

int sample_hour_of_day(util::Rng& rng) {
  return static_cast<int>(stats::sample_categorical(
      rng, std::span<const double>(kDiurnalWeights)));
}

double repair_sigma(const HazardConfig& cfg, FaultType fault) {
  return is_hardware(fault) ? cfg.hw_repair_sigma : cfg.sw_repair_sigma;
}

double repair_median(const HazardConfig& cfg, FaultType fault) {
  return is_hardware(fault) ? cfg.hw_repair_median_h : cfg.sw_repair_median_h;
}

Ticket make_ticket(util::Rng& rng, const HazardConfig& cfg, const CellGeom& geom,
                   util::DayIndex day, FaultType fault) {
  Ticket t;
  t.rack_id = geom.rack_id;
  t.server_index = static_cast<std::int16_t>(
      rng.below(static_cast<std::uint64_t>(geom.servers)));
  switch (device_kind_of(fault)) {
    case DeviceKind::kDisk:
      t.component_index = static_cast<std::int16_t>(
          rng.below(static_cast<std::uint64_t>(geom.disks_per_server)));
      break;
    case DeviceKind::kDimm:
      t.component_index = static_cast<std::int16_t>(
          rng.below(static_cast<std::uint64_t>(geom.dimms_per_server)));
      break;
    case DeviceKind::kServer:
      t.component_index = -1;
      break;
  }
  t.fault = fault;
  t.true_positive = !rng.bernoulli(cfg.false_positive_rate);
  t.open_hour = util::Calendar::first_hour(day) + sample_hour_of_day(rng);
  const double mu_log = std::log(repair_median(cfg, fault));
  const double hours =
      std::max(0.5, stats::sample_lognormal(rng, mu_log, repair_sigma(cfg, fault)));
  t.close_hour = t.open_hour + static_cast<util::HourIndex>(std::ceil(hours));
  return t;
}

}  // namespace

std::int32_t simulate_cell(const HazardConfig& cfg, const CellGeom& geom,
                           const CellRates& rates, util::Rng& day_rng,
                           util::DayIndex day, std::int32_t first_burst_id,
                           std::vector<Ticket>& out) {
  std::int32_t next_burst_id = first_burst_id;

  // Independent per-fault-type arrivals.
  for (std::size_t i = 0; i < kNumFaultTypes; ++i) {
    const double rate = rates.fault[i];
    if (rate <= 0.0) continue;
    const FaultType fault = kAllFaultTypes[i];
    const std::uint64_t n = stats::sample_poisson(day_rng, rate);
    for (std::uint64_t k = 0; k < n; ++k) {
      out.push_back(make_ticket(day_rng, cfg, geom, day, fault));
    }
  }

  // Correlated bursts: one event downs a contiguous swath of servers.
  const std::uint64_t bursts = stats::sample_poisson(day_rng, rates.burst);
  for (std::uint64_t b = 0; b < bursts; ++b) {
    const double fraction = day_rng.uniform(rates.burst_lo, rates.burst_hi);
    const int affected = std::max(
        1, static_cast<int>(std::lround(fraction * geom.servers)));
    const int first = static_cast<int>(day_rng.below(
        static_cast<std::uint64_t>(geom.servers - affected + 1)));
    const util::HourIndex onset =
        util::Calendar::first_hour(day) + sample_hour_of_day(day_rng);
    const double mu_log = std::log(cfg.burst_repair_median_h);
    const std::int32_t burst_id = next_burst_id++;
    for (int s = 0; s < affected; ++s) {
      Ticket t;
      t.rack_id = geom.rack_id;
      t.server_index = static_cast<std::int16_t>(first + s);
      t.component_index = -1;
      // A cascading power event mostly files power tickets; the odd
      // chassis doesn't survive it.
      t.fault = day_rng.bernoulli(0.85) ? FaultType::kPowerFailure
                                        : FaultType::kServerFailure;
      t.true_positive = true;  // multi-server events are unambiguous
      t.burst_id = burst_id;
      // Onsets cascade across the spread window (see HazardConfig);
      // each server's repair is its own draw.
      const double stagger =
          affected > 1 ? cfg.burst_onset_spread_hours *
                             static_cast<double>(s) /
                             static_cast<double>(affected - 1)
                       : 0.0;
      t.open_hour = onset + static_cast<util::HourIndex>(stagger);
      const double hours = std::max(
          1.0,
          stats::sample_lognormal(day_rng, mu_log, cfg.burst_repair_sigma));
      t.close_hour = t.open_hour + static_cast<util::HourIndex>(std::ceil(hours));
      out.push_back(t);
    }
  }
  // Disk-batch events: one drive dies on a swath of servers (see
  // HazardConfig's bad-vintage commentary).
  const std::uint64_t batches = stats::sample_poisson(day_rng, rates.batch);
  for (std::uint64_t b = 0; b < batches; ++b) {
    const double fraction = day_rng.uniform(rates.batch_lo, rates.batch_hi);
    const int affected = std::max(
        1, static_cast<int>(std::lround(fraction * geom.servers)));
    const int first = static_cast<int>(day_rng.below(
        static_cast<std::uint64_t>(geom.servers - affected + 1)));
    const util::HourIndex onset =
        util::Calendar::first_hour(day) + sample_hour_of_day(day_rng);
    const double mu_log = std::log(cfg.disk_batch_repair_median_h);
    const std::int32_t burst_id = next_burst_id++;
    // The batch occupies the same physical slot across the rack.
    const auto slot = static_cast<std::int16_t>(day_rng.below(
        static_cast<std::uint64_t>(geom.disks_per_server)));
    for (int s = 0; s < affected; ++s) {
      Ticket t;
      t.rack_id = geom.rack_id;
      t.server_index = static_cast<std::int16_t>(first + s);
      t.component_index = slot;
      t.fault = FaultType::kDiskFailure;
      t.true_positive = true;
      t.burst_id = burst_id;
      const double stagger =
          affected > 1 ? cfg.burst_onset_spread_hours *
                             static_cast<double>(s) /
                             static_cast<double>(affected - 1)
                       : 0.0;
      t.open_hour = onset + static_cast<util::HourIndex>(stagger);
      const double hours = std::max(
          1.0, stats::sample_lognormal(day_rng, mu_log,
                                       cfg.disk_batch_repair_sigma));
      t.close_hour =
          t.open_hour + static_cast<util::HourIndex>(std::ceil(hours));
      out.push_back(t);
    }
  }
  return next_burst_id - first_burst_id;
}

util::Rng ticket_stream_root(std::uint64_t seed) noexcept {
  return util::Rng(seed).split("ticket-stream");
}

namespace {

/// Default generation-block width: small enough to load-balance a paper
/// fleet across a few cores, big enough that per-block bookkeeping is noise
/// at a million servers.
constexpr std::size_t kDefaultRacksPerBlock = 64;

/// A generated ticket waiting for its day's watermark, tagged with its
/// position in the log total order.
struct PendingTicket {
  Ticket ticket;
  std::uint32_t rack = 0;  ///< index in fleet rack order
  util::DayIndex day = 0;  ///< generating day
  std::uint32_t seq = 0;   ///< generation order within the (rack, day) cell
};

/// Heap comparator for the log total order: open_hour first, ties broken by
/// generation order (rack, then day, then in-cell sequence) — exactly the
/// tie-break the batch path's stable sort by open_hour induces on its
/// rack-major input.
struct PendingAfter {
  bool operator()(const PendingTicket& a, const PendingTicket& b) const {
    if (a.ticket.open_hour != b.ticket.open_hour) {
      return a.ticket.open_hour > b.ticket.open_hour;
    }
    if (a.rack != b.rack) return a.rack > b.rack;
    if (a.day != b.day) return a.day > b.day;
    return a.seq > b.seq;
  }
};

/// Reused per-block scratch: one ticket buffer per block for the whole run
/// (cleared, not reallocated, each day) and the per-cell offsets the merge
/// needs to renumber bursts and continue sequence counters.
struct BlockBuf {
  std::vector<Ticket> tickets;
  std::vector<std::uint32_t> cell_end;    ///< end offset per cell, in block order
  std::vector<std::int32_t> cell_bursts;  ///< correlated events per cell
};

class CollectSink final : public TicketSink {
 public:
  bool on_day(util::DayIndex /*day*/, std::span<const Ticket> tickets) override {
    all_.insert(all_.end(), tickets.begin(), tickets.end());
    return true;
  }
  std::vector<Ticket> take() { return std::move(all_); }

 private:
  std::vector<Ticket> all_;
};

}  // namespace

StreamStats simulate_streamed(const Fleet& fleet, const HazardModel& hazard,
                              TicketSink& sink, SimulationOptions options) {
  const obs::ScopedSpan span("simdc.simulate");
  const obs::ScopedTimer sim_timer(
      obs::registry().histogram("simdc.simulate_us"));
  const HazardConfig& cfg = hazard.config();
  const FleetTable table(hazard);
  const util::Rng root = ticket_stream_root(options.seed);
  const std::size_t num_racks = table.num_racks();
  const util::DayIndex num_days = fleet.spec().num_days;

  const std::size_t block = options.racks_per_block > 0
                                ? options.racks_per_block
                                : kDefaultRacksPerBlock;
  const std::size_t num_blocks = (num_racks + block - 1) / block;

  std::vector<BlockBuf> bufs(num_blocks);
  std::priority_queue<PendingTicket, std::vector<PendingTicket>, PendingAfter>
      pending;
  std::vector<Ticket> chunk;
  StreamStats st;
  std::int32_t next_burst_id = 0;

  for (util::DayIndex day = 0; day < num_days; ++day) {
    const DayTerms terms = table.day_terms(day);

    // Generate every cell of the day on the pool. Block boundaries depend
    // only on (fleet, options) — never the thread count — and each cell
    // draws solely from its own (root, rack, day) split, so scheduling is
    // invisible in the output.
    util::parallel_for(num_blocks, 1, [&](std::size_t lo, std::size_t hi) {
      CellRates rates;
      for (std::size_t b = lo; b < hi; ++b) {
        BlockBuf& buf = bufs[b];
        buf.tickets.clear();
        buf.cell_end.clear();
        buf.cell_bursts.clear();
        const std::size_t r_end = std::min(num_racks, (b + 1) * block);
        for (std::size_t r = b * block; r < r_end; ++r) {
          table.cell_rates(r, day, terms, rates);
          util::Rng day_rng =
              root.split(static_cast<std::uint64_t>(table.rack_id(r)))
                  .split(static_cast<std::uint64_t>(day));
          buf.cell_bursts.push_back(simulate_cell(
              cfg, table.geom(r), rates, day_rng, day, 0, buf.tickets));
          buf.cell_end.push_back(static_cast<std::uint32_t>(buf.tickets.size()));
        }
      }
    });

    // Merge in rack order (serial): hand out chronological burst ids —
    // (day, rack, discovery) order from the running counter — and push into
    // the watermark heap.
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const BlockBuf& buf = bufs[b];
      std::uint32_t begin = 0;
      for (std::size_t cell = 0; cell < buf.cell_end.size(); ++cell) {
        const std::uint32_t end = buf.cell_end[cell];
        const auto rack = static_cast<std::uint32_t>(b * block + cell);
        for (std::uint32_t i = begin; i < end; ++i) {
          PendingTicket p{buf.tickets[i], rack, day, i - begin};
          if (p.ticket.burst_id >= 0) p.ticket.burst_id += next_burst_id;
          pending.push(p);
        }
        next_burst_id += buf.cell_bursts[cell];
        begin = end;
      }
    }

    // Injected scenario events, numbered after the day's organic bursts.
    for (std::size_t oi = 0; oi < options.outages.size(); ++oi) {
      const InjectedOutage& o = options.outages[oi];
      if (o.day != day) continue;
      util::require(o.fraction > 0.0 && o.fraction <= 1.0,
                    "InjectedOutage fraction outside (0, 1]");
      const std::int32_t burst_id = next_burst_id++;
      const util::HourIndex onset =
          util::Calendar::first_hour(day) +
          std::clamp(o.onset_hour_of_day, 0, util::kHoursPerDay - 1);
      const double mu_log = std::log(o.repair_median_h);
      const auto& racks = fleet.racks();
      for (std::size_t r = 0; r < racks.size(); ++r) {
        const Rack& rack = racks[r];
        if (rack.dc != o.dc || rack.row != o.row) continue;
        if (day < rack.commission_day) continue;
        // Independent of the organic streams: its own (outage, rack) split.
        util::Rng rng = root.split("outage")
                            .split(static_cast<std::uint64_t>(oi))
                            .split(static_cast<std::uint64_t>(rack.id));
        const int affected = std::max(
            1, std::min(rack.servers(), static_cast<int>(std::lround(
                                            o.fraction * rack.servers()))));
        // Sequence numbers continue after the rack's organic tickets so the
        // heap's tie-break stays total.
        const BlockBuf& buf = bufs[r / block];
        const std::size_t cell = r % block;
        const std::uint32_t cell_begin =
            cell == 0 ? 0 : buf.cell_end[cell - 1];
        std::uint32_t seq = buf.cell_end[cell] - cell_begin;
        for (int s = 0; s < affected; ++s) {
          Ticket t;
          t.rack_id = rack.id;
          t.server_index = static_cast<std::int16_t>(s);
          t.component_index = -1;
          t.fault = o.fault;
          t.true_positive = true;
          t.burst_id = burst_id;
          // A row-level cooling/power event trips breakers together: the
          // whole row goes dark at the onset hour (no per-server cascade).
          t.open_hour = onset;
          const double hours = std::max(
              1.0,
              stats::sample_lognormal(rng, mu_log, cfg.burst_repair_sigma));
          t.close_hour =
              t.open_hour + static_cast<util::HourIndex>(std::ceil(hours));
          pending.push(PendingTicket{t, static_cast<std::uint32_t>(r), day,
                                     seq++});
        }
      }
    }

    // Watermark: tickets generated on later days open at/after those days'
    // first hours, so everything in the heap before tomorrow's first hour
    // is final. The last day flushes the whole overhang.
    const bool last = day + 1 >= num_days;
    const util::HourIndex watermark =
        last ? std::numeric_limits<util::HourIndex>::max()
             : util::Calendar::first_hour(day + 1);
    chunk.clear();
    while (!pending.empty() &&
           (last || pending.top().ticket.open_hour < watermark)) {
      chunk.push_back(pending.top().ticket);
      pending.pop();
    }

    // Residency peak: the generation buffers, heap, and outgoing chunk all
    // coexist at this point — this is the number the soak tests bound.
    std::size_t resident = pending.size() + chunk.size();
    for (const BlockBuf& buf : bufs) resident += buf.tickets.size();
    st.peak_resident_tickets = std::max(st.peak_resident_tickets, resident);
    st.peak_chunk_tickets = std::max(st.peak_chunk_tickets, chunk.size());
    st.total_tickets += chunk.size();
    ++st.days_emitted;
    if (!sink.on_day(day, std::span<const Ticket>(chunk))) break;
  }

  st.bursts = next_burst_id;
  obs::registry().counter("simdc.tickets_generated").add(st.total_tickets);
  obs::registry().counter("simdc.bursts").add(
      static_cast<std::uint64_t>(next_burst_id));
  return st;
}

TicketLog simulate(const Fleet& fleet, const EnvironmentModel& env,
                   const HazardModel& hazard, SimulationOptions options) {
  (void)env;  // conditions are consulted through the hazard model
  CollectSink sink;
  simulate_streamed(fleet, hazard, sink, std::move(options));
  // Chunks arrive already in log order; the constructor's stable sort is a
  // no-op pass that keeps the invariant local to TicketLog.
  return TicketLog(sink.take());
}

}  // namespace rainshine::simdc
