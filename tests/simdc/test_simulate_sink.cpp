// Byte-identity and residency contract of the streaming engine
// (simdc::simulate_streamed):
//
//   * concatenating the per-day sink chunks reproduces simulate()'s
//     TicketLog field for field — and both match an AoS reference log
//     rebuilt here from simulate_rack_day (rates through HazardModel, no
//     FleetTable) the way the batch path originally worked (rack-major
//     generation, chronological burst renumber, stable sort by open_hour);
//   * the output is identical at any thread count (the determinism claim
//     the split-RNG cell scheme makes);
//   * chunks respect the day watermark, the sweep honors early stop, an
//     empty outage list changes nothing, and an injected row outage adds
//     exactly one burst covering the row;
//   * memory residency stays O(one day), pinned via StreamStats rather
//     than RSS heuristics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "rainshine/simdc/tickets.hpp"
#include "rainshine/util/parallel.hpp"

namespace rainshine::simdc {
namespace {

void expect_ticket_eq(const Ticket& a, const Ticket& b, std::size_t i) {
  EXPECT_EQ(a.open_hour, b.open_hour) << "ticket " << i;
  EXPECT_EQ(a.close_hour, b.close_hour) << "ticket " << i;
  EXPECT_EQ(a.rack_id, b.rack_id) << "ticket " << i;
  EXPECT_EQ(a.burst_id, b.burst_id) << "ticket " << i;
  EXPECT_EQ(a.server_index, b.server_index) << "ticket " << i;
  EXPECT_EQ(a.component_index, b.component_index) << "ticket " << i;
  EXPECT_EQ(a.fault, b.fault) << "ticket " << i;
  EXPECT_EQ(a.true_positive, b.true_positive) << "ticket " << i;
}

void expect_logs_eq(std::span<const Ticket> a, std::span<const Ticket> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_ticket_eq(a[i], b[i], i);
}

/// Collects every chunk, remembering per-day boundaries for the watermark
/// checks. `stop_after` > 0 makes on_day return false on that call.
struct ChunkSink final : TicketSink {
  std::vector<Ticket> all;
  std::vector<std::pair<util::DayIndex, std::size_t>> day_sizes;
  int stop_after = 0;

  bool on_day(util::DayIndex day, std::span<const Ticket> tickets) override {
    all.insert(all.end(), tickets.begin(), tickets.end());
    day_sizes.emplace_back(day, tickets.size());
    return stop_after == 0 ||
           static_cast<int>(day_sizes.size()) < stop_after;
  }
};

/// One (rack, day) cell through the AoS reference path: every rate is
/// evaluated through HazardModel per call, then simulate_cell draws from the
/// cell's own (root, rack.id, day) split — splitting never advances the
/// parent, so ANY iteration order over cells reproduces identical tickets.
std::int32_t simulate_rack_day(const HazardModel& hazard, const util::Rng& root,
                               const Rack& rack, util::DayIndex day,
                               std::int32_t first_burst_id,
                               std::vector<Ticket>& out) {
  const SkuSpec& sku = sku_spec(rack.sku);
  const CellGeom geom{rack.id, rack.servers(), sku.disks_per_server,
                      sku.dimms_per_server};
  CellRates rates;
  for (std::size_t i = 0; i < kNumFaultTypes; ++i) {
    rates.fault[i] = hazard.rack_day_rate(rack, day, kAllFaultTypes[i]);
  }
  rates.burst = hazard.burst_rate(rack, day);
  std::tie(rates.burst_lo, rates.burst_hi) = hazard.burst_fraction_range(rack);
  rates.batch = hazard.disk_batch_rate(rack, day);
  std::tie(rates.batch_lo, rates.batch_hi) =
      hazard.disk_batch_fraction_range(rack);
  util::Rng day_rng = root.split(static_cast<std::uint64_t>(rack.id))
                          .split(static_cast<std::uint64_t>(day));
  return simulate_cell(hazard.config(), geom, rates, day_rng, day,
                       first_burst_id, out);
}

/// The original batch algorithm, reconstructed from public pieces: generate
/// rack-major through simulate_rack_day above, renumber bursts
/// chronologically in (day, rack) order, and let TicketLog's stable sort by
/// open_hour impose the total order. The engine must match this
/// independently-computed log exactly.
TicketLog reference_log(const Fleet& fleet, const HazardModel& hazard,
                        std::uint64_t seed) {
  const util::Rng root = ticket_stream_root(seed);
  const util::DayIndex num_days = fleet.spec().num_days;
  struct RackStream {
    std::vector<Ticket> tickets;
    std::vector<std::int32_t> bursts_per_day;
  };
  std::vector<RackStream> streams(fleet.num_racks());
  for (std::size_t r = 0; r < fleet.num_racks(); ++r) {
    std::int32_t local = 0;
    for (util::DayIndex day = 0; day < num_days; ++day) {
      const std::int32_t n = simulate_rack_day(
          hazard, root, fleet.racks()[r], day, local, streams[r].tickets);
      streams[r].bursts_per_day.push_back(n);
      local += n;
    }
  }
  // Each rack's local burst ids are sequential in day order, so appending
  // global ids in (day, rack) order builds the local -> chronological remap.
  std::vector<std::vector<std::int32_t>> remap(streams.size());
  std::int32_t next_global = 0;
  for (util::DayIndex day = 0; day < num_days; ++day) {
    for (std::size_t r = 0; r < streams.size(); ++r) {
      for (std::int32_t k = 0;
           k < streams[r].bursts_per_day[static_cast<std::size_t>(day)]; ++k) {
        remap[r].push_back(next_global++);
      }
    }
  }
  std::vector<Ticket> tickets;
  for (std::size_t r = 0; r < streams.size(); ++r) {
    for (Ticket t : streams[r].tickets) {
      if (t.burst_id >= 0) {
        t.burst_id = remap[r][static_cast<std::size_t>(t.burst_id)];
      }
      tickets.push_back(t);
    }
  }
  return TicketLog(std::move(tickets));
}

class SimulateSinkTest : public ::testing::Test {
 protected:
  SimulateSinkTest()
      : fleet_(FleetSpec::test_default()),
        env_(fleet_, fleet_.spec().seed),
        hazard_(fleet_, env_) {}
  ~SimulateSinkTest() override { util::clear_thread_override(); }

  Fleet fleet_;
  EnvironmentModel env_;
  HazardModel hazard_;
};

TEST_F(SimulateSinkTest, ChunksConcatenateToTheReferenceLog) {
  const TicketLog want = reference_log(fleet_, hazard_, 99);
  ASSERT_GT(want.size(), 0U);

  ChunkSink sink;
  const StreamStats st = simulate_streamed(fleet_, hazard_, sink, {.seed = 99});
  expect_logs_eq(sink.all, want.tickets());
  EXPECT_EQ(st.total_tickets, want.size());
  EXPECT_EQ(st.days_emitted, fleet_.spec().num_days);

  const TicketLog collected = simulate(fleet_, env_, hazard_, {.seed = 99});
  expect_logs_eq(collected.tickets(), want.tickets());
}

TEST_F(SimulateSinkTest, ByteIdenticalAtAnyThreadCount) {
  const TicketLog want = reference_log(fleet_, hazard_, 42);
  for (const std::size_t threads : {0UL, 1UL, 4UL}) {
    util::set_num_threads(threads);
    ChunkSink sink;
    simulate_streamed(fleet_, hazard_, sink, {.seed = 42});
    expect_logs_eq(sink.all, want.tickets());
  }
}

TEST_F(SimulateSinkTest, BlockSizeIsInvisibleInTheOutput) {
  const TicketLog want = reference_log(fleet_, hazard_, 7);
  for (const std::size_t racks_per_block : {1UL, 5UL, 1024UL}) {
    ChunkSink sink;
    SimulationOptions opts;
    opts.seed = 7;
    opts.racks_per_block = racks_per_block;
    simulate_streamed(fleet_, hazard_, sink, std::move(opts));
    expect_logs_eq(sink.all, want.tickets());
  }
}

TEST(SimulateSinkPaperTest, PaperFleetShortWindowByteIdentical) {
  FleetSpec spec = FleetSpec::paper_default();
  spec.num_days = 16;  // enough days for bursts + cross-day stagger spill
  const Fleet fleet(spec);
  const EnvironmentModel env(fleet, spec.seed);
  const HazardModel hazard(fleet, env);

  const TicketLog want = reference_log(fleet, hazard, spec.seed);
  ASSERT_GT(want.size(), 0U);
  for (const std::size_t threads : {0UL, 1UL, 4UL}) {
    util::set_num_threads(threads);
    ChunkSink sink;
    simulate_streamed(fleet, hazard, sink, {.seed = spec.seed});
    expect_logs_eq(sink.all, want.tickets());
  }
  util::clear_thread_override();
}

TEST_F(SimulateSinkTest, ChunksRespectTheDayWatermark) {
  ChunkSink sink;
  simulate_streamed(fleet_, hazard_, sink, {.seed = 99});

  // One call per day, in day order.
  ASSERT_EQ(sink.day_sizes.size(),
            static_cast<std::size_t>(fleet_.spec().num_days));
  for (std::size_t i = 0; i < sink.day_sizes.size(); ++i) {
    EXPECT_EQ(sink.day_sizes[i].first, static_cast<util::DayIndex>(i));
  }

  // Every non-final chunk is bounded by the next day's first hour, and the
  // concatenation is sorted by open_hour (the log total order's first key).
  std::size_t offset = 0;
  for (const auto& [day, size] : sink.day_sizes) {
    if (day + 1 < fleet_.spec().num_days) {
      const util::HourIndex watermark = util::Calendar::first_hour(day + 1);
      for (std::size_t i = offset; i < offset + size; ++i) {
        EXPECT_LT(sink.all[i].open_hour, watermark) << "day " << day;
      }
    }
    offset += size;
  }
  EXPECT_TRUE(std::is_sorted(
      sink.all.begin(), sink.all.end(),
      [](const Ticket& a, const Ticket& b) { return a.open_hour < b.open_hour; }));
}

TEST_F(SimulateSinkTest, SinkReturningFalseStopsTheSweep) {
  ChunkSink sink;
  sink.stop_after = 5;
  const StreamStats st = simulate_streamed(fleet_, hazard_, sink, {.seed = 99});
  EXPECT_EQ(st.days_emitted, 5);
  EXPECT_EQ(sink.day_sizes.size(), 5U);
  EXPECT_EQ(st.total_tickets, sink.all.size());

  // The emitted prefix is exactly the full run's prefix.
  ChunkSink full;
  simulate_streamed(fleet_, hazard_, full, {.seed = 99});
  ASSERT_LE(sink.all.size(), full.all.size());
  expect_logs_eq(sink.all,
                 std::span<const Ticket>(full.all).first(sink.all.size()));
}

TEST_F(SimulateSinkTest, EmptyOutageListChangesNothing) {
  const TicketLog organic = simulate(fleet_, env_, hazard_, {.seed = 99});
  SimulationOptions opts;
  opts.seed = 99;
  opts.outages = {};
  const TicketLog same = simulate(fleet_, env_, hazard_, std::move(opts));
  expect_logs_eq(same.tickets(), organic.tickets());
}

TEST_F(SimulateSinkTest, InjectedOutageAddsOneBurstCoveringTheRow) {
  const std::uint64_t seed = 99;
  ChunkSink organic;
  const StreamStats organic_st =
      simulate_streamed(fleet_, hazard_, organic, {.seed = seed});

  InjectedOutage outage;
  outage.dc = DataCenterId::kDC1;
  outage.row = 0;
  outage.day = 30;
  outage.fraction = 1.0;
  SimulationOptions opts;
  opts.seed = seed;
  opts.outages = {outage};
  ChunkSink hit;
  const StreamStats hit_st =
      simulate_streamed(fleet_, hazard_, hit, std::move(opts));

  // Expected coverage: every commissioned server on the row, as one burst.
  std::size_t row_servers = 0;
  for (const Rack& rack : fleet_.racks()) {
    if (rack.dc == outage.dc && rack.row == outage.row &&
        rack.commission_day <= outage.day) {
      row_servers += static_cast<std::size_t>(rack.servers());
    }
  }
  ASSERT_GT(row_servers, 0U);
  EXPECT_EQ(hit_st.total_tickets, organic_st.total_tickets + row_servers);
  EXPECT_EQ(hit_st.bursts, organic_st.bursts + 1);

  // The injected tickets all share one burst id, open at the onset hour on
  // the right row; removing them leaves the organic log (as a multiset —
  // burst ids after the outage day shift by one).
  const util::HourIndex onset = util::Calendar::first_hour(outage.day) + 12;
  std::vector<Ticket> injected;
  std::vector<Ticket> rest;
  std::map<std::int32_t, std::size_t> by_burst;
  for (const Ticket& t : hit.all) {
    const Rack& rack = fleet_.rack(t.rack_id);
    if (t.open_hour == onset && t.fault == FaultType::kPowerFailure &&
        rack.dc == outage.dc && rack.row == outage.row && t.burst_id >= 0) {
      injected.push_back(t);
      ++by_burst[t.burst_id];
    } else {
      rest.push_back(t);
    }
  }
  EXPECT_EQ(injected.size(), row_servers);
  EXPECT_EQ(by_burst.size(), 1U);

  const auto key = [](const Ticket& t) {
    return std::tuple(t.open_hour, t.rack_id, t.server_index,
                      t.component_index, t.fault, t.close_hour);
  };
  auto organic_keys = organic.all;
  std::sort(organic_keys.begin(), organic_keys.end(),
            [&](const Ticket& a, const Ticket& b) { return key(a) < key(b); });
  std::sort(rest.begin(), rest.end(),
            [&](const Ticket& a, const Ticket& b) { return key(a) < key(b); });
  ASSERT_EQ(rest.size(), organic_keys.size());
  for (std::size_t i = 0; i < rest.size(); ++i) {
    EXPECT_EQ(key(rest[i]), key(organic_keys[i])) << "ticket " << i;
  }
}

TEST(SimulateSinkSoakTest, ResidencyStaysOneDaySized) {
  FleetSpec spec = FleetSpec::test_default();
  spec.num_days = 365;  // long window: total tickets >> any single day
  const Fleet fleet(spec);
  const EnvironmentModel env(fleet, spec.seed);
  const HazardModel hazard(fleet, env);

  ChunkSink sink;
  const StreamStats st = simulate_streamed(fleet, hazard, sink, {.seed = 3});
  ASSERT_GT(st.total_tickets, 1000U);
  EXPECT_EQ(st.days_emitted, spec.num_days);
  // O(one day) residency: the peak must be a small fraction of the window's
  // total — a materialized design would hold all of it at once.
  EXPECT_LT(st.peak_resident_tickets, st.total_tickets / 8);
  EXPECT_LE(st.peak_chunk_tickets, st.peak_resident_tickets);
  // And each chunk is day-sized, never window-sized.
  for (const auto& [day, size] : sink.day_sizes) {
    EXPECT_LE(size, st.peak_chunk_tickets);
  }
}

}  // namespace
}  // namespace rainshine::simdc
