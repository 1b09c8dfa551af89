// FeatureBuilder contract:
//
//   * the snapshot schedule is warmup + k*stride with right-censoring, and
//     each snapshot emits one row per commissioned server;
//   * every feature and label matches a brute-force recomputation from the
//     batch TicketLog — the streamed pipeline must agree with the
//     materialized one it replaces;
//   * the built set is byte-identical at any thread count;
//   * a ticket opened at exactly first_hour(s) is label-side, never
//     feature-side, of the snapshot at s (the leakage boundary).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "rainshine/predict/features.hpp"
#include "rainshine/table/csv.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"

namespace rainshine::predict {
namespace {

using simdc::FaultType;
using simdc::Ticket;

constexpr util::DayIndex kDays = 140;

FeatureConfig test_config() {
  FeatureConfig config;
  config.warmup_days = 50;
  config.snapshot_stride = 20;
  config.horizon_days = 30;
  return config;  // windows stay at the default 7/30/90
}

class FeatureTest : public ::testing::Test {
 protected:
  FeatureTest()
      : spec_([] {
          simdc::FleetSpec s = simdc::FleetSpec::test_default();
          s.num_days = kDays;
          return s;
        }()),
        fleet_(spec_),
        env_(fleet_, spec_.seed),
        hazard_(fleet_, env_) {}
  ~FeatureTest() override { util::clear_thread_override(); }

  [[nodiscard]] std::size_t global_index(std::int32_t rack_id,
                                         std::int16_t server) const {
    std::size_t base = 0;
    for (std::int32_t r = 0; r < rack_id; ++r)
      base += static_cast<std::size_t>(fleet_.rack(r).servers());
    return base + static_cast<std::size_t>(server);
  }

  simdc::FleetSpec spec_;
  simdc::Fleet fleet_;
  simdc::EnvironmentModel env_;
  simdc::HazardModel hazard_;
};

TEST_F(FeatureTest, SnapshotScheduleAndRowAccounting) {
  const FeatureConfig config = test_config();
  const FeatureSet set =
      build_features(fleet_, env_, hazard_, config, {.seed = spec_.seed});

  // warmup + k*stride while the label window still fits: 50, 70, 90, 110.
  const std::vector<util::DayIndex> want_days = {50, 70, 90, 110};
  EXPECT_EQ(set.snapshot_days, want_days);
  EXPECT_EQ(set.num_days, kDays);

  std::size_t want_rows = 0;
  for (util::DayIndex s : want_days)
    for (const auto& rack : fleet_.racks())
      if (rack.commission_day <= s)
        want_rows += static_cast<std::size_t>(rack.servers());
  ASSERT_EQ(set.meta.size(), want_rows);
  ASSERT_EQ(set.table.num_rows(), want_rows);

  // Meta arrives snapshot-major in (day, rack, server) order, and the
  // response column mirrors the labels.
  const auto& fail = set.table.column(FeatureBuilder::kResponse);
  for (std::size_t i = 0; i < set.meta.size(); ++i) {
    const RowMeta& m = set.meta[i];
    EXPECT_EQ(fail.as_double(i), static_cast<double>(m.label));
    EXPECT_EQ(m.label == 0, m.first_fail_hour == -1) << "row " << i;
    if (i > 0) {
      const RowMeta& p = set.meta[i - 1];
      EXPECT_LE(p.snapshot_day, m.snapshot_day);
      if (p.snapshot_day == m.snapshot_day) {
        EXPECT_LE(p.rack_id, m.rack_id);
        if (p.rack_id == m.rack_id) {
          EXPECT_LT(p.server_index, m.server_index);
        }
      }
    }
  }
}

TEST_F(FeatureTest, FeaturesAndLabelsMatchBruteForceFromTheBatchLog) {
  const FeatureConfig config = test_config();
  const FeatureSet set =
      build_features(fleet_, env_, hazard_, config, {.seed = spec_.seed});
  const simdc::TicketLog log =
      simdc::simulate(fleet_, env_, hazard_, {.seed = spec_.seed});
  ASSERT_GT(log.size(), 0U);

  const util::DayIndex w0 = config.windows_days[0];
  const util::DayIndex w1 = config.windows_days[1];
  const util::DayIndex w2 = config.windows_days[2];

  // Per-server true-positive events and per-rack/day/fault counts, the way
  // the incremental index and event lists are supposed to see them.
  struct Event {
    util::DayIndex day;
    bool hardware;
    FaultType fault;
  };
  std::map<std::size_t, std::vector<Event>> events;
  std::map<std::size_t, std::vector<const Ticket*>> hw_tickets;
  for (const Ticket& t : log.tickets()) {
    if (!t.true_positive) continue;
    const std::size_t g = global_index(t.rack_id, t.server_index);
    if (simdc::is_hardware(t.fault)) hw_tickets[g].push_back(&t);
    if (t.open_day() < kDays)
      events[g].push_back({t.open_day(), simdc::is_hardware(t.fault), t.fault});
  }

  const auto srv_count = [&](std::size_t g, util::DayIndex s, util::DayIndex w,
                             bool hw_only) {
    double n = 0;
    const auto it = events.find(g);
    if (it == events.end()) return n;
    for (const Event& e : it->second)
      if (e.day >= s - w && e.day < s && (!hw_only || e.hardware)) n += 1;
    return n;
  };
  const auto rack_count = [&](std::int32_t rack_id, util::DayIndex s,
                              util::DayIndex w, auto&& pred) {
    double n = 0;
    const std::size_t base = global_index(rack_id, 0);
    const auto servers =
        static_cast<std::size_t>(fleet_.rack(rack_id).servers());
    for (std::size_t g = base; g < base + servers; ++g) {
      const auto it = events.find(g);
      if (it == events.end()) continue;
      for (const Event& e : it->second)
        if (e.day >= s - w && e.day < s && pred(e)) n += 1;
    }
    return n;
  };
  const auto excursion_hours = [&](const simdc::Rack& rack, util::DayIndex s,
                                   util::DayIndex w, bool hot) {
    double hours = 0;
    for (util::DayIndex day = std::max(0, s - w); day < s; ++day) {
      for (int h : simdc::EnvironmentModel::kDailyMeanHours) {
        const auto c = env_.at(rack, util::Calendar::first_hour(day) + h);
        const bool flagged = hot ? c.temperature_f > config.hot_threshold_f
                                 : c.relative_humidity < config.dry_threshold_rh;
        if (flagged) hours += 6.0;
      }
    }
    return hours;
  };

  const auto col = [&](const char* name) -> const table::Column& {
    return set.table.column(name);
  };
  std::size_t positives = 0;
  for (std::size_t i = 0; i < set.meta.size(); ++i) {
    const RowMeta& m = set.meta[i];
    const util::DayIndex s = m.snapshot_day;
    const simdc::Rack& rack = fleet_.rack(m.rack_id);
    const std::size_t g = global_index(m.rack_id, m.server_index);

    // Label: earliest hardware true positive in [first_hour(s),
    // first_hour(s + horizon)).
    util::HourIndex first_fail = -1;
    const auto hw_it = hw_tickets.find(g);
    if (hw_it != hw_tickets.end()) {
      const util::HourIndex lo = util::Calendar::first_hour(s);
      const util::HourIndex hi =
          util::Calendar::first_hour(s + config.horizon_days);
      for (const Ticket* t : hw_it->second)
        if (t->open_hour >= lo && t->open_hour < hi &&
            (first_fail == -1 || t->open_hour < first_fail))
          first_fail = t->open_hour;
    }
    ASSERT_EQ(m.label, first_fail != -1 ? 1 : 0) << "row " << i;
    ASSERT_EQ(m.first_fail_hour, first_fail) << "row " << i;
    positives += m.label;

    EXPECT_EQ(col("age_months").as_double(i), rack.age_months(s));
    EXPECT_EQ(col("power_kw").as_double(i), rack.rated_power_kw);
    EXPECT_EQ(col("srv_all_7d").as_double(i), srv_count(g, s, w0, false));
    EXPECT_EQ(col("srv_all_30d").as_double(i), srv_count(g, s, w1, false));
    EXPECT_EQ(col("srv_all_90d").as_double(i), srv_count(g, s, w2, false));
    EXPECT_EQ(col("srv_hw_30d").as_double(i), srv_count(g, s, w1, true));

    const auto is_hw = [](const Event& e) { return e.hardware; };
    EXPECT_EQ(col("rack_hw_7d").as_double(i), rack_count(m.rack_id, s, w0, is_hw));
    EXPECT_EQ(col("rack_hw_30d").as_double(i), rack_count(m.rack_id, s, w1, is_hw));
    EXPECT_EQ(col("rack_hw_90d").as_double(i), rack_count(m.rack_id, s, w2, is_hw));
    EXPECT_EQ(col("rack_all_30d").as_double(i),
              rack_count(m.rack_id, s, w1, [](const Event&) { return true; }));
    EXPECT_EQ(col("rack_disk_30d").as_double(i),
              rack_count(m.rack_id, s, w1, [](const Event& e) {
                return e.hardware && simdc::device_kind_of(e.fault) ==
                                         simdc::DeviceKind::kDisk;
              }));
    EXPECT_EQ(col("rack_mem_30d").as_double(i),
              rack_count(m.rack_id, s, w1, [](const Event& e) {
                return e.hardware && simdc::device_kind_of(e.fault) ==
                                         simdc::DeviceKind::kDimm;
              }));

    EXPECT_DOUBLE_EQ(col("hot_hours_7d").as_double(i),
                     excursion_hours(rack, s, w0, true));
    EXPECT_DOUBLE_EQ(col("hot_hours_30d").as_double(i),
                     excursion_hours(rack, s, w1, true));
    EXPECT_DOUBLE_EQ(col("hot_hours_90d").as_double(i),
                     excursion_hours(rack, s, w2, true));
    EXPECT_DOUBLE_EQ(col("dry_hours_30d").as_double(i),
                     excursion_hours(rack, s, w1, false));

    // Group per day before summing across days — the exact association the
    // daily-tier buckets use, so the comparison can be bitwise.
    double tsum = 0, rsum = 0, n = 0;
    for (util::DayIndex day = std::max(0, s - w1); day < s; ++day) {
      double tday = 0, rday = 0;
      for (int h : simdc::EnvironmentModel::kDailyMeanHours) {
        const auto c = env_.at(rack, util::Calendar::first_hour(day) + h);
        tday += c.temperature_f;
        rday += c.relative_humidity;
        n += 1;
      }
      tsum += tday;
      rsum += rday;
    }
    EXPECT_DOUBLE_EQ(col("temp_mean_30d").as_double(i), tsum / n);
    EXPECT_DOUBLE_EQ(col("rh_mean_30d").as_double(i), rsum / n);
  }
  // The planted hazard produces both classes on the test window.
  EXPECT_GT(positives, 0U);
  EXPECT_LT(positives, set.meta.size());
}

TEST_F(FeatureTest, ByteIdenticalAcrossThreadCounts) {
  const FeatureConfig config = test_config();
  std::string want_csv;
  std::vector<RowMeta> want_meta;
  // write_csv prints labels, not codes: the dictionaries pin the codes CART
  // splits on.
  const char* const nominal[] = {"dc", "sku", "workload"};
  std::vector<std::vector<std::string>> want_dicts;
  for (const std::size_t threads : {1UL, 3UL}) {
    util::set_num_threads(threads);
    const FeatureSet set =
        build_features(fleet_, env_, hazard_, config, {.seed = spec_.seed});
    std::ostringstream out;
    table::write_csv(set.table, out);
    std::vector<std::vector<std::string>> dicts;
    for (const char* name : nominal)
      dicts.push_back(set.table.column(name).dictionary());
    if (want_csv.empty()) {
      want_csv = out.str();
      want_meta = set.meta;
      want_dicts = dicts;
      ASSERT_FALSE(want_csv.empty());
      continue;
    }
    EXPECT_EQ(out.str(), want_csv) << "threads=" << threads;
    EXPECT_EQ(dicts, want_dicts) << "threads=" << threads;
    ASSERT_EQ(set.meta.size(), want_meta.size());
    for (std::size_t i = 0; i < set.meta.size(); ++i) {
      EXPECT_EQ(set.meta[i].snapshot_day, want_meta[i].snapshot_day);
      EXPECT_EQ(set.meta[i].rack_id, want_meta[i].rack_id);
      EXPECT_EQ(set.meta[i].server_index, want_meta[i].server_index);
      EXPECT_EQ(set.meta[i].label, want_meta[i].label);
      EXPECT_EQ(set.meta[i].first_fail_hour, want_meta[i].first_fail_hour);
    }
  }
}

TEST_F(FeatureTest, TicketAtExactlySnapshotHourIsLabelSideNotFeatureSide) {
  // One snapshot at day 40 (stride larger than the window), driven by hand
  // with three single-ticket chunks around the boundary:
  //   A opens at exactly first_hour(40)     -> label only, never a feature;
  //   B opens at first_hour(40) - 1         -> feature only (history);
  //   C opens at first_hour(40 + horizon)   -> outside the label window.
  simdc::FleetSpec spec = simdc::FleetSpec::test_default();
  spec.num_days = 80;
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, spec.seed);

  FeatureConfig config;
  config.warmup_days = 40;
  config.snapshot_stride = 100;
  config.horizon_days = 20;
  FeatureBuilder builder(fleet, env, config);

  const auto make = [](util::HourIndex open, std::int16_t server) {
    Ticket t;
    t.open_hour = open;
    t.close_hour = open + 4;
    t.rack_id = 0;
    t.server_index = server;
    t.fault = FaultType::kDiskFailure;
    t.true_positive = true;
    return t;
  };
  const Ticket a = make(util::Calendar::first_hour(40), 0);
  const Ticket b = make(util::Calendar::first_hour(40) - 1, 1);
  const Ticket c = make(util::Calendar::first_hour(60), 2);

  EXPECT_THROW(builder.observe_day(1, {}), util::precondition_error);
  for (util::DayIndex day = 0; day < spec.num_days; ++day) {
    if (day == 39) builder.observe_day(day, std::span(&b, 1));
    else if (day == 40) builder.observe_day(day, std::span(&a, 1));
    else if (day == 60) builder.observe_day(day, std::span(&c, 1));
    else builder.observe_day(day, {});
  }
  const FeatureSet set = builder.finish();
  ASSERT_EQ(set.snapshot_days, std::vector<util::DayIndex>{40});

  const auto row_of = [&](std::int16_t server) {
    for (std::size_t i = 0; i < set.meta.size(); ++i)
      if (set.meta[i].rack_id == 0 && set.meta[i].server_index == server)
        return i;
    ADD_FAILURE() << "no row for server " << server;
    return std::size_t{0};
  };
  const auto& srv_all = set.table.column("srv_all_7d");
  const auto& srv_hw = set.table.column("srv_hw_30d");

  // A: invisible to the features at day 40, but labels the row.
  const std::size_t ra = row_of(0);
  EXPECT_EQ(srv_all.as_double(ra), 0.0);
  EXPECT_EQ(srv_hw.as_double(ra), 0.0);
  EXPECT_EQ(set.meta[ra].label, 1);
  EXPECT_EQ(set.meta[ra].first_fail_hour, a.open_hour);

  // B: one hour earlier flips it to history — a feature, not a label.
  const std::size_t rb = row_of(1);
  EXPECT_EQ(srv_all.as_double(rb), 1.0);
  EXPECT_EQ(srv_hw.as_double(rb), 1.0);
  EXPECT_EQ(set.meta[rb].label, 0);
  EXPECT_EQ(set.meta[rb].first_fail_hour, -1);

  // C: first hour past the horizon misses the window entirely.
  const std::size_t rc = row_of(2);
  EXPECT_EQ(srv_all.as_double(rc), 0.0);
  EXPECT_EQ(set.meta[rc].label, 0);
}

}  // namespace
}  // namespace rainshine::predict
