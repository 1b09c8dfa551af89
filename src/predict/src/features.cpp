#include "rainshine/predict/features.hpp"

#include <algorithm>
#include <string>

#include "rainshine/obs/metrics.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::predict {

namespace {

/// Telemetry sampling cadence: the four representative hours the
/// environment model averages per day. Each sample stands for this many
/// hours when converting indicator sums to excursion hours.
constexpr double kHoursPerSample =
    24.0 / static_cast<double>(simdc::EnvironmentModel::kDailyMeanHours.size());
/// Fine-tier step: one bucket per representative-hour sample.
constexpr std::int64_t kFineStepHours = 6;

[[nodiscard]] std::string day_suffix(util::DayIndex w) {
  return std::to_string(w) + "d";
}

}  // namespace

FeatureBuilder::FeatureBuilder(const simdc::Fleet& fleet,
                               const simdc::EnvironmentModel& env,
                               FeatureConfig config)
    : fleet_(&fleet), env_(&env), config_(config), metrics_(fleet) {
  util::require(config_.warmup_days >= 1, "FeatureConfig: warmup_days >= 1");
  util::require(config_.snapshot_stride >= 1, "FeatureConfig: snapshot_stride >= 1");
  util::require(config_.horizon_days >= 1, "FeatureConfig: horizon_days >= 1");
  util::require(config_.windows_days[0] >= 1 &&
                    config_.windows_days[0] < config_.windows_days[1] &&
                    config_.windows_days[1] < config_.windows_days[2],
                "FeatureConfig: windows_days must be ascending and positive");

  const std::string s0 = day_suffix(config_.windows_days[0]);
  const std::string s1 = day_suffix(config_.windows_days[1]);
  const std::string s2 = day_suffix(config_.windows_days[2]);
  feature_names_ = {"dc", "sku", "workload", "age_months", "power_kw",
                    "srv_all_" + s0, "srv_all_" + s1, "srv_all_" + s2,
                    "srv_hw_" + s1, "rack_hw_" + s0, "rack_hw_" + s1,
                    "rack_hw_" + s2, "rack_all_" + s1, "rack_disk_" + s1,
                    "rack_mem_" + s1, "hot_hours_" + s0, "hot_hours_" + s1,
                    "hot_hours_" + s2, "dry_hours_" + s1, "temp_mean_" + s1,
                    "rh_mean_" + s1};
  // dc, sku and workload are nominal; every other feature is continuous.
  features_.assign(3, table::Column(table::ColumnType::kNominal));
  features_.resize(feature_names_.size());

  const auto& racks = fleet.racks();
  server_offset_.reserve(racks.size());
  std::size_t servers = 0;
  for (std::size_t i = 0; i < racks.size(); ++i) {
    util::require(racks[i].id == static_cast<std::int32_t>(i),
                  "FeatureBuilder expects dense rack ids");
    server_offset_.push_back(servers);
    servers += static_cast<std::size_t>(racks[i].servers());
  }
  events_.resize(servers);

  // One fine tier that retains exactly the short window (the 7-day reads
  // land on the ring's oldest slot — the seam the store tests pin), plus a
  // daily tier that retains the long window with slack.
  const std::size_t fine_slots = static_cast<std::size_t>(
      config_.windows_days[0] * util::kHoursPerDay / kFineStepHours);
  const std::size_t daily_slots =
      static_cast<std::size_t>(config_.windows_days[2]) + 8;
  rack_series_.reserve(racks.size());
  for (const auto& rack : racks) {
    const std::string suffix = ".R" + std::to_string(rack.id);
    std::array<stream::SeriesId, 4> ids{};
    const char* names[4] = {"predict.hot", "predict.dry", "predict.temp_f",
                            "predict.rh"};
    for (int s = 0; s < 4; ++s) {
      ids[static_cast<std::size_t>(s)] = env_store_.add_series(
          {.name = names[s] + suffix,
           .tiers = {{.step_hours = kFineStepHours, .slots = fine_slots},
                     {.step_hours = util::kHoursPerDay, .slots = daily_slots}}});
    }
    rack_series_.push_back(ids);
  }
}

void FeatureBuilder::observe_day(util::DayIndex day,
                                 std::span<const simdc::Ticket> tickets) {
  util::require(!finished_, "FeatureBuilder: observe_day after finish");
  util::require(day == next_day_, "FeatureBuilder: days must arrive in order");
  next_day_ = day + 1;

  // Telemetry for days [env_pushed_to_, day) lands first, so a snapshot at
  // `day` sees exactly the hours < first_hour(day).
  while (env_pushed_to_ < day) push_environment_day(env_pushed_to_++);

  const util::DayIndex num_days = fleet_->spec().num_days;
  const bool due = day >= config_.warmup_days &&
                   (day - config_.warmup_days) % config_.snapshot_stride == 0 &&
                   day + config_.horizon_days <= num_days;
  // Snapshot BEFORE absorbing the chunk: the chunk holds tickets opened on
  // `day` itself (open_hour >= first_hour(day)), which the leakage contract
  // puts strictly in the future of this snapshot.
  if (due) emit_snapshot(day);

  apply_labels(tickets);
  metrics_.index(tickets);
  absorb_events(tickets);

  // A snapshot at s is fully labeled once the chunk for day s+horizon-1 has
  // been applied; later chunks only carry later open hours.
  std::erase_if(pending_, [&](const PendingSnapshot& p) {
    return p.day + config_.horizon_days <= next_day_;
  });
}

void FeatureBuilder::push_environment_day(util::DayIndex day) {
  for (const auto& rack : fleet_->racks()) {
    const auto& ids = rack_series_[static_cast<std::size_t>(rack.id)];
    for (int h : simdc::EnvironmentModel::kDailyMeanHours) {
      const util::HourIndex hour = util::Calendar::first_hour(day) + h;
      const simdc::Conditions c = env_->at(rack, hour);
      env_store_.push(ids[0], hour,
                      c.temperature_f > config_.hot_threshold_f ? 1.0 : 0.0);
      env_store_.push(ids[1], hour,
                      c.relative_humidity < config_.dry_threshold_rh ? 1.0 : 0.0);
      env_store_.push(ids[2], hour, c.temperature_f);
      env_store_.push(ids[3], hour, c.relative_humidity);
    }
  }
}

double FeatureBuilder::indicator_hours(stream::SeriesId id, std::size_t tier,
                                       util::DayIndex from_day,
                                       util::DayIndex to_day) const {
  const auto samples =
      env_store_.read(id, tier, util::Calendar::first_hour(std::max(0, from_day)),
                      util::Calendar::first_hour(to_day));
  double flagged = 0;
  for (const auto& s : samples) flagged += s.sum;
  return flagged * kHoursPerSample;
}

void FeatureBuilder::emit_snapshot(util::DayIndex s) {
  const util::DayIndex w0 = config_.windows_days[0];
  const util::DayIndex w1 = config_.windows_days[1];
  const util::DayIndex w2 = config_.windows_days[2];

  PendingSnapshot pending;
  pending.day = s;
  pending.row_of_server.assign(events_.size(), -1);

  for (const auto& rack : fleet_->racks()) {
    if (rack.commission_day > s) continue;  // not in service yet: no row

    // Rack-level trailing counts from the incremental metrics index.
    double rack_hw_w0 = 0, rack_hw_w1 = 0, rack_hw_w2 = 0;
    double rack_all_w1 = 0, rack_disk_w1 = 0, rack_mem_w1 = 0;
    for (util::DayIndex day = std::max(0, s - w2); day < s; ++day) {
      const util::DayIndex age = s - day;  // in [1, w2]
      const double hw = metrics_.hardware_count(rack.id, day);
      rack_hw_w2 += hw;
      if (age <= w1) {
        rack_hw_w1 += hw;
        rack_all_w1 += metrics_.total_count(rack.id, day);
        for (simdc::FaultType f : simdc::kAllFaultTypes) {
          if (!simdc::is_hardware(f)) continue;
          const simdc::DeviceKind kind = simdc::device_kind_of(f);
          if (kind == simdc::DeviceKind::kDisk)
            rack_disk_w1 += metrics_.count(rack.id, day, f);
          else if (kind == simdc::DeviceKind::kDimm)
            rack_mem_w1 += metrics_.count(rack.id, day, f);
        }
      }
      if (age <= w0) rack_hw_w0 += hw;
    }

    const auto& ids = rack_series_[static_cast<std::size_t>(rack.id)];
    const double hot_w0 = indicator_hours(ids[0], /*tier=*/0, s - w0, s);
    const double hot_w1 = indicator_hours(ids[0], /*tier=*/1, s - w1, s);
    const double hot_w2 = indicator_hours(ids[0], /*tier=*/1, s - w2, s);
    const double dry_w1 = indicator_hours(ids[1], /*tier=*/1, s - w1, s);
    double temp_mean = 0, rh_mean = 0;
    {
      const auto from = util::Calendar::first_hour(std::max(0, s - w1));
      const auto to = util::Calendar::first_hour(s);
      double tsum = 0, rsum = 0;
      std::uint64_t tn = 0, rn = 0;
      for (const auto& a : env_store_.read(ids[2], 1, from, to)) {
        tsum += a.sum;
        tn += a.count;
      }
      for (const auto& a : env_store_.read(ids[3], 1, from, to)) {
        rsum += a.sum;
        rn += a.count;
      }
      if (tn > 0) temp_mean = tsum / static_cast<double>(tn);
      if (rn > 0) rh_mean = rsum / static_cast<double>(rn);
    }

    const std::size_t base = server_offset_[static_cast<std::size_t>(rack.id)];
    for (int srv = 0; srv < rack.servers(); ++srv) {
      const std::size_t g = base + static_cast<std::size_t>(srv);
      auto& events = events_[g];
      // Drop events that have aged out of every window.
      const auto keep = std::find_if(events.begin(), events.end(),
                                     [&](const ServerEvent& e) {
                                       return e.day >= s - w2;
                                     });
      if (keep != events.begin()) events.erase(events.begin(), keep);

      double srv_all_w0 = 0, srv_all_w1 = 0, srv_all_w2 = 0, srv_hw_w1 = 0;
      for (const ServerEvent& e : events) {
        const util::DayIndex age = s - e.day;  // >= 1: absorbed pre-snapshot
        srv_all_w2 += 1;
        if (age <= w1) {
          srv_all_w1 += 1;
          if (e.hardware) srv_hw_w1 += 1;
        }
        if (age <= w0) srv_all_w0 += 1;
      }

      // One value per feature column, in feature_names_ order.
      auto column = features_.begin();
      for (const std::string_view label :
           {simdc::to_string(rack.dc), simdc::to_string(rack.sku),
            simdc::to_string(rack.workload)}) {
        (column++)->push_nominal(label);
      }
      for (const double value :
           {rack.age_months(s), rack.rated_power_kw, srv_all_w0, srv_all_w1,
            srv_all_w2, srv_hw_w1, rack_hw_w0, rack_hw_w1, rack_hw_w2,
            rack_all_w1, rack_disk_w1, rack_mem_w1, hot_w0, hot_w1, hot_w2,
            dry_w1, temp_mean, rh_mean}) {
        (column++)->push_continuous(value);
      }

      pending.row_of_server[g] = static_cast<std::int32_t>(meta_.size());
      meta_.push_back({.snapshot_day = s,
                       .rack_id = rack.id,
                       .server_index = static_cast<std::int16_t>(srv),
                       .label = 0,
                       .first_fail_hour = -1});
    }
  }

  snapshot_days_.push_back(s);
  pending_.push_back(std::move(pending));
  obs::registry().counter("predict.snapshots").add(1);
}

void FeatureBuilder::apply_labels(std::span<const simdc::Ticket> tickets) {
  for (const auto& t : tickets) {
    if (!t.true_positive || !simdc::is_hardware(t.fault)) continue;
    const util::DayIndex td = t.open_day();
    for (auto& p : pending_) {
      if (td < p.day || td >= p.day + config_.horizon_days) continue;
      const std::size_t g = server_offset_[static_cast<std::size_t>(t.rack_id)] +
                            static_cast<std::size_t>(t.server_index);
      const std::int32_t row = p.row_of_server[g];
      if (row < 0) continue;
      auto& m = meta_[static_cast<std::size_t>(row)];
      if (m.label == 0 || t.open_hour < m.first_fail_hour) {
        m.label = 1;
        m.first_fail_hour = t.open_hour;
      }
    }
  }
}

void FeatureBuilder::absorb_events(std::span<const simdc::Ticket> tickets) {
  const util::DayIndex num_days = fleet_->spec().num_days;
  for (const auto& t : tickets) {
    if (!t.true_positive) continue;
    const util::DayIndex td = t.open_day();
    // Repair-overhang tickets (open_day >= num_days, final chunk only) can
    // never fall inside any snapshot's trailing window.
    if (td >= num_days) continue;
    const std::size_t g = server_offset_[static_cast<std::size_t>(t.rack_id)] +
                          static_cast<std::size_t>(t.server_index);
    events_[g].push_back({.day = td, .hardware = simdc::is_hardware(t.fault)});
  }
}

FeatureSet FeatureBuilder::finish() {
  util::require(!finished_, "FeatureBuilder: finish called twice");
  finished_ = true;

  table::Column fail;
  for (const RowMeta& m : meta_) fail.push_continuous(m.label);

  FeatureSet set;
  for (std::size_t c = 0; c < features_.size(); ++c) {
    set.table.add_column(std::move(feature_names_[c]), std::move(features_[c]));
  }
  set.table.add_column(kResponse, std::move(fail));
  set.meta = std::move(meta_);
  set.config = config_;
  set.num_days = fleet_->spec().num_days;
  set.snapshot_days = std::move(snapshot_days_);
  obs::registry().counter("predict.rows_emitted").add(set.meta.size());
  std::size_t positives = 0;
  for (const auto& m : set.meta) positives += m.label;
  obs::registry().counter("predict.labels_positive").add(positives);
  return set;
}

FeatureSet build_features(const simdc::Fleet& fleet,
                          const simdc::EnvironmentModel& env,
                          const simdc::HazardModel& hazard,
                          const FeatureConfig& config,
                          const simdc::SimulationOptions& sim) {
  FeatureBuilder builder(fleet, env, config);
  simdc::simulate_streamed(fleet, hazard, builder, sim);
  return builder.finish();
}

}  // namespace rainshine::predict
