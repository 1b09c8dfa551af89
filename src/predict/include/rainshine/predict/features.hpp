// Predictive early-warning feature pipeline (ROADMAP item 2, DC-Prophet
// style): per-SERVER sliding-window features derived from the streamed
// ticket sweep plus synthesized telemetry, labeled with
// will-this-server-open-a-hardware-RMA-within-the-horizon.
//
// The pipeline is a TicketSink, so it rides simulate_streamed() directly
// and never materializes a TicketLog: ticket history accumulates through an
// incremental core::FailureMetrics (rack-level trailing counts) and a
// per-server sparse event list, telemetry through a stream::SeriesStore
// ring (hot/dry excursion indicators + raw temp/RH, one fine and one daily
// tier per rack).
//
// Leakage contract (the whole point): the feature snapshot taken on day d
// reads ONLY tickets with open_hour < first_hour(d) and telemetry hours
// < first_hour(d). The streaming engine guarantees the chunk for day d
// contains exactly the tickets with open_hour in
// [first_hour(d), first_hour(d+1)) — except the final chunk, which also
// carries the repair-overhang tail — so snapshotting BEFORE indexing the
// day's chunk enforces the contract structurally rather than by filtering.
// Labels, by construction, look forward: positive iff a hardware
// true-positive ticket opens in [first_hour(d), first_hour(d+horizon)).
// Rows with d + horizon > num_days are never emitted (right-censoring).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "rainshine/core/metrics.hpp"
#include "rainshine/simdc/environment.hpp"
#include "rainshine/simdc/tickets.hpp"
#include "rainshine/stream/store.hpp"
#include "rainshine/table/table.hpp"

namespace rainshine::predict {

struct FeatureConfig {
  /// First snapshot day (history warm-up before any row is emitted).
  util::DayIndex warmup_days = 90;
  /// Emit a snapshot every `snapshot_stride` days from the warm-up on.
  std::int32_t snapshot_stride = 7;
  /// Label horizon: positive iff a hardware true positive opens within
  /// [first_hour(d), first_hour(d + horizon_days)).
  util::DayIndex horizon_days = 30;
  /// Trailing windows (days) for the short/mid/long count features,
  /// ascending. Windows are clamped at day 0 when history is shorter.
  std::array<util::DayIndex, 3> windows_days = {7, 30, 90};
  /// Environmental excursion thresholds (the operator's ASHRAE-style
  /// envelope; they coincide with the planted hazard's interaction range).
  double hot_threshold_f = 78.0;
  double dry_threshold_rh = 25.0;
};

/// Bookkeeping carried next to every feature row (never fed to the model).
struct RowMeta {
  util::DayIndex snapshot_day = 0;
  std::int32_t rack_id = 0;
  std::int16_t server_index = 0;
  /// 1 iff a hardware true positive opened within the label window.
  std::uint8_t label = 0;
  /// Open hour of the EARLIEST such ticket; -1 when label == 0. Lead time
  /// for an alert at day d is first_fail_hour - first_hour(d).
  util::HourIndex first_fail_hour = -1;
};

struct FeatureSet {
  table::Table table;         ///< feature columns + "fail" response
  std::vector<RowMeta> meta;  ///< parallel to table rows
  FeatureConfig config;
  util::DayIndex num_days = 0;
  std::vector<util::DayIndex> snapshot_days;  ///< in emission order
};

/// Streaming feature/label builder. Drive it either through
/// simulate_streamed(fleet, hazard, builder, ...) or by calling
/// observe_day() yourself with per-day chunks in day order (the leakage
/// guard test corrupts post-split chunks this way), then call finish().
class FeatureBuilder final : public simdc::TicketSink {
 public:
  FeatureBuilder(const simdc::Fleet& fleet, const simdc::EnvironmentModel& env,
                 FeatureConfig config = {});

  bool on_day(util::DayIndex day, std::span<const simdc::Ticket> tickets) override {
    observe_day(day, tickets);
    return true;
  }

  /// One day's finalized chunk (tickets with open_hour < first_hour(day+1)
  /// not already delivered). Must be called for consecutive days from 0.
  void observe_day(util::DayIndex day, std::span<const simdc::Ticket> tickets);

  /// Finalizes labels and builds the table. Call once, after the last day.
  [[nodiscard]] FeatureSet finish();

  /// The incremental rack/day/fault index fed by the same chunks — reusable
  /// for the provisioning/setpoint studies after the sweep (rainshine_whatif
  /// streams once and shares it). Valid until the builder is destroyed.
  [[nodiscard]] const core::FailureMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] core::FailureMetrics take_metrics() { return std::move(metrics_); }

  static constexpr const char* kResponse = "fail";

 private:
  struct ServerEvent {
    util::DayIndex day = 0;
    bool hardware = false;
  };
  struct PendingSnapshot {
    util::DayIndex day = 0;
    /// Global server index -> row id, or -1 for servers without a row
    /// (rack not yet commissioned at `day`).
    std::vector<std::int32_t> row_of_server;
  };

  void push_environment_day(util::DayIndex day);
  void emit_snapshot(util::DayIndex day);
  void apply_labels(std::span<const simdc::Ticket> tickets);
  void absorb_events(std::span<const simdc::Ticket> tickets);
  [[nodiscard]] double indicator_hours(stream::SeriesId id, std::size_t tier,
                                       util::DayIndex from_day,
                                       util::DayIndex to_day) const;

  const simdc::Fleet* fleet_;
  const simdc::EnvironmentModel* env_;
  FeatureConfig config_;
  core::FailureMetrics metrics_;
  stream::SeriesStore env_store_;
  /// Per-rack series ids: hot indicator, dry indicator, temp, RH.
  std::vector<std::array<stream::SeriesId, 4>> rack_series_;
  std::vector<std::size_t> server_offset_;  ///< rack id -> global server base
  std::vector<std::vector<ServerEvent>> events_;  ///< per global server
  std::vector<PendingSnapshot> pending_;
  /// Feature columns in table order, one value per emitted row; finish()
  /// moves them into the table and appends the response.
  std::vector<std::string> feature_names_;
  std::vector<table::Column> features_;
  std::vector<RowMeta> meta_;
  std::vector<util::DayIndex> snapshot_days_;
  util::DayIndex next_day_ = 0;      ///< next expected observe_day argument
  util::DayIndex env_pushed_to_ = 0; ///< days [0, env_pushed_to_) pushed
  bool finished_ = false;
};

/// Convenience wrapper: stream the simulation through a FeatureBuilder and
/// return the finished set. Deterministic for fixed inputs at any thread
/// count (the engine is; the builder is serial).
[[nodiscard]] FeatureSet build_features(const simdc::Fleet& fleet,
                                        const simdc::EnvironmentModel& env,
                                        const simdc::HazardModel& hazard,
                                        const FeatureConfig& config = {},
                                        const simdc::SimulationOptions& sim = {});

}  // namespace rainshine::predict
