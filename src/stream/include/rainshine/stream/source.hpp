// Live stream sources: drive simdc incrementally, one simulated day at a
// time, instead of materializing the whole run.
//
// TicketStream is a thin adapter over simdc::simulate_streamed — the same
// day-major watermark engine the batch simulate() wraps — bridging its
// TicketSink to a bounded channel. Each chunk is one finalized day in
// batch-log order; concatenating every chunk reproduces
// simdc::simulate(...).tickets() BYTE-IDENTICALLY, burst ids included (the
// engine numbers correlated events chronologically in (day, rack,
// discovery) order). See tickets.hpp for the watermark argument.
//
// TelemetryStream samples the deterministic EnvironmentModel at a fixed
// per-day cadence — the sensor feed the ring store (store.hpp) retains.
//
// Both sources own a producer thread and a bounded Channel: a slow consumer
// back-pressures the simulation rather than buffering the fleet's history.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "rainshine/simdc/environment.hpp"
#include "rainshine/simdc/tickets.hpp"
#include "rainshine/stream/channel.hpp"

namespace rainshine::stream {

/// All tickets finalized by the end of one simulated day, in batch-log order.
struct TicketChunk {
  util::DayIndex day = 0;  ///< the day whose simulation completed
  std::vector<simdc::Ticket> tickets;
};

/// One environment sensor sample at a rack inlet.
struct TelemetryReading {
  std::int32_t rack_id = 0;
  util::HourIndex hour = 0;
  double temperature_f = 0.0;
  double relative_humidity = 0.0;
};

/// One simulated day of sensor samples, rack-major then hour-major.
struct TelemetryChunk {
  util::DayIndex day = 0;
  std::vector<TelemetryReading> readings;
};

struct SourceOptions {
  std::uint64_t seed = 1;            ///< same meaning as SimulationOptions::seed
  std::size_t channel_capacity = 4;  ///< days of backlog before backpressure
  /// Sensor samples per rack per day (must divide 24); 24 = hourly.
  int telemetry_samples_per_day = 24;
};

/// Incremental ticket source. `next()` yields per-day chunks until the
/// fleet's horizon is exhausted (then nullopt). The final day's chunk also
/// carries the overhang — tickets whose staggered onsets crossed the end of
/// the window — so the concatenation is the complete log.
class TicketStream {
 public:
  TicketStream(const simdc::Fleet& fleet, const simdc::HazardModel& hazard,
               SourceOptions options = {});
  ~TicketStream();

  TicketStream(const TicketStream&) = delete;
  TicketStream& operator=(const TicketStream&) = delete;

  /// Blocks for the next finalized day; nullopt once the stream is done
  /// (horizon reached or stop() called).
  std::optional<TicketChunk> next();

  /// Asks the producer to stop at the next day boundary and unblocks
  /// everyone. Idempotent; the destructor calls it.
  void stop();

 private:
  void produce();

  const simdc::Fleet* fleet_;
  const simdc::HazardModel* hazard_;
  SourceOptions options_;
  Channel<TicketChunk> channel_;
  std::atomic<bool> stop_{false};
  std::thread producer_;
};

/// Incremental sensor source over the deterministic EnvironmentModel.
class TelemetryStream {
 public:
  TelemetryStream(const simdc::Fleet& fleet, const simdc::EnvironmentModel& env,
                  SourceOptions options = {});
  ~TelemetryStream();

  TelemetryStream(const TelemetryStream&) = delete;
  TelemetryStream& operator=(const TelemetryStream&) = delete;

  std::optional<TelemetryChunk> next();
  void stop();

 private:
  void produce();

  const simdc::Fleet* fleet_;
  const simdc::EnvironmentModel* env_;
  SourceOptions options_;
  Channel<TelemetryChunk> channel_;
  std::atomic<bool> stop_{false};
  std::thread producer_;
};

}  // namespace rainshine::stream
