// Bridge from IngestReport to the process-wide obs registry.
//
// report.hpp stays link-dependency-free by design; this header is the ONE
// place ingest vocabulary meets rainshine::obs, so only the readers that
// actually publish (table::read_csv, simdc::read_ticket_csv) pay the obs
// link edge. Include it from a .cpp and link rainshine::obs.
//
// Counters published (monotonic, accumulated across every read in the
// process):
//   ingest.rows_seen / rows_ingested / rows_quarantined / rows_repaired
//   ingest.quarantined.<reason> and ingest.repaired.<reason> per ReasonCode
// so a metrics sidecar carries the same accounting identity the report
// does: rows_seen == rows_ingested + rows_quarantined + repairs that drop
// the row (dedup).
#pragma once

#include <string>

#include "rainshine/ingest/report.hpp"
#include "rainshine/obs/metrics.hpp"

namespace rainshine::ingest {

/// Adds one ingest pass's contribution to obs::registry(), as the
/// difference `after - before`. Readers snapshot the caller's report at
/// entry and publish the delta at exit, so a report the caller accumulates
/// across several reads is never double-counted. Per-reason counters are
/// only registered once a reason actually occurs, keeping sidecars free of
/// all-zero noise. (A strict-mode pass that throws publishes nothing — the
/// pass produced no output to account for.)
inline void publish_report_delta(const IngestReport& before,
                                 const IngestReport& after) {
  obs::Registry& reg = obs::registry();
  reg.counter("ingest.rows_seen").add(after.rows_seen() - before.rows_seen());
  reg.counter("ingest.rows_ingested")
      .add(after.rows_ingested() - before.rows_ingested());
  reg.counter("ingest.rows_quarantined")
      .add(after.rows_quarantined() - before.rows_quarantined());
  reg.counter("ingest.rows_repaired")
      .add(after.rows_repaired() - before.rows_repaired());
  for (std::size_t r = 0; r < kNumReasonCodes; ++r) {
    const auto reason = static_cast<ReasonCode>(r);
    const std::size_t q =
        after.quarantined_with(reason) - before.quarantined_with(reason);
    if (q > 0) {
      reg.counter("ingest.quarantined." + std::string(to_string(reason))).add(q);
    }
    const std::size_t f =
        after.repaired_with(reason) - before.repaired_with(reason);
    if (f > 0) {
      reg.counter("ingest.repaired." + std::string(to_string(reason))).add(f);
    }
  }
}

}  // namespace rainshine::ingest
