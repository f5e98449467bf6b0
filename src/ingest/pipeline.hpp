// Fault-tolerant telemetry ingestion pipeline.
//
// Sits between `leaf::data` (which models what the network *did*) and
// `leaf::core` (which evaluates forecasting schemes on what the collector
// *delivered*).  The pipeline consumes a possibly late / duplicated /
// corrupted / gappy record stream and produces:
//
//   1. a clean day-major `CellularDataset` — records re-sequenced by the
//      day they describe, duplicates dropped, implausible values
//      quarantined and imputed, short gaps filled, long gaps left honest;
//   2. per-KPI and per-eNodeB `HealthSeries` from the state machine in
//      health.hpp — the signal `core::run_scheme` uses to freeze drift
//      detection during declared outages;
//   3. an `IngestReport` of every intervention, which the evaluation layer
//      surfaces as `DegradedStats` so no repair is silent.
//
// Plausibility bounds are learned from the leading 180 days of the stream
// itself (robust quantiles + headroom; see validator.hpp), so
// ingest needs no access to ground-truth clean data.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "ingest/fault.hpp"
#include "ingest/health.hpp"
#include "ingest/validator.hpp"

namespace leaf::obs {
class EventLog;
}

namespace leaf::ingest {

/// Counts of every intervention the pipeline made.
struct IngestReport {
  std::int64_t records_in = 0;
  std::int64_t records_out = 0;
  std::int64_t late_records = 0;        ///< delivered after a later day
  std::int64_t duplicates_dropped = 0;
  std::int64_t quarantined_values = 0;  ///< implausible values in kept records
  std::int64_t quarantined_records = 0; ///< records rejected wholesale
  std::int64_t values_imputed = 0;
  std::int64_t records_synthesized = 0; ///< wholly-missing records filled
  int days_missing = 0;                 ///< days with zero arrivals
};

struct IngestResult {
  data::CellularDataset clean;
  IngestReport report;
  /// Per-KPI-column fleet health, one series per column, day-indexed.
  std::vector<HealthSeries> kpi_health;
  /// Per-eNodeB health across its columns, one series per profile.
  std::vector<HealthSeries> enb_health;

  /// Days a column spent in OUTAGE.
  int outage_days(int column) const;
};

/// Runs the pipeline.  `like` supplies the schema, fleet, day count, and
/// name — its KPI *values* are never read, so any stream (clean, faulted,
/// or real) can be ingested against the same fleet description.
/// `events` is an optional structured event sink (leaf::obs): health-FSM
/// transitions and per-day quarantine aggregates are recorded there.
/// Single-writer; may be null.
IngestResult ingest_stream(const data::CellularDataset& like,
                           std::vector<TelemetryRecord> stream,
                           obs::EventLog* events = nullptr);

}  // namespace leaf::ingest
