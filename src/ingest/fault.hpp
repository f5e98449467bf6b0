// Seeded telemetry fault injector.
//
// Production KPI collection is never as clean as the study datasets: the
// paper itself lives through a six-month PU data-loss window (Jul 2019 –
// Jan 2020), and operational telemetry additionally exhibits per-site
// export failures, counter wrap/overflow spikes, stuck-at-zero counters
// after eNodeB reboots, duplicated deliveries, and late (out-of-order)
// arrivals.  `inject_faults` turns a clean `CellularDataset` into the
// *record stream* such a collection pipeline would deliver, perturbed by
// each of those failure modes at configurable rates.
//
// Every fault decision is keyed on (seed, day, enb) through SplitMix64, so
// the same `FaultSpec` always produces bit-identical streams regardless of
// evaluation order — the property the robustness bench and the ingest
// tests rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace leaf::ingest {

/// One raw telemetry record: a single eNodeB's KPI vector for one day, as
/// delivered (possibly late, duplicated, or corrupted) by the collector.
struct TelemetryRecord {
  int day = 0;        ///< study day the record describes
  int enb_index = 0;  ///< profile index into dataset().profiles()
  std::vector<float> kpis;
};

/// Rates and shapes of the injected failure modes.  All rates are
/// probabilities in [0, 1]; 0 disables the mode.
struct FaultSpec {
  /// Whole-day collection loss: every record of an affected day vanishes.
  double day_drop_rate = 0.0;
  /// Per-record loss (one eNodeB's export fails for one day).
  double enb_drop_rate = 0.0;
  /// Per-record NaN corruption: a random subset of KPI columns becomes NaN.
  double nan_rate = 0.0;
  /// Per-record spike corruption: a random subset of columns is multiplied
  /// by 50 (counter wrap / unit bug).
  double spike_rate = 0.0;
  /// Stuck-at-zero runs: decided per (enb, block of 10 days), so affected
  /// counters read zero for a contiguous run of days.
  double stuck_zero_rate = 0.0;
  /// Per-record duplicated delivery (the copy also arrives displaced).
  double duplicate_rate = 0.0;
  /// Per-record late delivery: the record is displaced up to 5 days of
  /// records forward in the stream.
  double shuffle_rate = 0.0;

  /// Declared sensor outage mirroring the paper's PU loss window: column
  /// `outage_column` reads NaN for every eNodeB on days in
  /// [outage_start, outage_end].  -1 disables.
  int outage_column = -1;
  int outage_start = -1;
  int outage_end = -1;

  std::uint64_t seed = 1234;

  /// Convenience preset used by the robustness sweep: record dropout and
  /// NaN corruption at `rate`, spikes/stuck/duplicates/late delivery at
  /// half of it.
  static FaultSpec at_rate(double rate, std::uint64_t seed = 1234);
};

/// Applies `spec` to the dataset's record stream.  Deterministic in
/// `spec.seed`; the clean dataset is not modified.
std::vector<TelemetryRecord> inject_faults(const data::CellularDataset& ds,
                                           const FaultSpec& spec);

/// Rebuilds a day-major dataset from a record stream *without any
/// validation* — the behaviour of a pipeline with no ingest layer (late
/// records re-slotted by claimed day, duplicates kept first, corrupt
/// values passed through).  The "unguarded" arm of the robustness bench.
data::CellularDataset rebuild_unvalidated(const data::CellularDataset& like,
                                          std::vector<TelemetryRecord> stream);

}  // namespace leaf::ingest
