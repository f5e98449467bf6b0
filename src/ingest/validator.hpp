// Record validation, quarantine, and imputation for telemetry ingest.
//
// The validator owns per-KPI plausibility bounds (learned from a reference
// slice of the stream with robust quantiles plus headroom) and decides,
// value by value, whether a delivered KPI is usable.  Implausible values —
// NaN/Inf, negative counters, wrap-around spikes — are *quarantined* and
// imputed; records with too many quarantined columns are rejected wholesale
// and treated as missing.
//
// Imputation carries forward the eNodeB's last good value, but only while
// it is fresher than `kStalenessCapDays` (a stale carry is worse than an
// honest gap).  Without a fresh carry it falls back to the median of the
// same KPI across the eNodeBs that did report today (at least three), then
// to the KPI's fleet running median, so a partially-corrupt record can
// always be completed; wholly-missing records are only synthesized while
// carry-forward is fresh.
#pragma once

#include <vector>

#include "data/kpi.hpp"

namespace leaf::ingest {

/// Carry-forward refuses values older than this many days.
inline constexpr int kStalenessCapDays = 7;

/// Per-column [lo, hi] plausibility bounds.
struct KpiBounds {
  std::vector<double> lo;
  std::vector<double> hi;

  bool fitted() const { return !lo.empty(); }
  /// Finite and inside [lo, hi] for the column.
  bool plausible(int column, double v) const;
};

/// Learns bounds from per-column samples (one vector per KPI column) using
/// robust quantiles + headroom.  Non-finite samples are ignored; columns
/// with no finite samples accept any finite value.
KpiBounds fit_bounds(const std::vector<std::vector<double>>& column_samples);

/// Stateful imputer: tracks each (eNodeB, column) last-good value and age,
/// the per-column fleet running median, and the per-day cross-section, and
/// produces replacement values from them.  Days must be fed in order.
class Imputer {
 public:
  Imputer(int num_enbs, int num_kpis);

  /// Starts a new day; `day` must increase between calls.
  void begin_day(int day);
  /// Registers a validated good value (also feeds the cross-section).
  void observe(int enb, int column, double v);
  /// Replacement value for a quarantined / missing (enb, column), or NaN
  /// when neither carry-forward nor a fallback can produce one.
  double impute(int enb, int column) const;
  /// True while carry-forward for (enb, column) is within the staleness
  /// cap — the gate for synthesizing wholly-missing records.
  bool carry_fresh(int enb, int column) const;

 private:
  double carry_forward(int enb, int column) const;
  double group_median(int column) const;

  std::size_t cell(int enb, int column) const {
    return static_cast<std::size_t>(enb) * static_cast<std::size_t>(num_kpis_) +
           static_cast<std::size_t>(column);
  }

  int num_enbs_;
  int num_kpis_;
  int day_ = -1;

  // Flat (enb * num_kpis + column) state.
  std::vector<float> last_val_;  ///< last good value
  std::vector<int> last_day_;    ///< day of the last good value (-1 = none)
  std::vector<std::vector<double>> today_;  ///< per-column day cross-section
  std::vector<float> fleet_median_;  ///< per-column frugal median estimate
  std::vector<bool> fleet_median_seen_;
};

}  // namespace leaf::ingest
