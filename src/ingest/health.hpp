// Per-KPI / per-eNodeB telemetry health state machine.
//
// Mirrors the paper's PU outage semantics (Table 2's "Data Lost" KPI,
// Jul 2019 – Jan 2020): when a KPI stops arriving, the *forecasting* layer
// must know that the gap is a collection failure, not a concept change —
// otherwise the drift detector reads the outage as drift and triggers
// retrains on fabricated data.  Each tracked entity (a KPI column across
// the fleet, or one eNodeB across its columns) runs this four-state
// machine over its daily valid-data fraction:
//
//            frac < 0.8                         frac < 0.35
//      OK ──────────────────────▶ DEGRADED ──────────────────────▶ OUTAGE
//       ▲                            │ ▲                             │
//       │ 3 good days                │ └──────── relapse ────────────┤
//       │                            ▼                               ▼
//      RECOVERING ◀──────────────────┴──────── frac recovers ── RECOVERING
//
// Entry into DEGRADED/OUTAGE requires 2 consecutive bad days and exit
// requires 3 consecutive good days (hysteresis), so single-day blips
// neither trip nor clear a state.  The thresholds are constants in
// health.cpp.
#pragma once

#include <string>
#include <vector>

namespace leaf::ingest {

enum class HealthState : std::uint8_t {
  kOk,
  kDegraded,
  kOutage,
  kRecovering,
};

std::string to_string(HealthState s);

class HealthTracker {
 public:
  /// Feeds one day's valid-data fraction in [0, 1]; returns the state
  /// *after* the transition.
  HealthState step(double valid_fraction);
  HealthState state() const { return state_; }

 private:
  HealthState state_ = HealthState::kOk;
  int bad_streak_ = 0;      ///< consecutive days below the degraded line
  int verybad_streak_ = 0;  ///< consecutive days below the outage line
  int good_streak_ = 0;     ///< consecutive days at/above the degraded line
};

/// Day-indexed health series (one state per study day).
using HealthSeries = std::vector<HealthState>;

}  // namespace leaf::ingest
