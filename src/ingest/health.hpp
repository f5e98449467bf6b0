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
//            frac < degraded_below              frac < outage_below
//      OK ──────────────────────▶ DEGRADED ──────────────────────▶ OUTAGE
//       ▲                            │ ▲                             │
//       │ recover_days good days     │ └──────── relapse ────────────┤
//       │                            ▼                               ▼
//      RECOVERING ◀──────────────────┴──────── frac recovers ── RECOVERING
//
// Entry into DEGRADED/OUTAGE requires `degrade_days` consecutive bad days
// and exit requires `recover_days` consecutive good days (hysteresis), so
// single-day blips neither trip nor clear a state.
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

struct HealthConfig {
  /// Valid-data fraction below which a day counts as degraded.
  double degraded_below = 0.8;
  /// Valid-data fraction below which a day counts as an outage.
  double outage_below = 0.35;
  /// Consecutive bad days required to enter DEGRADED / OUTAGE.
  int degrade_days = 2;
  /// Consecutive good days required to leave RECOVERING (and DEGRADED).
  int recover_days = 3;
};

class HealthTracker {
 public:
  explicit HealthTracker(HealthConfig cfg = {});

  /// Feeds one day's valid-data fraction in [0, 1]; returns the state
  /// *after* the transition.
  HealthState step(double valid_fraction);
  HealthState state() const { return state_; }

 private:
  HealthConfig cfg_;
  HealthState state_ = HealthState::kOk;
  int bad_streak_ = 0;      ///< consecutive days below degraded_below
  int verybad_streak_ = 0;  ///< consecutive days below outage_below
  int good_streak_ = 0;     ///< consecutive days at/above degraded_below
};

/// Day-indexed health series (one state per study day).
using HealthSeries = std::vector<HealthState>;

}  // namespace leaf::ingest
