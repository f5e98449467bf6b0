#include "ingest/health.hpp"

namespace leaf::ingest {

namespace {

/// Valid-data fraction below which a day counts as degraded.
constexpr double kDegradedBelow = 0.8;
/// Valid-data fraction below which a day counts as an outage.
constexpr double kOutageBelow = 0.35;
/// Consecutive bad days required to enter DEGRADED / OUTAGE.
constexpr int kDegradeDays = 2;
/// Consecutive good days required to leave RECOVERING (and DEGRADED).
constexpr int kRecoverDays = 3;

}  // namespace

std::string to_string(HealthState s) {
  switch (s) {
    case HealthState::kOk: return "OK";
    case HealthState::kDegraded: return "DEGRADED";
    case HealthState::kOutage: return "OUTAGE";
    case HealthState::kRecovering: return "RECOVERING";
  }
  return "?";
}

HealthState HealthTracker::step(double valid_fraction) {
  const bool bad = valid_fraction < kDegradedBelow;
  const bool verybad = valid_fraction < kOutageBelow;
  bad_streak_ = bad ? bad_streak_ + 1 : 0;
  verybad_streak_ = verybad ? verybad_streak_ + 1 : 0;
  good_streak_ = bad ? 0 : good_streak_ + 1;

  switch (state_) {
    case HealthState::kOk:
      if (verybad_streak_ >= kDegradeDays) state_ = HealthState::kOutage;
      else if (bad_streak_ >= kDegradeDays) state_ = HealthState::kDegraded;
      break;
    case HealthState::kDegraded:
      if (verybad_streak_ >= kDegradeDays) state_ = HealthState::kOutage;
      else if (good_streak_ >= kRecoverDays) state_ = HealthState::kOk;
      break;
    case HealthState::kOutage:
      // Any day that is no longer in outage territory starts recovery;
      // hysteresis happens in RECOVERING (relapse on one very-bad day).
      if (!verybad) state_ = HealthState::kRecovering;
      break;
    case HealthState::kRecovering:
      if (verybad) state_ = HealthState::kOutage;
      else if (good_streak_ >= kRecoverDays) state_ = HealthState::kOk;
      break;
  }
  return state_;
}

}  // namespace leaf::ingest
