#include "ingest/health.hpp"

namespace leaf::ingest {

std::string to_string(HealthState s) {
  switch (s) {
    case HealthState::kOk: return "OK";
    case HealthState::kDegraded: return "DEGRADED";
    case HealthState::kOutage: return "OUTAGE";
    case HealthState::kRecovering: return "RECOVERING";
  }
  return "?";
}

HealthTracker::HealthTracker(HealthConfig cfg) : cfg_(cfg) {}

HealthState HealthTracker::step(double valid_fraction) {
  const bool bad = valid_fraction < cfg_.degraded_below;
  const bool verybad = valid_fraction < cfg_.outage_below;
  bad_streak_ = bad ? bad_streak_ + 1 : 0;
  verybad_streak_ = verybad ? verybad_streak_ + 1 : 0;
  good_streak_ = bad ? 0 : good_streak_ + 1;

  switch (state_) {
    case HealthState::kOk:
      if (verybad_streak_ >= cfg_.degrade_days) state_ = HealthState::kOutage;
      else if (bad_streak_ >= cfg_.degrade_days) state_ = HealthState::kDegraded;
      break;
    case HealthState::kDegraded:
      if (verybad_streak_ >= cfg_.degrade_days) state_ = HealthState::kOutage;
      else if (good_streak_ >= cfg_.recover_days) state_ = HealthState::kOk;
      break;
    case HealthState::kOutage:
      // Any day that is no longer in outage territory starts recovery;
      // hysteresis happens in RECOVERING (relapse on one very-bad day).
      if (!verybad) state_ = HealthState::kRecovering;
      break;
    case HealthState::kRecovering:
      if (verybad) state_ = HealthState::kOutage;
      else if (good_streak_ >= cfg_.recover_days) state_ = HealthState::kOk;
      break;
  }
  return state_;
}

}  // namespace leaf::ingest
