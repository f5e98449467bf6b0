#include "obs/slo.hpp"

#include <cmath>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/spec.hpp"
#include "obs/metrics.hpp"

namespace leaf::obs {

namespace {

double parse_rate(const std::string& key, const std::string& value,
                  double max_value) {
  return spec::real_in("slo", key, value, 0.0, max_value);
}

int parse_int(const std::string& key, const std::string& value, int min_value) {
  return static_cast<int>(spec::uint_in("slo", key, value, min_value, 1000000));
}

}  // namespace

bool SloSpec::any() const {
  return deadline_miss != kDisabled || shed != kDisabled ||
         quarantine != kDisabled || nrmse_regression != kDisabled ||
         telemetry_drift != kDisabled;
}

SloSpec SloSpec::parse(const std::string& text) {
  SloSpec out;
  for (const auto& [key, value] : spec::split(text, "slo")) {
    if (key == "window") {
      out.window = parse_int(key, value, 1);
    } else if (key == "deadline-miss") {
      out.deadline_miss = parse_rate(key, value, 1.0);
    } else if (key == "shed") {
      out.shed = parse_rate(key, value, 1.0);
    } else if (key == "quarantine") {
      out.quarantine = parse_rate(key, value, 1.0);
    } else if (key == "nrmse-regression") {
      out.nrmse_regression = parse_rate(key, value, 1e9);
    } else if (key == "nrmse-baseline") {
      out.nrmse_baseline = parse_rate(key, value, 1e9);
    } else if (key == "telemetry-drift") {
      out.telemetry_drift = parse_int(key, value, 1);
    } else if (key == "warn") {
      out.warn_fraction = parse_rate(key, value, 1.0);
    } else if (key == "recover") {
      out.recover_ticks = parse_int(key, value, 1);
    } else {
      throw std::invalid_argument("slo: unknown key '" + key + "'");
    }
  }
  return out;
}

std::string SloSpec::to_string() const {
  std::string out = "window=" + std::to_string(window);
  if (deadline_miss != kDisabled) out += ",deadline-miss=" + fmt(deadline_miss);
  if (shed != kDisabled) out += ",shed=" + fmt(shed);
  if (quarantine != kDisabled) out += ",quarantine=" + fmt(quarantine);
  if (nrmse_regression != kDisabled)
    out += ",nrmse-regression=" + fmt(nrmse_regression);
  if (std::isfinite(nrmse_baseline))
    out += ",nrmse-baseline=" + fmt(nrmse_baseline);
  if (telemetry_drift != kDisabled)
    out += ",telemetry-drift=" + fmt(telemetry_drift);
  out += ",warn=" + fmt(warn_fraction);
  out += ",recover=" + std::to_string(recover_ticks);
  return out;
}

const char* to_string(SloWatchdog::State s) {
  switch (s) {
    case SloWatchdog::State::kOk: return "ok";
    case SloWatchdog::State::kWarning: return "warning";
    case SloWatchdog::State::kCritical: return "critical";
  }
  return "?";
}

SloWatchdog::SloWatchdog(SloSpec spec)
    : spec_(std::move(spec)), baseline_nrmse_(spec_.nrmse_baseline) {}

SloWatchdog::Burn SloWatchdog::burn() const {
  Burn b;
  std::uint64_t requests = 0, misses = 0, sheds = 0, retries = 0;
  std::uint64_t shards = 0, quarantined = 0, drift = 0;
  double nrmse = std::numeric_limits<double>::quiet_NaN();
  for (const SloSample& s : window_) {
    requests += s.requests;
    misses += s.deadline_misses;
    sheds += s.sheds;
    retries += s.retries;
    shards = s.shards;
    quarantined = s.quarantined;
    if (s.telemetry_drift > drift) drift = s.telemetry_drift;  // window max
    if (std::isfinite(s.nrmse)) nrmse = s.nrmse;  // newest finite wins
  }
  const double answered = static_cast<double>(requests > 0 ? requests : 1);
  b.deadline_miss = static_cast<double>(misses) / answered;
  b.shed = static_cast<double>(sheds + retries) / answered;
  b.quarantine = shards == 0 ? 0.0
                             : static_cast<double>(quarantined) /
                                   static_cast<double>(shards);
  b.telemetry_drift = static_cast<double>(drift);
  if (std::isfinite(nrmse) && std::isfinite(baseline_nrmse_) &&
      baseline_nrmse_ > 0.0) {
    b.nrmse_regression = (nrmse - baseline_nrmse_) / baseline_nrmse_;
    if (b.nrmse_regression < 0.0) b.nrmse_regression = 0.0;
  }
  return b;
}

SloWatchdog::State SloWatchdog::observe(const SloSample& sample, int day) {
  ++ticks_;
  if (!std::isfinite(baseline_nrmse_) && std::isfinite(sample.nrmse))
    baseline_nrmse_ = sample.nrmse;  // pin the first observation
  window_.push_back(sample);
  while (window_.size() > static_cast<std::size_t>(spec_.window))
    window_.pop_front();

  const Burn b = burn();
  struct Signal {
    const char* name;
    double rate;
    double threshold;
  };
  const Signal signals[] = {
      {"deadline-miss", b.deadline_miss, spec_.deadline_miss},
      {"shed", b.shed, spec_.shed},
      {"quarantine", b.quarantine, spec_.quarantine},
      {"nrmse-regression", b.nrmse_regression, spec_.nrmse_regression},
      {"telemetry-drift", b.telemetry_drift, spec_.telemetry_drift},
  };
  State target = State::kOk;
  const Signal* worst = nullptr;
  double worst_ratio = 0.0;
  for (const Signal& s : signals) {
    if (s.threshold == SloSpec::kDisabled || s.threshold <= 0.0) continue;
    const double ratio = s.rate / s.threshold;
    State level = State::kOk;
    if (s.rate >= s.threshold)
      level = State::kCritical;
    else if (s.rate >= spec_.warn_fraction * s.threshold)
      level = State::kWarning;
    if (level > target || (level == target && ratio > worst_ratio)) {
      if (level != State::kOk) {
        worst = &s;
        worst_ratio = ratio;
      }
      if (level > target) target = level;
    }
  }

  const auto transition_to = [&](State next) {
    state_ = next;
    Event e;
    e.day = day;
    e.shard = -1;
    if (next == State::kOk) {
      e.kind = EventKind::kSloRecovered;
      e.detail = "window=" + std::to_string(spec_.window);
    } else {
      e.kind = next == State::kCritical ? EventKind::kSloBurnCritical
                                        : EventKind::kSloBurnWarning;
      e.detail = std::string("signal=") + (worst ? worst->name : "?") +
                 ",rate=" + fmt(worst ? worst->rate : 0.0) +
                 ",threshold=" + fmt(worst ? worst->threshold : 0.0) +
                 ",window=" + std::to_string(spec_.window);
    }
    events_.emit(std::move(e));
  };

  if (target >= state_) {
    if (target > state_) transition_to(target);
    ok_streak_ = 0;
  } else {
    // Stepping down needs `recover` consecutive ticks at the lower level,
    // so a flapping burn rate cannot strobe recovered/critical events.
    ++ok_streak_;
    if (ok_streak_ >= spec_.recover_ticks) {
      transition_to(target);
      ok_streak_ = 0;
    }
  }

  static Gauge& state_gauge =
      MetricsRegistry::global().gauge("leaf_slo_state");
  state_gauge.set(static_cast<double>(static_cast<int>(state_)));
  return state_;
}

}  // namespace leaf::obs
