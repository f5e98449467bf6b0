#include "tsdb/meta_drift.hpp"

#include <cmath>

#include "common/fnv.hpp"

namespace leaf::tsdb {

namespace {

/// KSWIN tuning for telemetry streams: smaller windows than the model
/// detectors, because serving incidents play out over tens of ticks, not
/// hundreds of evaluation days.
constexpr drift::KswinConfig kKswin{/*window_size=*/24, /*stat_size=*/8,
                                    /*alpha=*/0.01, /*seed=*/71};

}  // namespace

drift::Kswin MetaDrift::make_detector(const std::string& rule) {
  // Derive the rule's KSWIN seed from its name so every rule draws an
  // independent — but run-to-run stable — sample stream.
  drift::KswinConfig kcfg = kKswin;
  kcfg.seed ^= fnv1a(rule.data(), rule.size());
  return drift::Kswin(kcfg);
}

bool MetaDrift::observe(const std::string& rule, int shard,
                        std::uint64_t tick, double value) {
  if (!std::isfinite(value)) return false;
  auto it = rules_.find(rule);
  if (it == rules_.end()) {
    Rule r{.shard = shard, .detector = make_detector(rule)};
    it = rules_.emplace(rule, std::move(r)).first;
  }
  Rule& r = it->second;
  if (!r.detector.update(value)) return false;
  r.fired_at = tick;
  r.ever_fired = true;
  ++firings_;
  obs::Event e;
  e.kind = obs::EventKind::kTelemetryDrift;
  e.shard = shard;
  e.detail = "rule=" + rule + ",tick=" + std::to_string(tick) +
             ",detector=" + r.detector.name();
  events_.emit(std::move(e));
  return true;
}

int MetaDrift::state(std::uint64_t tick) const {
  int active = 0;
  for (const auto& [name, r] : rules_)
    if (r.ever_fired && tick - r.fired_at < kHoldTicks) ++active;
  return active;
}

void MetaDrift::save(io::Serializer& out) const {
  out.put_u64(firings_);
  out.put_u64(rules_.size());
  for (const auto& [name, r] : rules_) {
    out.put_string(name);
    out.put_i32(r.shard);
    out.put_u64(r.fired_at);
    out.put_bool(r.ever_fired);
    r.detector.save_state(out);
  }
  events_.save(out);
}

void MetaDrift::load(io::Deserializer& in) {
  const std::uint64_t firings = in.get_u64();
  // name + shard + fired_at + flag, minimum footprint per rule.
  const std::uint64_t n = in.get_count(4 + 4 + 8 + 1);
  std::map<std::string, Rule> rules;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = in.get_string();
    Rule r;
    r.shard = in.get_i32();
    r.fired_at = in.get_u64();
    r.ever_fired = in.get_bool();
    r.detector = make_detector(name);
    r.detector.load_state(in);
    rules.emplace(std::move(name), std::move(r));
  }
  obs::EventLog events;
  events.load(in);
  rules_ = std::move(rules);
  events_ = std::move(events);
  firings_ = firings;
}

void MetaDrift::clear() {
  rules_.clear();
  firings_ = 0;
  events_.clear();
}

}  // namespace leaf::tsdb
