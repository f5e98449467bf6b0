#include "drift/kswin.hpp"

#include <cassert>
#include <cmath>
#include <vector>

#include "common/stats.hpp"

namespace leaf::drift {

Kswin::Kswin(KswinConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  assert(cfg_.stat_size > 1);
  assert(cfg_.window_size >= 2 * cfg_.stat_size);
  assert(cfg_.alpha > 0.0 && cfg_.alpha < 1.0);
}

bool Kswin::update(double value) {
  static DetectorCounters ctrs("KSWIN");
  ctrs.updates.inc();
  // Dirty telemetry guard: a NaN/Inf error value would contaminate the KS
  // window for `window_size` subsequent steps; drop it at the door.
  if (!std::isfinite(value)) return false;
  window_.push_back(value);
  if (static_cast<int>(window_.size()) > cfg_.window_size)
    window_.pop_front();
  if (static_cast<int>(window_.size()) < cfg_.window_size) return false;

  const std::size_t r = static_cast<std::size_t>(cfg_.stat_size);
  const std::size_t older = window_.size() - r;

  // Recent slice: the last r values.
  std::vector<double> recent(window_.end() - static_cast<std::ptrdiff_t>(r),
                             window_.end());
  // Reference: r values sampled uniformly from the older portion.
  std::vector<double> reference;
  reference.reserve(r);
  for (std::size_t idx : rng_.sample_without_replacement(older, r))
    reference.push_back(window_[idx]);

  last_p_ = stats::ks_p_value(reference, recent);
  if (last_p_ < cfg_.alpha) {
    // Keep only the new concept's samples.
    window_.erase(window_.begin(),
                  window_.end() - static_cast<std::ptrdiff_t>(r));
    ctrs.firings.inc();
    return true;
  }
  return false;
}

void Kswin::reset() {
  window_.clear();
  last_p_ = 1.0;
  rng_ = Rng(cfg_.seed);
}

void Kswin::save_state(io::Serializer& out) const {
  out.put_i32(cfg_.window_size);
  out.put_i32(cfg_.stat_size);
  out.put_f64(cfg_.alpha);
  out.put_u64(cfg_.seed);
  io::write(out, rng_);
  std::vector<double> window(window_.begin(), window_.end());
  out.put_doubles(window);
  out.put_f64(last_p_);
}

void Kswin::load_state(io::Deserializer& in) {
  KswinConfig saved;
  saved.window_size = in.get_i32();
  saved.stat_size = in.get_i32();
  saved.alpha = in.get_f64();
  saved.seed = in.get_u64();
  if (saved.window_size != cfg_.window_size ||
      saved.stat_size != cfg_.stat_size || saved.alpha != cfg_.alpha ||
      saved.seed != cfg_.seed)
    throw io::SnapshotError(
        "KSWIN configuration mismatch between snapshot and detector");
  Rng rng(cfg_.seed);
  io::read_rng(in, rng);
  const std::vector<double> window = in.get_doubles();
  const double last_p = in.get_f64();
  if (window.size() > static_cast<std::size_t>(cfg_.window_size))
    throw io::SnapshotError("KSWIN window larger than configured size");
  rng_ = rng;
  window_.assign(window.begin(), window.end());
  last_p_ = last_p;
}

}  // namespace leaf::drift
