#include "core/breaker.hpp"

#include <algorithm>

namespace leaf::core {

const char* RetrainBreaker::state_name() const {
  switch (state_) {
    case State::kClosed: return "closed";
    case State::kOpen: return "open";
    case State::kHalfOpen: return "half_open";
  }
  return "?";
}

void RetrainBreaker::prune(int day) {
  // Keep requests with day' > day - window_days (a window of exactly
  // `window_days` days ending at `day`).
  const auto keep_from = std::lower_bound(window_.begin(), window_.end(),
                                          day - cfg_.window_days + 1);
  window_.erase(window_.begin(), keep_from);
}

bool RetrainBreaker::allow(int day) {
  if (!cfg_.enabled()) return true;
  prune(day);
  if (state_ == State::kOpen) {
    if (day < open_until_) {
      ++suppressed_;
      return false;
    }
    // Cooldown over: let one probe retrain through.
    state_ = State::kHalfOpen;
    window_.clear();
  }
  if (static_cast<int>(window_.size()) >= cfg_.max_retrains) {
    state_ = State::kOpen;
    open_until_ = day + cfg_.cooldown_days;
    ++trips_;
    ++suppressed_;
    return false;
  }
  window_.push_back(day);
  if (state_ == State::kHalfOpen) state_ = State::kClosed;
  return true;
}

void RetrainBreaker::save_state(io::Serializer& out) const {
  out.put_i32(cfg_.max_retrains);
  out.put_i32(cfg_.window_days);
  out.put_i32(cfg_.cooldown_days);
  out.put_u8(static_cast<std::uint8_t>(state_));
  out.put_ints(window_);
  out.put_i32(open_until_);
  out.put_i32(trips_);
  out.put_i32(suppressed_);
}

void RetrainBreaker::load_state(io::Deserializer& in) {
  const int max_retrains = in.get_i32();
  const int window_days = in.get_i32();
  const int cooldown_days = in.get_i32();
  if (max_retrains != cfg_.max_retrains || window_days != cfg_.window_days ||
      cooldown_days != cfg_.cooldown_days)
    throw io::SnapshotError("breaker config mismatch between snapshot and "
                            "runtime");
  const std::uint8_t state = in.get_u8();
  if (state > static_cast<std::uint8_t>(State::kHalfOpen))
    throw io::SnapshotError("breaker: unknown state " +
                            std::to_string(static_cast<int>(state)));
  std::vector<int> window = in.get_ints();
  if (!std::is_sorted(window.begin(), window.end()))
    throw io::SnapshotError("breaker: retrain window not sorted");
  state_ = static_cast<State>(state);
  window_ = std::move(window);
  open_until_ = in.get_i32();
  trips_ = in.get_i32();
  suppressed_ = in.get_i32();
}

}  // namespace leaf::core
