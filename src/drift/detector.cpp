#include "drift/detector.hpp"

#include <cmath>

namespace leaf::drift {

namespace {

/// EWMA adaptation rate and flagging width.  The slow rate makes a
/// sustained level shift produce a sustained run of binarized errors,
/// which is what DDM's cumulative error-rate test needs to fire.
constexpr double kAlpha = 0.005;
constexpr double kWidth = 2.0;

}  // namespace

bool EwmaBinarizer::push(double value) {
  if (!primed_) {
    primed_ = true;
    mean_ = value;
    var_ = 0.0;
    return false;
  }
  const double deviation = value - mean_;
  const bool flagged = deviation > kWidth * std::sqrt(var_) && var_ > 0.0;
  // Update after testing so a spike doesn't mask itself.
  mean_ += kAlpha * deviation;
  var_ = (1.0 - kAlpha) * (var_ + kAlpha * deviation * deviation);
  return flagged;
}

void EwmaBinarizer::reset() {
  primed_ = false;
  mean_ = 0.0;
  var_ = 0.0;
}

}  // namespace leaf::drift
