// Drift detector interface.
//
// LEAF's detector "ingests the outputs of the in-use model in the form of
// NRMSE time-series to determine whether drift is occurring" (§4.1).  A
// detector consumes one scalar per evaluation step and flags the steps at
// which the error distribution has changed.  KSWIN is the paper's choice;
// ADWIN, DDM, EDDM, HDDM-A and Page-Hinkley are the alternatives its
// footnote 2 reports testing, all implemented here for the Appendix-B
// comparison bench.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace leaf::drift {

/// Update/firing counter pair for one detector family
/// (`leaf_detector_updates_total` / `leaf_detector_firings_total` with a
/// `detector="..."` label).  Implementations hoist one as a static local
/// in update(), so the registry lookup happens once per family.
struct DetectorCounters {
  obs::Counter& updates;
  obs::Counter& firings;
  explicit DetectorCounters(const char* detector)
      : updates(obs::MetricsRegistry::global().counter(
            "leaf_detector_updates_total", obs::label("detector", detector))),
        firings(obs::MetricsRegistry::global().counter(
            "leaf_detector_firings_total", obs::label("detector", detector))) {}
};

class DriftDetector {
 public:
  virtual ~DriftDetector() = default;

  /// Feeds the next value of the monitored series (for LEAF: the NRMSE of
  /// the in-use model at the current evaluation step).  Returns true when
  /// drift is signalled at this step.  Detectors re-arm themselves after
  /// signalling (internal state resets as appropriate).
  virtual bool update(double value) = 0;

  /// Full reset to the just-constructed state.
  virtual void reset() = 0;

  virtual std::string name() const = 0;
};

/// Adaptive binarizer used to feed the Bernoulli-stream detectors
/// (DDM / EDDM) a continuous error series: emits 1 when the value exceeds
/// an exponentially-weighted mean (rate 0.005) by two exponentially-
/// weighted standard deviations.  Exposed for tests.
class EwmaBinarizer {
 public:
  bool push(double value);
  void reset();

 private:
  bool primed_ = false;
  double mean_ = 0.0;
  double var_ = 0.0;
};

}  // namespace leaf::drift
