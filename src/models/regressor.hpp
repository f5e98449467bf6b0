// Black-box regressor interface.
//
// LEAF is model-agnostic: it "does not require the use of any specific
// model nor internal access to the employed model" (§4.1) — it only fits
// models, asks for predictions, and inspects errors.  Every model family
// in the paper's study (boosting, bagging, distance-based, recurrent)
// implements this interface; sample weights are accepted everywhere so
// the mitigator's over-sampling can alternatively be expressed as
// re-weighting.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "models/column_sweep.hpp"
#include "models/tree.hpp"

namespace leaf::models {

/// Retrain-scoped caches a training loop may install on a model before
/// fit() and keep alive across successive refits of fresh clones (see
/// core::Evaluation, which owns them).  Models that cannot use a given
/// cache ignore it.
struct FitCaches {
  BinEdgeCache bin_edges;  ///< used by the histogram models (GBDT, forests)
};

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fits on rows of X with targets y.  `w` may be empty (uniform) or hold
  /// one non-negative weight per row.  Refitting discards previous state.
  virtual void fit(const Matrix& X, std::span<const double> y,
                   std::span<const double> w = {}) = 0;

  /// Predicts a single feature vector.  Only valid after fit().
  virtual double predict_one(std::span<const double> x) const = 0;

  /// Batch prediction into a caller-provided buffer (out.size() must equal
  /// X.rows()) — the allocation-free path the evaluation and importance
  /// loops hammer.  The default parallelizes rows over leaf::par, which is
  /// safe because every predict_one in this repository is const and
  /// touches no shared mutable state; an override that cannot guarantee
  /// that must run serially.
  virtual void predict_into(const Matrix& X, std::span<double> out) const;

  /// Batch prediction; allocates and delegates to predict_into.
  std::vector<double> predict(const Matrix& X) const;

  /// A sweep over the columns of X (see ColumnSweep); X and this model
  /// must outlive it.  The default predicts X once for base(), and
  /// answers each call by writing the values into its own copy of X,
  /// calling predict_into on the copy and restoring the column.  Tree
  /// ensembles override it to re-walk only the paths that test the column.
  virtual std::unique_ptr<ColumnSweep> column_sweep(const Matrix& X) const;

  /// Installs retrain-scoped caches (may be null to detach).  The pointee
  /// must outlive every subsequent fit().  Default: ignored.  Cloning via
  /// clone_untrained never carries the attachment — the owning loop
  /// re-attaches after each clone.
  virtual void attach_caches(FitCaches* caches) { (void)caches; }

  /// Fresh untrained copy with identical hyperparameters (used for every
  /// retrain so schemes never warm-start accidentally).
  virtual std::unique_ptr<Regressor> clone_untrained() const = 0;

  /// Display name, e.g. "GBDT" or "KNeighbors".
  virtual std::string name() const = 0;

  virtual bool trained() const = 0;

  /// Stable factory key identifying the concrete family in snapshots
  /// ("gbdt", "forest", ...).  Families that have not implemented
  /// persistence keep the throwing default — snapshotting them fails
  /// loudly instead of silently dropping state.
  virtual std::string serial_key() const;

  /// Serializes the full fitted state (hyperparameters included) so that
  /// io::load_regressor(serial_key(), ...) reconstructs a model with
  /// bit-identical predictions.  Default: throws io::SnapshotError.
  virtual void save(io::Serializer& out) const;
};

/// Validates fit() inputs; asserts in debug builds, returns false on
/// violation in release builds so models can bail out uniformly.
bool check_fit_args(const Matrix& X, std::span<const double> y,
                    std::span<const double> w);

}  // namespace leaf::models
