// Permutation-based feature importance (Breiman 2001) — step one of
// LEAF's explainer (§4.2): "we first rank features by permutation-based
// feature importance (i.e., sensitivity score to permutation)".
//
// The score of feature j is the increase in NRMSE when column j of the
// evaluation set is randomly permuted (breaking its relationship with the
// target while preserving its marginal distribution), averaged over
// `repeats` permutations.  Model-agnostic: only predictions are used,
// through the model's ColumnSweep (models/column_sweep.hpp).
//
// Cost: one sweep over the (subsampled) rows, then one sweep call per
// scored column and repeat.  The default sweep makes each call a full
// batch prediction.  A tree ensemble's sweep walks every (tree, row) pair
// once up front, then re-walks only the pairs whose path tests the
// column, from the first node that tests it, and re-sums only the rows
// whose leaf changed; it holds O(rows * (columns + trees * depth)) memory
// until the call returns.  Either way the scores are bit-identical.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "models/regressor.hpp"

namespace leaf::explain {

struct ImportanceConfig {
  int repeats = 3;
  /// Evaluation rows are subsampled to at most this many for speed (the
  /// permutation loop is O(rows * features * repeats) predictions).
  std::size_t max_rows = 2000;
  /// Only columns [0, scored_columns) are permuted; the rest score 0.
  std::size_t scored_columns = std::numeric_limits<std::size_t>::max();
};

/// Per-feature importance scores (same order as X's columns).  Scores are
/// NRMSE deltas: <= 0 means the feature carries no measurable signal.
/// Column c's score does not depend on cfg.scored_columns (as long as c
/// is scored).
std::vector<double> permutation_importance(const models::Regressor& model,
                                           const Matrix& X,
                                           std::span<const double> y,
                                           double norm_range, Rng& rng,
                                           const ImportanceConfig& cfg = {});

}  // namespace leaf::explain
