// Correlation-based feature grouping — step two of LEAF's explainer
// (§4.2): "we group features by their correlations.  The grouping stops
// when the feature has no importance value.  Lastly, we choose the most
// representative (i.e., highest importance score) feature from each
// group."
//
// Greedy procedure: repeatedly take the highest-importance not-yet-grouped
// feature as a new group's representative and absorb every ungrouped
// feature whose |Pearson correlation| with it exceeds the threshold.
#pragma once

#include <span>
#include <vector>

#include "common/matrix.hpp"

namespace leaf::explain {

struct FeatureGroup {
  int representative = -1;     ///< column index of the group's anchor
  double importance = 0.0;     ///< the representative's importance score
  std::vector<int> members;    ///< includes the representative
};

struct GroupingConfig {
  double corr_threshold = 0.7;
  /// Stop after this many groups (the paper evaluates 1, 3, and 5 groups);
  /// <= 0 means unlimited.
  int max_groups = 0;
  /// Correlations are estimated on at most this many rows.
  std::size_t max_rows = 4000;
};

/// Groups the columns of X.  `importance` must have X.cols() entries.
/// Groups come out ordered by descending representative importance.
std::vector<FeatureGroup> group_features(const Matrix& X,
                                         std::span<const double> importance,
                                         const GroupingConfig& cfg = {});

}  // namespace leaf::explain
