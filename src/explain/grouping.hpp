// Correlation-based feature grouping — step two of LEAF's explainer
// (§4.2): "we group features by their correlations.  The grouping stops
// when the feature has no importance value.  Lastly, we choose the most
// representative (i.e., highest importance score) feature from each
// group."
//
// Greedy procedure: repeatedly take the highest-importance not-yet-grouped
// feature as a new group's representative and absorb every ungrouped
// feature whose |Pearson correlation| with it reaches 0.7, estimated on at
// most 4000 evenly strided rows.
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

/// Groups the columns of X.  `importance` must have X.cols() entries.
/// Groups come out ordered by descending representative importance.
/// Grouping stops after `max_groups` groups (the paper evaluates 1, 3 and
/// 5); <= 0 means unlimited.
std::vector<FeatureGroup> group_features(const Matrix& X,
                                         std::span<const double> importance,
                                         int max_groups = 0);

}  // namespace leaf::explain
