#include "explain/grouping.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/stats.hpp"

namespace leaf::explain {

namespace {

/// Features with importance <= this never found a group ("the grouping
/// stops when the feature has no importance value").
constexpr double kMinImportance = 0.0;

/// A feature joins a group when its |Pearson correlation| with the
/// group's representative reaches this.
constexpr double kCorrThreshold = 0.7;

/// Correlations are estimated on at most this many rows.
constexpr std::size_t kMaxRows = 4000;

}  // namespace

std::vector<FeatureGroup> group_features(const Matrix& X,
                                         std::span<const double> importance,
                                         int max_groups) {
  const std::size_t k = X.cols();
  std::vector<FeatureGroup> groups;
  if (k == 0 || importance.size() != k) return groups;

  // Row subsample (deterministic stride) for correlation estimation.
  const std::size_t n = X.rows();
  const std::size_t stride =
      n > kMaxRows ? (n + kMaxRows - 1) / kMaxRows : 1;
  std::vector<std::vector<double>> cols(k);
  for (std::size_t c = 0; c < k; ++c) {
    auto& col = cols[c];
    col.reserve(n / stride + 1);
    for (std::size_t r = 0; r < n; r += stride) col.push_back(X(r, c));
  }

  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return importance[a] > importance[b];
  });

  std::vector<bool> grouped(k, false);
  for (std::size_t oi = 0; oi < k; ++oi) {
    const std::size_t rep = order[oi];
    if (grouped[rep]) continue;
    if (importance[rep] <= kMinImportance) break;  // no signal left
    if (max_groups > 0 && static_cast<int>(groups.size()) >= max_groups)
      break;

    FeatureGroup g;
    g.representative = static_cast<int>(rep);
    g.importance = importance[rep];
    g.members.push_back(static_cast<int>(rep));
    grouped[rep] = true;

    for (std::size_t c = 0; c < k; ++c) {
      if (grouped[c]) continue;
      const double corr = stats::pearson(cols[rep], cols[c]);
      if (std::abs(corr) >= kCorrThreshold) {
        g.members.push_back(static_cast<int>(c));
        grouped[c] = true;
      }
    }
    groups.push_back(std::move(g));
  }
  return groups;
}

}  // namespace leaf::explain
