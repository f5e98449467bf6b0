// Unit tests for the histogram decision-tree grower (models/tree.hpp).
#include "models/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "tree_reference.hpp"

namespace leaf::models {
namespace {

using leaf::testing::grow_tree;
using leaf::testing::SavedTree;
using leaf::testing::tree_depth;
using leaf::testing::walk;

Matrix step_data(std::size_t n) {
  // x in [0,1); y = 1 for x >= 0.5 else 0.
  Matrix x(n, 1);
  for (std::size_t i = 0; i < n; ++i)
    x(i, 0) = static_cast<double>(i) / static_cast<double>(n);
  return x;
}

std::vector<double> step_targets(const Matrix& x) {
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = x(i, 0) >= 0.5 ? 1.0 : 0.0;
  return y;
}

TEST(BinnedData, BinCodesRespectOrdering) {
  Matrix x(100, 1);
  for (std::size_t i = 0; i < 100; ++i) x(i, 0) = static_cast<double>(i);
  const BinnedData bd(x, 16);
  EXPECT_EQ(bd.rows(), 100u);
  EXPECT_EQ(bd.cols(), 1u);
  EXPECT_GE(bd.num_bins(0), 8);
  for (std::size_t i = 1; i < 100; ++i)
    EXPECT_LE(bd.bin(i - 1, 0), bd.bin(i, 0));
}

TEST(BinnedData, ConstantColumnSingleBin) {
  Matrix x(50, 1, 3.0);
  const BinnedData bd(x, 16);
  EXPECT_EQ(bd.num_bins(0), 1);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(bd.bin(i, 0), 0);
}

TEST(BinnedData, ThresholdSeparatesBins) {
  Matrix x(100, 1);
  for (std::size_t i = 0; i < 100; ++i) x(i, 0) = static_cast<double>(i);
  const BinnedData bd(x, 8);
  for (int b = 0; b + 1 < bd.num_bins(0); ++b) {
    const double thr = bd.threshold(0, b);
    for (std::size_t i = 0; i < 100; ++i) {
      if (bd.bin(i, 0) <= b) {
        EXPECT_LE(x(i, 0), thr);
      } else {
        EXPECT_GT(x(i, 0), thr);
      }
    }
  }
}

TEST(DecisionTree, FitsConstantTarget) {
  Matrix x = step_data(64);
  std::vector<double> y(64, 3.5);
  const BinnedData bd(x, 32);
  Rng rng(1);
  const SavedTree tree = grow_tree(bd, y, {}, {}, TreeConfig{}, rng);
  ASSERT_FALSE(tree.empty());
  EXPECT_DOUBLE_EQ(walk(tree, x.row(10)), 3.5);
  // A constant target admits no useful split.
  EXPECT_EQ(tree.size(), 1u);
}

TEST(DecisionTree, LearnsStepFunctionExactly) {
  Matrix x = step_data(128);
  const std::vector<double> y = step_targets(x);
  const BinnedData bd(x, 64);
  Rng rng(1);
  const SavedTree tree = grow_tree(bd, y, {}, {}, TreeConfig{}, rng);
  for (std::size_t i = 0; i < x.rows(); ++i)
    EXPECT_DOUBLE_EQ(walk(tree, x.row(i)), y[i]) << "row " << i;
}

TEST(DecisionTree, RespectsMaxDepth) {
  Rng data_rng(5);
  Matrix x(256, 4);
  std::vector<double> y(256);
  for (std::size_t i = 0; i < 256; ++i) {
    for (std::size_t c = 0; c < 4; ++c) x(i, c) = data_rng.normal();
    y[i] = data_rng.normal();  // pure noise -> tree wants to overfit
  }
  const BinnedData bd(x, 32);
  TreeConfig cfg;
  cfg.max_depth = 3;
  cfg.min_samples_leaf = 1;
  Rng rng(1);
  const SavedTree tree = grow_tree(bd, y, {}, {}, cfg, rng);
  EXPECT_LE(tree_depth(tree), 4);  // root at depth 1
}

TEST(DecisionTree, RespectsMinSamplesLeaf) {
  Matrix x = step_data(64);
  const std::vector<double> y = step_targets(x);
  const BinnedData bd(x, 64);
  TreeConfig cfg;
  cfg.min_samples_leaf = 64;  // can never split
  Rng rng(1);
  const SavedTree tree = grow_tree(bd, y, {}, {}, cfg, rng);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(DecisionTree, SampleWeightsShiftLeafValues) {
  Matrix x(4, 1);
  x(0, 0) = x(1, 0) = 0.0;
  x(2, 0) = x(3, 0) = 1.0;
  const std::vector<double> y = {0.0, 10.0, 0.0, 10.0};
  const BinnedData bd(x, 4);
  TreeConfig cfg;
  cfg.max_depth = 0;  // root only: leaf value = weighted mean
  Rng rng(1);
  const std::vector<double> w = {3.0, 1.0, 3.0, 1.0};
  const SavedTree tree = grow_tree(bd, y, w, {}, cfg, rng);
  EXPECT_NEAR(walk(tree, x.row(0)), 2.5, 1e-12);
}

TEST(DecisionTree, RowSubsetRestrictsTraining) {
  Matrix x = step_data(100);
  std::vector<double> y = step_targets(x);
  // Poison the rows we exclude.
  for (std::size_t i = 50; i < 100; ++i) y[i] = -100.0;
  const BinnedData bd(x, 64);
  std::vector<std::size_t> rows(50);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  Rng rng(1);
  const SavedTree tree = grow_tree(bd, y, {}, rows, TreeConfig{}, rng);
  // Trained only on x < 0.5 where y == 0.
  EXPECT_NEAR(walk(tree, x.row(10)), 0.0, 1e-9);
}

TEST(DecisionTree, ExtraTreesModeStillReducesError) {
  Matrix x = step_data(256);
  const std::vector<double> y = step_targets(x);
  const BinnedData bd(x, 64);
  TreeConfig cfg;
  cfg.random_thresholds = true;
  Rng rng(3);
  const SavedTree tree = grow_tree(bd, y, {}, {}, cfg, rng);
  double sse = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double d = walk(tree, x.row(i)) - y[i];
    sse += d * d;
  }
  // Variance of y is 0.25 per sample; the randomized tree should capture
  // most of it.
  EXPECT_LT(sse / static_cast<double>(x.rows()), 0.05);
}

TEST(DecisionTree, DeterministicGivenSameRng) {
  Matrix x = step_data(128);
  std::vector<double> y = step_targets(x);
  const BinnedData bd(x, 64);
  TreeConfig cfg;
  cfg.features_per_split = 1;
  cfg.random_thresholds = true;
  Rng r1(9), r2(9);
  const SavedTree t1 = grow_tree(bd, y, {}, {}, cfg, r1);
  const SavedTree t2 = grow_tree(bd, y, {}, {}, cfg, r2);
  EXPECT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < x.rows(); ++i)
    EXPECT_DOUBLE_EQ(walk(t1, x.row(i)), walk(t2, x.row(i)));
}

TEST(DecisionTree, MultiFeatureInteraction) {
  // y = XOR-ish: needs two levels of splits.
  Rng data_rng(11);
  Matrix x(512, 2);
  std::vector<double> y(512);
  for (std::size_t i = 0; i < 512; ++i) {
    x(i, 0) = data_rng.uniform();
    x(i, 1) = data_rng.uniform();
    y[i] = (x(i, 0) >= 0.5) != (x(i, 1) >= 0.5) ? 1.0 : 0.0;
  }
  const BinnedData bd(x, 64);
  Rng rng(1);
  const SavedTree tree = grow_tree(bd, y, {}, {}, TreeConfig{}, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < 512; ++i)
    if (std::abs(walk(tree, x.row(i)) - y[i]) < 0.3) ++correct;
  EXPECT_GT(correct, 480u);
}

// --- BinEdgeCache occupancy gate --------------------------------------------

Matrix uniform_column(std::size_t n, Rng& rng, double lo = 0.0,
                      double hi = 1.0) {
  Matrix x(n, 1);
  for (std::size_t i = 0; i < n; ++i) x(i, 0) = rng.uniform(lo, hi);
  return x;
}

TEST(BinEdgeCache, ReusesEdgesWhenDistributionIsStable) {
  Rng rng(101);
  BinEdgeCache cache;
  const Matrix x1 = uniform_column(400, rng);
  const BinnedData first(x1, 16, &cache);
  EXPECT_EQ(cache.rebuilt(), 1u);
  EXPECT_EQ(cache.reused(), 0u);

  // A fresh draw from the same distribution, clamped inside the cached
  // range, keeps occupancy balanced: the cache skips the re-derivation.
  Matrix x2 = uniform_column(400, rng);
  double lo = x1(0, 0), hi = lo;
  for (std::size_t i = 0; i < x1.rows(); ++i) {
    lo = std::min(lo, x1(i, 0));
    hi = std::max(hi, x1(i, 0));
  }
  for (std::size_t i = 0; i < x2.rows(); ++i)
    x2(i, 0) = std::min(std::max(x2(i, 0), lo), hi);
  const BinnedData second(x2, 16, &cache);
  EXPECT_EQ(cache.reused(), 1u);
  EXPECT_EQ(cache.rebuilt(), 1u);
}

TEST(BinEdgeCache, OccupancyShiftWithinRangeForcesRebuild) {
  Rng rng(202);
  BinEdgeCache cache;
  const Matrix x1 = uniform_column(400, rng);
  const BinnedData first(x1, 16, &cache);
  ASSERT_EQ(cache.rebuilt(), 1u);

  // Post-drift: nearly all mass collapses into a narrow band while the
  // overall [lo, hi] range is unchanged, so the range check alone would
  // happily reuse stale edges.  The occupancy gate must notice that the
  // old quantiles are now badly imbalanced and rebuild.
  double lo = x1(0, 0), hi = lo;
  for (std::size_t i = 0; i < x1.rows(); ++i) {
    lo = std::min(lo, x1(i, 0));
    hi = std::max(hi, x1(i, 0));
  }
  Matrix x2(400, 1);
  x2(0, 0) = lo;
  x2(1, 0) = hi;  // pin the range
  for (std::size_t i = 2; i < 400; ++i) x2(i, 0) = rng.uniform(0.48, 0.52);
  const BinnedData second(x2, 16, &cache);
  EXPECT_EQ(cache.reused(), 0u);
  EXPECT_EQ(cache.rebuilt(), 2u);

  // The rebuild re-anchored the imbalance baseline: binning the drifted
  // distribution again now reuses.
  Matrix x3(400, 1);
  x3(0, 0) = lo;
  x3(1, 0) = hi;
  for (std::size_t i = 2; i < 400; ++i) x3(i, 0) = rng.uniform(0.48, 0.52);
  const BinnedData third(x3, 16, &cache);
  EXPECT_EQ(cache.reused(), 1u);
  EXPECT_EQ(cache.rebuilt(), 2u);
}

TEST(BinEdgeCache, UpwardRangeGrowthExtendsInsteadOfRebuilding) {
  // Discrete (tied) values leave spare edge budget after deduplication —
  // the precondition for the extend path when the range later grows.
  BinEdgeCache cache;
  Matrix x1(400, 1);
  for (std::size_t i = 0; i < 400; ++i)
    x1(i, 0) = static_cast<double>(i % 8) / 8.0;
  const BinnedData first(x1, 16, &cache);
  ASSERT_EQ(cache.rebuilt(), 1u);

  // Sliding-window growth: same body, plus a modest new upper tail.
  Rng rng(303);
  Matrix x2(440, 1);
  for (std::size_t i = 0; i < 400; ++i) x2(i, 0) = x1(i, 0);
  for (std::size_t i = 400; i < 440; ++i) x2(i, 0) = rng.uniform(1.0, 1.2);
  const BinnedData second(x2, 16, &cache);
  EXPECT_EQ(cache.extended(), 1u);
  EXPECT_EQ(cache.rebuilt(), 1u);
}

TEST(BinEdgeCache, ClearAndShapeChangeInvalidate) {
  Rng rng(404);
  BinEdgeCache cache;
  const Matrix x = uniform_column(200, rng);
  { const BinnedData b(x, 16, &cache); }
  cache.clear();
  { const BinnedData b(x, 16, &cache); }
  EXPECT_EQ(cache.rebuilt(), 2u);
  EXPECT_EQ(cache.reused(), 0u);

  // Different max_bins resets the cache rather than mixing edge sets.
  { const BinnedData b(x, 8, &cache); }
  EXPECT_EQ(cache.rebuilt(), 3u);
}

}  // namespace
}  // namespace leaf::models
