#include "stats.hpp"

#include <gtest/gtest.h>

#include <vector>

using namespace leafbench;

TEST(LeafbenchStats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 1.0);
  // Nearest rank never interpolates: 5 samples, p50 -> 3rd, p90 -> 5th.
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile({5, 1, 4, 2, 3}, 90), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(LeafbenchStats, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(samples_beyond(990, 99), 9u);
  EXPECT_EQ(samples_beyond(1188, 99), 11u);
  const std::vector<double> c{99.9, 99, 95, 90, 50};
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000, c), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000, c), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(594, c), 95.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(12, c), 0.0);
}

TEST(LeafbenchStats, MedianAndQuartilesMatchPython) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  const Quartiles q = quartiles(v);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles two = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
}

TEST(LeafbenchStats, UnionOfOverlappingIntervals) {
  EXPECT_DOUBLE_EQ(union_length({{0, 2}, {1, 3}, {5, 6}}), 4.0);
  EXPECT_DOUBLE_EQ(union_length({{0, 10}, {2, 3}}), 10.0);
  EXPECT_DOUBLE_EQ(union_length({}), 0.0);
}

TEST(LeafbenchStats, SelfTimeWithOverlappingChildren) {
  // A parallel predict_into: two chunks on two threads overlap in time and
  // must be subtracted once, not twice.
  const Interval parent{0.0, 10.0};
  const std::vector<Interval> chunks{{1.0, 5.0}, {2.0, 6.0}};
  EXPECT_DOUBLE_EQ(self_time(parent, chunks), 5.0);
  // Children reaching outside the parent are clipped to it.
  EXPECT_DOUBLE_EQ(self_time(parent, {{-3.0, 1.0}, {9.0, 12.0}}), 8.0);
  EXPECT_DOUBLE_EQ(self_time(parent, {}), 10.0);
}

TEST(LeafbenchStats, LayerRowsPlusUnattributedSumToTotal) {
  LayerTable t;
  t.total = 100.0;
  t.rows = {{"models.fit_ms", 40.0}, {"models.predict_ms", 25.5},
            {"core.mitigate_ms", 20.0}};
  EXPECT_DOUBLE_EQ(t.attributed(), 85.5);
  EXPECT_DOUBLE_EQ(t.unattributed(), 14.5);
  EXPECT_DOUBLE_EQ(t.attributed() + t.unattributed(), t.total);
}
