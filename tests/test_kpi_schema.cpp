// Unit tests for the KPI schema (data/kpi.hpp).
#include "data/kpi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace leaf::data {
namespace {

// Number of columns anchored to `a`: the ground-truth feature group.
std::size_t group_size(const KpiSchema& s, LatentAnchor a) {
  return static_cast<std::size_t>(std::ranges::count_if(
      s.specs(), [a](const KpiSpec& k) { return k.anchor == a; }));
}

TEST(KpiSchema, SizeMatchesRequest) {
  EXPECT_EQ(KpiSchema::build(64).size(), 64);
  EXPECT_EQ(KpiSchema::build(224).size(), 224);
  EXPECT_EQ(KpiSchema::build(9).size(), 9);
}

TEST(KpiSchema, TargetsComeFirstInOrder) {
  const KpiSchema s = KpiSchema::build(32);
  for (std::size_t i = 0; i < kAllTargets.size(); ++i) {
    const KpiSpec& spec = s.spec(static_cast<int>(i));
    EXPECT_TRUE(spec.is_target);
    EXPECT_EQ(spec.target, kAllTargets[i]);
    EXPECT_EQ(s.target_column(kAllTargets[i]), static_cast<int>(i));
  }
}

TEST(KpiSchema, NamedCaseStudyAnchorsExist) {
  const KpiSchema s = KpiSchema::build(64);
  EXPECT_GE(s.column_of("pdcp_dl_datavol_mb"), 0);
  EXPECT_GE(s.column_of("badcoveragemeasurements"), 0);
  EXPECT_GE(s.column_of("rtp_gap_ratio_medium"), 0);
  EXPECT_GE(s.column_of("handover_success_cnt"), 0);
  EXPECT_EQ(s.column_of("no_such_kpi"), -1);
}

TEST(KpiSchema, TargetNamesMapToColumns) {
  const KpiSchema s = KpiSchema::build(32);
  for (TargetKpi t : kAllTargets)
    EXPECT_EQ(s.column_of(kpi_name(t)), s.target_column(t));
}

TEST(KpiSchema, UniqueNames) {
  const KpiSchema s = KpiSchema::build(224);
  std::set<std::string> names;
  for (const auto& spec : s.specs()) names.insert(spec.name);
  EXPECT_EQ(static_cast<int>(names.size()), s.size());
}

TEST(KpiSchema, DeterministicForSameSeed) {
  const KpiSchema a = KpiSchema::build(96, 5);
  const KpiSchema b = KpiSchema::build(96, 5);
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.spec(i).name, b.spec(i).name);
    EXPECT_DOUBLE_EQ(a.spec(i).scale, b.spec(i).scale);
    EXPECT_DOUBLE_EQ(a.spec(i).exponent, b.spec(i).exponent);
  }
}

TEST(KpiSchema, DVolGroupIsLargestCompanionGroup) {
  // The case study's volume group has 32 of 224 features — the largest.
  const KpiSchema s = KpiSchema::build(224);
  const std::size_t dvol = group_size(s, LatentAnchor::kDVol);
  for (LatentAnchor a :
       {LatentAnchor::kPU, LatentAnchor::kDTP, LatentAnchor::kREst,
        LatentAnchor::kCDR, LatentAnchor::kGDR, LatentAnchor::kCoverage,
        LatentAnchor::kMobility}) {
    EXPECT_GE(dvol, group_size(s, a));
  }
  // Near the paper's 32 (the target + 31 companions).
  EXPECT_NEAR(static_cast<double>(dvol), 32.0, 6.0);
}

TEST(KpiSchema, AllAnchorsRepresentedAtFullScale) {
  const KpiSchema s = KpiSchema::build(224);
  for (LatentAnchor a :
       {LatentAnchor::kDVol, LatentAnchor::kPU, LatentAnchor::kDTP,
        LatentAnchor::kREst, LatentAnchor::kCDR, LatentAnchor::kGDR,
        LatentAnchor::kCoverage, LatentAnchor::kMobility,
        LatentAnchor::kNone}) {
    EXPECT_GT(group_size(s, a), 0u);
  }
}

TEST(KpiSchema, GroupProportionsScaleDown) {
  // At any size, noise KPIs should be a meaningful tail and every target
  // group should keep at least its own target column.
  const KpiSchema s = KpiSchema::build(48);
  EXPECT_GT(group_size(s, LatentAnchor::kNone), 4u);
  for (TargetKpi t : kAllTargets) {
    SCOPED_TRACE(to_string(t));
    EXPECT_GE(group_size(s, s.spec(s.target_column(t)).anchor), 1u);
  }
}

TEST(KpiSchema, ParseTargetRoundTrip) {
  for (TargetKpi t : kAllTargets) {
    TargetKpi parsed;
    ASSERT_TRUE(parse_target(to_string(t), parsed));
    EXPECT_EQ(parsed, t);
  }
  TargetKpi dummy;
  EXPECT_FALSE(parse_target("XYZ", dummy));
}

TEST(KpiSchema, PaperDispersionOrdering) {
  // GDR >> CDR/PU > REst/DVol > DTP in both tables.
  for (bool evolving : {false, true}) {
    EXPECT_GT(paper_dispersion(TargetKpi::kGDR, evolving),
              paper_dispersion(TargetKpi::kCDR, evolving));
    EXPECT_GT(paper_dispersion(TargetKpi::kPU, evolving),
              paper_dispersion(TargetKpi::kDVol, evolving));
    EXPECT_GT(paper_dispersion(TargetKpi::kDVol, evolving),
              paper_dispersion(TargetKpi::kDTP, evolving));
  }
  // Evolving is more dispersed than Fixed.
  for (TargetKpi t : kAllTargets)
    EXPECT_GE(paper_dispersion(t, true), paper_dispersion(t, false));
}

TEST(KpiSchema, TargetsHaveNoObservationNoise) {
  const KpiSchema s = KpiSchema::build(32);
  for (TargetKpi t : kAllTargets)
    EXPECT_DOUBLE_EQ(s.spec(s.target_column(t)).noise_sigma, 0.0);
}

TEST(KpiSchema, GroupLabelsRoundTrip) {
  EXPECT_EQ(to_string(KpiGroup::kResourceUtilization), "resource_utilization");
  EXPECT_EQ(to_string(KpiGroup::kNetworkPerformance), "network_performance");
  EXPECT_EQ(to_string(KpiGroup::kUserExperience), "user_experience");
}

}  // namespace
}  // namespace leaf::data
