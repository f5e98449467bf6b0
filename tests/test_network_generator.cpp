// Unit tests for the eNodeB fleet model (data/network.hpp) and the KPI
// generator (data/generator.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "common/calendar.hpp"
#include "common/stats.hpp"
#include "data/generator.hpp"
#include "data/network.hpp"
#include "data/temporal.hpp"

namespace leaf::data {
namespace {

Scale tiny_scale() {
  Scale s = Scale::for_level(Scale::Level::kSmall);
  s.fixed_enbs = 8;
  s.evolving_enbs_max = 16;
  s.num_kpis = 16;
  return s;
}

// --- fleet --------------------------------------------------------------

TEST(Fleet, FixedFleetAllInstalledAtDayZero) {
  const auto fleet = build_fixed_fleet(20, 1);
  ASSERT_EQ(fleet.size(), 20u);
  for (const auto& p : fleet) EXPECT_EQ(p.install_day, 0);
}

TEST(Fleet, IdsAreSequential) {
  const auto fleet = build_fixed_fleet(10, 1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fleet[static_cast<std::size_t>(i)].id, i);
}

TEST(Fleet, DeterministicForSeed) {
  const auto a = build_fixed_fleet(10, 7);
  const auto b = build_fixed_fleet(10, 7);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].area, b[i].area);
    EXPECT_DOUBLE_EQ(a[i].base_volume_mb, b[i].base_volume_mb);
  }
}

TEST(Fleet, EvolvingFleetStaggersInstalls) {
  const auto fleet = build_evolving_fleet(100, 3);
  int at_zero = 0, later = 0;
  for (const auto& p : fleet) {
    EXPECT_GE(p.install_day, 0);
    EXPECT_LT(p.install_day, cal::study_length());
    (p.install_day == 0 ? at_zero : later)++;
  }
  // ~46% initial, rest staggered.
  EXPECT_NEAR(at_zero, 46, 3);
  EXPECT_GT(later, 0);
}

TEST(Fleet, AreaMixRoughlyMetropolitan) {
  const auto fleet = build_fixed_fleet(600, 5);
  std::map<AreaType, int> counts;
  for (const auto& p : fleet) ++counts[p.area];
  EXPECT_NEAR(counts[AreaType::kUrban] / 600.0, 0.35, 0.06);
  EXPECT_NEAR(counts[AreaType::kSuburban] / 600.0, 0.45, 0.06);
  EXPECT_NEAR(counts[AreaType::kRural] / 600.0, 0.20, 0.06);
}

TEST(Fleet, SuburbanHasHighestCovidSensitivity) {
  const auto fleet = build_fixed_fleet(300, 5);
  std::map<AreaType, std::pair<double, int>> acc;
  for (const auto& p : fleet) {
    acc[p.area].first += p.covid_sensitivity;
    acc[p.area].second += 1;
  }
  const double sub = acc[AreaType::kSuburban].first / acc[AreaType::kSuburban].second;
  const double urb = acc[AreaType::kUrban].first / acc[AreaType::kUrban].second;
  const double rur = acc[AreaType::kRural].first / acc[AreaType::kRural].second;
  EXPECT_GT(sub, urb);
  EXPECT_GT(urb, rur);
}

// --- latent state ---------------------------------------------------------

TEST(Generator, LatentStateDeterministicAndRandomAccess) {
  const auto fleet = build_fixed_fleet(2, 1);
  const LatentState a = latent_state(fleet[0], 500, 42);
  const LatentState b = latent_state(fleet[0], 500, 42);
  EXPECT_DOUBLE_EQ(a.dvol_mb, b.dvol_mb);
  EXPECT_DOUBLE_EQ(a.call_drop, b.call_drop);
  // Different day / enb / seed all change the draw.
  EXPECT_NE(latent_state(fleet[0], 501, 42).dvol_mb, a.dvol_mb);
  EXPECT_NE(latent_state(fleet[1], 500, 42).dvol_mb, a.dvol_mb);
  EXPECT_NE(latent_state(fleet[0], 500, 43).dvol_mb, a.dvol_mb);
}

TEST(Generator, LatentValuesArePhysical) {
  const auto fleet = build_fixed_fleet(4, 1);
  for (const auto& p : fleet) {
    for (int day : {0, 400, 800, 1200, 1500}) {
      const LatentState s = latent_state(p, day, 42);
      EXPECT_GT(s.dvol_mb, 0.0);
      EXPECT_GE(s.peak_ues, 0.0);
      EXPECT_GT(s.throughput, 0.0);
      EXPECT_GT(s.rrc_success, 0.0);
      EXPECT_GE(s.call_drop, 0.0);
      EXPECT_LE(s.call_drop, 1.0);
      EXPECT_GE(s.gap_ratio, 0.0);
      EXPECT_LE(s.gap_ratio, 1.0);
      EXPECT_GE(s.mobility, 0.0);
      EXPECT_LE(s.mobility, 1.0);
    }
  }
}

TEST(Generator, CovidDepressesDemand) {
  const auto fleet = build_fixed_fleet(16, 1);
  double before = 0.0, during = 0.0;
  const int pre = cal::day_index(cal::Date{2020, 2, 1});
  const int mid = cal::day_index(cal::Date{2020, 4, 20});
  for (const auto& p : fleet) {
    for (int k = 0; k < 14; ++k) {
      before += latent_state(p, pre + k, 42).dvol_mb;
      during += latent_state(p, mid + k, 42).dvol_mb;
    }
  }
  EXPECT_LT(during, before * 0.95);
}

TEST(Generator, PuLossZeroesAffectedSites) {
  auto fleet = build_fixed_fleet(1, 1);
  fleet[0].pu_loss_affected = true;
  const int in_window = (cal::pu_loss_start() + cal::pu_loss_end()) / 2;
  EXPECT_DOUBLE_EQ(latent_state(fleet[0], in_window, 42).peak_ues, 0.0);
  EXPECT_GT(latent_state(fleet[0], cal::pu_loss_end() + 10, 42).peak_ues, 0.0);
  fleet[0].pu_loss_affected = false;
  EXPECT_GT(latent_state(fleet[0], in_window, 42).peak_ues, 0.0);
}

TEST(Generator, GrowthRaisesDemandYearOverYear) {
  const auto fleet = build_fixed_fleet(16, 1);
  double y2018 = 0.0, y2019 = 0.0;
  for (const auto& p : fleet) {
    for (int k = 0; k < 28; ++k) {
      y2018 += latent_state(p, 30 + k, 42).dvol_mb;
      y2019 += latent_state(p, 395 + k, 42).dvol_mb;
    }
  }
  EXPECT_GT(y2019, y2018 * 1.02);
}

TEST(Generator, ThroughputFallsWithCongestion) {
  auto fleet = build_fixed_fleet(1, 1);
  fleet[0].capacity_mbps = 100.0;
  fleet[0].base_volume_mb = 1e5;
  double tp_low = 0.0, tp_high = 0.0;
  for (int k = 0; k < 40; ++k)
    tp_low += latent_state(fleet[0], 10 + k, 42).throughput;
  fleet[0].base_volume_mb = 1.5e6;  // heavily loaded cell
  for (int k = 0; k < 40; ++k)
    tp_high += latent_state(fleet[0], 10 + k, 42).throughput;
  EXPECT_LT(tp_high, tp_low);
}

// --- full dataset ---------------------------------------------------------

TEST(Generator, FixedDatasetShape) {
  const Scale s = tiny_scale();
  const CellularDataset ds = generate_fixed_dataset(s, 42);
  EXPECT_EQ(ds.num_days(), cal::study_length());
  EXPECT_EQ(ds.num_kpis(), s.num_kpis);
  EXPECT_FALSE(ds.evolving());
  EXPECT_EQ(ds.enbs_on_day(0), s.fixed_enbs);
  EXPECT_EQ(ds.enbs_on_day(ds.num_days() - 1), s.fixed_enbs);
  EXPECT_EQ(ds.total_logs(),
            static_cast<std::int64_t>(s.fixed_enbs) * cal::study_length());
}

TEST(Generator, EvolvingDatasetGrows) {
  const Scale s = tiny_scale();
  const CellularDataset ds = generate_evolving_dataset(s, 42);
  EXPECT_TRUE(ds.evolving());
  EXPECT_LT(ds.enbs_on_day(0), ds.enbs_on_day(ds.num_days() - 1));
  EXPECT_GT(ds.total_logs(),
            static_cast<std::int64_t>(ds.enbs_on_day(0)) * ds.num_days());
}

TEST(Generator, EnbIndicesAscendingPerDay) {
  const CellularDataset ds = generate_evolving_dataset(tiny_scale(), 42);
  for (int d : {0, 500, 1000, 1547}) {
    const auto enbs = ds.enb_indices_on_day(d);
    for (std::size_t i = 1; i < enbs.size(); ++i)
      EXPECT_LT(enbs[i - 1], enbs[i]);
  }
}

TEST(Generator, DatasetDeterministic) {
  const CellularDataset a = generate_fixed_dataset(tiny_scale(), 42);
  const CellularDataset b = generate_fixed_dataset(tiny_scale(), 42);
  for (int d : {0, 777, 1547}) {
    const auto la = a.log_on_day(d, 0);
    const auto lb = b.log_on_day(d, 0);
    for (std::size_t k = 0; k < la.size(); ++k) EXPECT_EQ(la[k], lb[k]);
  }
}

TEST(Generator, DifferentSeedsDifferentData) {
  const CellularDataset a = generate_fixed_dataset(tiny_scale(), 42);
  const CellularDataset b = generate_fixed_dataset(tiny_scale(), 43);
  EXPECT_NE(a.log_on_day(100, 0)[0], b.log_on_day(100, 0)[0]);
}

TEST(Generator, CompanionsCorrelateWithAnchors) {
  const CellularDataset ds = generate_fixed_dataset(tiny_scale(), 42);
  const auto& schema = ds.schema();
  const int dvol_col = schema.target_column(TargetKpi::kDVol);
  // Pick a companion (not the target itself) and check |corr| with DVol.
  int companion = -1;
  for (int c = 0; c < schema.size(); ++c)
    if (c != dvol_col && schema.spec(c).anchor == LatentAnchor::kDVol)
      companion = c;
  ASSERT_GE(companion, 0);
  const auto x = ds.all_values(dvol_col);
  const auto y = ds.all_values(companion);
  EXPECT_GT(std::abs(stats::pearson(x, y)), 0.3);
}

TEST(Generator, NoiseKpisUncorrelatedWithTarget) {
  const CellularDataset ds = generate_fixed_dataset(tiny_scale(), 42);
  const auto& schema = ds.schema();
  int noise_col = 0;
  while (noise_col < schema.size() &&
         schema.spec(noise_col).anchor != LatentAnchor::kNone)
    ++noise_col;
  ASSERT_LT(noise_col, schema.size());
  const auto x = ds.all_values(schema.target_column(TargetKpi::kDVol));
  const auto y = ds.all_values(noise_col);
  EXPECT_LT(std::abs(stats::pearson(x, y)), 0.25);
}

TEST(Generator, DispersionOrderingMatchesPaper) {
  Scale s = tiny_scale();
  s.fixed_enbs = 24;  // enough sites for stable fleet statistics
  const CellularDataset ds = generate_fixed_dataset(s, 42);
  auto disp = [&](TargetKpi t) {
    return stats::dispersion(ds.all_values(ds.schema().target_column(t)));
  };
  EXPECT_GT(disp(TargetKpi::kGDR), disp(TargetKpi::kCDR));
  EXPECT_GT(disp(TargetKpi::kCDR), disp(TargetKpi::kDTP));
  EXPECT_GT(disp(TargetKpi::kPU), disp(TargetKpi::kDVol));
  EXPECT_GT(disp(TargetKpi::kDVol), disp(TargetKpi::kDTP));
}

TEST(Generator, ValueRangeCoversData) {
  const CellularDataset ds = generate_fixed_dataset(tiny_scale(), 42);
  const int col = ds.schema().target_column(TargetKpi::kDVol);
  const auto [lo, hi] = ds.value_range(col);
  EXPECT_LT(lo, hi);
  const auto all = ds.all_values(col);
  EXPECT_DOUBLE_EQ(lo, std::ranges::min(all));
  EXPECT_DOUBLE_EQ(hi, std::ranges::max(all));
}

TEST(Generator, SeriesReturnsNaNBeforeInstall) {
  const CellularDataset ds = generate_evolving_dataset(tiny_scale(), 42);
  // Find a late-installed site.
  int late = -1;
  for (const auto& p : ds.profiles())
    if (p.install_day > 200) late = p.id;
  ASSERT_GE(late, 0);
  const auto series =
      ds.series(late, ds.schema().target_column(TargetKpi::kDVol));
  const int install = ds.profiles()[static_cast<std::size_t>(late)].install_day;
  EXPECT_TRUE(std::isnan(series[static_cast<std::size_t>(install - 1)]));
  EXPECT_FALSE(std::isnan(series[static_cast<std::size_t>(install)]));
}

TEST(Generator, UpgradeSensitiveKpiJumpsAtUpgrade) {
  // Fleet-mean of an upgrade-sensitive companion shifts across an upgrade
  // day by the per-kpi factor; verify a visible discontinuity relative to
  // day-to-day noise for at least one such KPI.
  Scale s = tiny_scale();
  s.fixed_enbs = 16;
  const CellularDataset ds = generate_fixed_dataset(s, 42);
  int col = -1;
  for (int c = 0; c < ds.num_kpis(); ++c)
    if (ds.schema().spec(c).upgrade_sensitive &&
        ds.schema().spec(c).anchor == LatentAnchor::kNone)
      col = c;
  if (col < 0) GTEST_SKIP() << "no upgrade-sensitive noise KPI at this size";
  const int day = software_upgrade_days()[2];
  const auto series = ds.fleet_mean_series(col);
  double before = 0.0, after = 0.0;
  for (int k = 1; k <= 10; ++k) {
    before += series[static_cast<std::size_t>(day - k)];
    after += series[static_cast<std::size_t>(day + k - 1)];
  }
  EXPECT_GT(std::abs(after / before - 1.0), 0.005);
}

}  // namespace
}  // namespace leaf::data
