// Goldens recorded before the fixed settings of the Appendix-B comparator
// detectors, the ingest guards, the extension baselines and the feature
// grouping became named constants.  Each value below was printed by the code that still read the
// defaults from config structs, so a constant that differs from the
// default it replaced moves one of them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/fnv.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/baselines.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "drift/adwin.hpp"
#include "drift/ddm.hpp"
#include "explain/grouping.hpp"
#include "ingest/fault.hpp"
#include "ingest/pipeline.hpp"
#include "models/factory.hpp"

namespace leaf {
namespace {

Scale tiny_scale() {
  Scale s = Scale::for_level(Scale::Level::kSmall);
  s.fixed_enbs = 6;
  s.num_kpis = 16;
  s.gbdt_trees = 15;
  s.eval_stride_days = 4;
  return s;
}

/// An NRMSE-like stream: six regimes of 150 samples whose level rises
/// and falls, with a spike every 37 samples in the first half and every
/// 9 in the second.
std::vector<double> regime_stream() {
  const double level[] = {0.10, 0.30, 0.15, 0.45, 0.20, 0.60};
  Rng rng(2024);
  std::vector<double> out;
  for (int i = 0; i < 900; ++i) {
    const double m = level[i / 150];
    const int spike_every = i < 450 ? 37 : 9;
    out.push_back(rng.normal(m, 0.2 * m) + (i % spike_every == 0 ? 0.3 : 0.0));
  }
  return out;
}

std::vector<int> firings(drift::DriftDetector& det,
                         const std::vector<double>& stream) {
  std::vector<int> hits;
  for (std::size_t i = 0; i < stream.size(); ++i)
    if (det.update(stream[i])) hits.push_back(static_cast<int>(i));
  return hits;
}

std::uint64_t hash_doubles(std::uint64_t h, const std::vector<double>& v) {
  h = fnv1a_word(h, v.size());
  for (double x : v) h = fnv1a_word(h, std::bit_cast<std::uint64_t>(x));
  return h;
}

std::uint64_t hash_ints(std::uint64_t h, const std::vector<int>& v) {
  h = fnv1a_word(h, v.size());
  for (int x : v) h = fnv1a_word(h, static_cast<std::uint64_t>(x));
  return h;
}

std::uint64_t result_fingerprint(const core::EvalResult& r) {
  std::uint64_t h = kFnvOffset;
  h = hash_ints(h, r.days);
  h = hash_doubles(h, r.nrmse);
  h = hash_doubles(h, r.mean_ne);
  h = hash_ints(h, r.retrain_days);
  h = hash_ints(h, r.drift_days);
  return fnv1a_word(h, std::bit_cast<std::uint64_t>(r.ne_p95));
}

/// Every reporting eNodeB and KPI value of every day, NaN bits included.
std::uint64_t dataset_fingerprint(const data::CellularDataset& ds) {
  std::uint64_t h = kFnvOffset;
  for (int d = 0; d < ds.num_days(); ++d) {
    const int n = ds.enbs_on_day(d);
    h = fnv1a_word(h, static_cast<std::uint64_t>(n));
    for (int i = 0; i < n; ++i) {
      h = fnv1a_word(h, static_cast<std::uint64_t>(ds.enb_on_day(d, i)));
      for (float v : ds.log_on_day(d, i))
        h = fnv1a_word(h, std::bit_cast<std::uint32_t>(v));
    }
  }
  return h;
}

std::uint64_t health_fingerprint(
    const std::vector<ingest::HealthSeries>& all) {
  std::uint64_t h = kFnvOffset;
  for (const ingest::HealthSeries& s : all) {
    h = fnv1a_word(h, s.size());
    for (ingest::HealthState st : s)
      h = fnv1a_word(h, static_cast<std::uint64_t>(st));
  }
  return h;
}

TEST(SettingGoldens, DetectorsIngestAndBaselinesMatchRecordedDefaults) {
  // Appendix-B comparators at their defaults; Page-Hinkley with the
  // delta/lambda bench_appb_detectors sets.
  const std::vector<double> stream = regime_stream();
  drift::Adwin adwin;
  drift::Ddm ddm;
  drift::Eddm eddm;
  drift::HddmA hddm;
  drift::PageHinkleyConfig pcfg;
  pcfg.delta = 0.002;
  pcfg.lambda = 0.5;
  drift::PageHinkley ph(pcfg);
  EXPECT_EQ(firings(adwin, stream),
            (std::vector<int>{215, 223, 251, 491, 495, 503, 515, 547, 707, 795,
                              803, 811, 835}));
  EXPECT_EQ(firings(ddm, stream), (std::vector<int>{296, 450, 792}));
  EXPECT_EQ(firings(eddm, stream), (std::vector<int>{781}));
  EXPECT_EQ(firings(hddm, stream), (std::vector<int>{169, 882}));
  EXPECT_EQ(firings(ph, stream),
            (std::vector<int>{453, 483, 513, 543, 573, 756, 786, 816, 846}));

  // The ingest guards on a 5% fault stream.
  const data::CellularDataset ds =
      data::generate_fixed_dataset(tiny_scale(), 42);
  const ingest::IngestResult ing = ingest::ingest_stream(
      ds, ingest::inject_faults(ds, ingest::FaultSpec::at_rate(0.05, 7)));
  const ingest::IngestReport& r = ing.report;
  EXPECT_EQ(r.records_in, 8903);
  EXPECT_EQ(r.records_out, 9286);
  EXPECT_EQ(r.late_records, 407);
  EXPECT_EQ(r.duplicates_dropped, 223);
  EXPECT_EQ(r.quarantined_values, 1715);
  EXPECT_EQ(r.quarantined_records, 5);
  EXPECT_EQ(r.values_imputed, 11491);
  EXPECT_EQ(r.records_synthesized, 611);
  EXPECT_EQ(r.days_missing, 20);
  EXPECT_EQ(dataset_fingerprint(ing.clean), 0xcf6e345dc9bd115bULL);
  EXPECT_EQ(health_fingerprint(ing.kpi_health), 0x4dbf8067b2e55ecfULL);
  EXPECT_EQ(health_fingerprint(ing.enb_health), 0xe97ddd80035e0040ULL);

  // The extension baselines at their defaults.
  const data::Featurizer f(ds, data::TargetKpi::kDVol);
  const auto model =
      models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1);
  const core::EvalConfig ecfg = core::make_eval_config(tiny_scale());
  core::PairedLearnersScheme paired;
  EXPECT_EQ(result_fingerprint(core::run_scheme(f, *model, paired, ecfg)),
            0xf18fe00d9faf0852ULL);
  core::Aue2Scheme aue2;
  EXPECT_EQ(result_fingerprint(core::run_scheme(f, *model, aue2, ecfg)),
            0xf1ab8e4e82032d2ULL);
}

/// 4500 rows (past the grouping's 4000-row correlation sample, so every
/// second row is used) of eight columns whose |Pearson| with their group's
/// representative straddles the 0.7 threshold.  Column 4 copies column 3
/// on even rows only, so it correlates with it far more on the sample than
/// on all rows.
Matrix grouping_matrix() {
  Rng rng(31);
  Matrix X(4500, 8);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const double a = rng.normal();
    const double b = rng.normal();
    X(r, 0) = a;
    X(r, 1) = a + 0.9 * rng.normal();
    X(r, 2) = a + 1.1 * rng.normal();
    X(r, 3) = b;
    X(r, 4) = r % 2 == 0 ? b : rng.normal();
    X(r, 5) = -b + 0.95 * rng.normal();
    X(r, 6) = rng.normal();
    X(r, 7) = 0.6 * a + 0.8 * b;
  }
  return X;
}

/// Each group's members, representative first.
std::vector<std::vector<int>> members(
    const std::vector<explain::FeatureGroup>& groups) {
  std::vector<std::vector<int>> out;
  for (const explain::FeatureGroup& g : groups) {
    EXPECT_EQ(g.members.front(), g.representative);
    out.push_back(g.members);
  }
  return out;
}

TEST(SettingGoldens, GroupingMatchesRecordedDefaults) {
  const Matrix X = grouping_matrix();
  const std::vector<double> importance = {0.9, 0.5, 0.4, 0.8,
                                          0.3, 0.2, 0.1, 0.6};
  EXPECT_EQ(members(explain::group_features(X, importance, 0)),
            (std::vector<std::vector<int>>{{0, 1}, {3, 4, 5, 7}, {2}, {6}}));
  EXPECT_EQ(members(explain::group_features(X, importance, 3)),
            (std::vector<std::vector<int>>{{0, 1}, {3, 4, 5, 7}, {2}}));
}

}  // namespace
}  // namespace leaf
