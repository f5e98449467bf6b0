// Unit and integration tests for the telemetry ingestion layer (ingest/).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/calendar.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "ingest/fault.hpp"
#include "ingest/health.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/validator.hpp"
#include "models/factory.hpp"
#include "obs/events.hpp"

namespace leaf::ingest {
namespace {

Scale tiny_scale() {
  Scale s = Scale::for_level(Scale::Level::kSmall);
  s.fixed_enbs = 6;
  s.num_kpis = 16;
  s.gbdt_trees = 15;
  s.eval_stride_days = 4;
  return s;
}

const data::CellularDataset& tiny_ds() {
  static const data::CellularDataset d =
      data::generate_fixed_dataset(tiny_scale(), 42);
  return d;
}

/// The clean, in-order record stream: a fault spec with every rate zero
/// (FaultInjector.ZeroRatesAreIdentity checks it is exactly the dataset).
std::vector<TelemetryRecord> clean_stream(const data::CellularDataset& ds) {
  return inject_faults(ds, FaultSpec{});
}

/// Bitwise record equality (NaN == NaN for this purpose).
bool same_record(const TelemetryRecord& a, const TelemetryRecord& b) {
  return a.day == b.day && a.enb_index == b.enb_index &&
         a.kpis.size() == b.kpis.size() &&
         std::memcmp(a.kpis.data(), b.kpis.data(),
                     a.kpis.size() * sizeof(float)) == 0;
}

// --- fault injector --------------------------------------------------------

TEST(FaultInjector, SameSeedSameFaults) {
  const FaultSpec spec = FaultSpec::at_rate(0.10, 99);
  const auto a = inject_faults(tiny_ds(), spec);
  const auto b = inject_faults(tiny_ds(), spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(same_record(a[i], b[i])) << "record " << i;
}

TEST(FaultInjector, DifferentSeedDifferentFaults) {
  const auto a = inject_faults(tiny_ds(), FaultSpec::at_rate(0.10, 1));
  const auto b = inject_faults(tiny_ds(), FaultSpec::at_rate(0.10, 2));
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = !same_record(a[i], b[i]);
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, ZeroRatesAreIdentity) {
  const auto& ds = tiny_ds();
  FaultSpec spec;  // all rates zero
  const auto faulted = inject_faults(ds, spec);
  ASSERT_EQ(faulted.size(), static_cast<std::size_t>(ds.total_logs()));
  std::size_t i = 0;
  for (int d = 0; d < ds.num_days(); ++d) {
    for (int e = 0; e < ds.enbs_on_day(d); ++e, ++i) {
      const auto kpis = ds.log_on_day(d, e).first(
          static_cast<std::size_t>(ds.num_kpis()));
      const TelemetryRecord rec{d, ds.enb_on_day(d, e),
                                {kpis.begin(), kpis.end()}};
      ASSERT_TRUE(same_record(rec, faulted[i])) << "record " << i;
    }
  }
}

TEST(FaultInjector, ModesManifestInTheStream) {
  const auto clean = clean_stream(tiny_ds());

  FaultSpec drop;
  drop.enb_drop_rate = 0.2;
  const auto dropped = inject_faults(tiny_ds(), drop);
  EXPECT_LT(dropped.size(), clean.size());
  EXPECT_GT(dropped.size(), clean.size() / 2);

  FaultSpec dup;
  dup.duplicate_rate = 0.2;
  EXPECT_GT(inject_faults(tiny_ds(), dup).size(), clean.size());

  FaultSpec nan;
  nan.nan_rate = 0.1;
  std::size_t nans = 0;
  for (const auto& r : inject_faults(tiny_ds(), nan))
    for (float v : r.kpis) nans += std::isnan(v) ? 1 : 0;
  EXPECT_GT(nans, 0u);

  FaultSpec late;
  late.shuffle_rate = 0.1;
  int inversions = 0, max_day = -1;
  for (const auto& r : inject_faults(tiny_ds(), late)) {
    if (r.day < max_day) ++inversions;
    max_day = std::max(max_day, r.day);
  }
  EXPECT_GT(inversions, 0);
}

// --- health state machine --------------------------------------------------

// The tracker's thresholds: a day below 0.8 valid is bad, below 0.35 very
// bad; 2 consecutive bad days trip a state, 3 good days clear one.

TEST(HealthTracker, SingleBlipDoesNotTrip) {
  HealthTracker t;
  EXPECT_EQ(t.step(1.0), HealthState::kOk);
  EXPECT_EQ(t.step(0.0), HealthState::kOk);  // one bad day < kDegradeDays
  EXPECT_EQ(t.step(1.0), HealthState::kOk);
}

TEST(HealthTracker, TransitionTable) {
  HealthTracker t;
  // OK -> DEGRADED after two moderately-bad days.
  EXPECT_EQ(t.step(0.6), HealthState::kOk);
  EXPECT_EQ(t.step(0.6), HealthState::kDegraded);
  // DEGRADED -> OUTAGE after two very-bad days.
  EXPECT_EQ(t.step(0.1), HealthState::kDegraded);
  EXPECT_EQ(t.step(0.1), HealthState::kOutage);
  // OUTAGE -> RECOVERING as soon as data returns...
  EXPECT_EQ(t.step(0.9), HealthState::kRecovering);
  // ...but OK only after kRecoverDays consecutive good days.
  EXPECT_EQ(t.step(0.9), HealthState::kRecovering);
  EXPECT_EQ(t.step(0.9), HealthState::kOk);
}

TEST(HealthTracker, RelapseFromRecovering) {
  HealthTracker t;
  t.step(0.0);
  t.step(0.0);
  ASSERT_EQ(t.state(), HealthState::kOutage);
  EXPECT_EQ(t.step(0.9), HealthState::kRecovering);
  EXPECT_EQ(t.step(0.1), HealthState::kOutage);  // relapse
}

TEST(HealthTracker, OkStraightToOutageOnTotalLoss) {
  HealthTracker t;
  EXPECT_EQ(t.step(0.0), HealthState::kOk);
  EXPECT_EQ(t.step(0.0), HealthState::kOutage);  // skips DEGRADED
}

// --- hysteresis edge cases --------------------------------------------------

TEST(HealthTracker, FlappingOneBelowDegradeDaysNeverTrips) {
  // kDegradeDays - 1 consecutive bad days, then one good day, forever:
  // the bad streak resets each cycle and the tracker must stay OK.
  HealthTracker t;  // 2 bad days trip
  for (int cycle = 0; cycle < 20; ++cycle) {
    EXPECT_EQ(t.step(0.6), HealthState::kOk);
    EXPECT_EQ(t.step(1.0), HealthState::kOk);
  }
}

TEST(HealthTracker, ExactlyDegradeDaysTrips) {
  HealthTracker t;
  EXPECT_EQ(t.step(0.6), HealthState::kOk);        // day 1 of the streak
  EXPECT_EQ(t.step(0.6), HealthState::kDegraded);  // day 2 == kDegradeDays
}

TEST(HealthTracker, ModerateDayResetsOutageEscalation) {
  // DEGRADED -> OUTAGE needs kDegradeDays *consecutive* very-bad days; a
  // moderately-bad day in between resets the very-bad streak (but keeps
  // the tracker DEGRADED, since it is still below kDegradedBelow).
  HealthTracker t;
  t.step(0.6);
  t.step(0.6);
  ASSERT_EQ(t.state(), HealthState::kDegraded);
  for (int cycle = 0; cycle < 10; ++cycle) {
    EXPECT_EQ(t.step(0.1), HealthState::kDegraded);  // very bad, streak = 1
    EXPECT_EQ(t.step(0.6), HealthState::kDegraded);  // moderate: streak reset
  }
}

TEST(HealthTracker, RecoveryAtExactlyRecoverDays) {
  HealthTracker t;  // 3 good days clear
  t.step(0.6);
  t.step(0.6);
  ASSERT_EQ(t.state(), HealthState::kDegraded);
  EXPECT_EQ(t.step(0.9), HealthState::kDegraded);  // good day 1
  EXPECT_EQ(t.step(0.9), HealthState::kDegraded);  // good day 2
  EXPECT_EQ(t.step(0.9), HealthState::kOk);        // good day 3 == kRecoverDays
}

TEST(HealthTracker, RelapseDuringRecoveryRestartsGoodStreak) {
  HealthTracker t;
  t.step(0.0);
  t.step(0.0);
  ASSERT_EQ(t.state(), HealthState::kOutage);
  // Two good days, then a relapse: the good streak must restart from zero
  // after the tracker re-enters RECOVERING.
  EXPECT_EQ(t.step(0.9), HealthState::kRecovering);
  EXPECT_EQ(t.step(0.9), HealthState::kRecovering);
  EXPECT_EQ(t.step(0.1), HealthState::kOutage);  // relapse on one very-bad day
  EXPECT_EQ(t.step(0.9), HealthState::kRecovering);
  EXPECT_EQ(t.step(0.9), HealthState::kRecovering);
  EXPECT_EQ(t.step(0.9), HealthState::kOk);  // full kRecoverDays again
}

TEST(HealthTracker, ModerateDaysHoldRecoveringWithoutRecovery) {
  // A day above kOutageBelow but below kDegradedBelow leaves OUTAGE for
  // RECOVERING, yet never accumulates the good streak needed to reach OK.
  HealthTracker t;
  t.step(0.0);
  t.step(0.0);
  ASSERT_EQ(t.state(), HealthState::kOutage);
  for (int day = 0; day < 10; ++day)
    EXPECT_EQ(t.step(0.5), HealthState::kRecovering);
  // One very-bad day drops it straight back to OUTAGE.
  EXPECT_EQ(t.step(0.1), HealthState::kOutage);
}

// --- imputation --------------------------------------------------------------

TEST(Imputer, CarryForwardWithinStalenessCap) {
  Imputer imp(2, 1);
  imp.begin_day(0);
  imp.observe(0, 0, 5.0);
  imp.begin_day(kStalenessCapDays);  // exactly at the cap
  EXPECT_TRUE(imp.carry_fresh(0, 0));
  EXPECT_DOUBLE_EQ(imp.impute(0, 0), 5.0);
  imp.begin_day(kStalenessCapDays + 1);  // one day past it
  EXPECT_FALSE(imp.carry_fresh(0, 0));
}

TEST(Imputer, GroupMedianUsesDayCrossSection) {
  // eNodeB 3 has never reported, so there is nothing to carry forward.
  Imputer imp(4, 1);
  imp.begin_day(0);
  imp.observe(0, 0, 1.0);
  imp.observe(1, 0, 2.0);
  imp.observe(2, 0, 9.0);
  EXPECT_DOUBLE_EQ(imp.impute(3, 0), 2.0);
}

TEST(Imputer, GroupMedianFallsBackToCarryWhenDayIsThin) {
  Imputer imp(4, 1);
  imp.begin_day(0);
  imp.observe(3, 0, 7.0);
  imp.begin_day(1);
  imp.observe(0, 0, 1.0);  // fewer than 3 reporters today
  EXPECT_DOUBLE_EQ(imp.impute(3, 0), 7.0);
  // With nothing to carry either, the fleet running median answers: it
  // started at 7 and stepped 5% of (7 + 1) / 2 toward 1.
  EXPECT_FLOAT_EQ(static_cast<float>(imp.impute(1, 0)), 6.8f);
}

// --- pipeline --------------------------------------------------------------

TEST(Pipeline, CleanStreamRoundTrips) {
  const auto& ds = tiny_ds();
  const IngestResult res = ingest_stream(ds, clean_stream(ds));
  EXPECT_EQ(res.report.records_in, ds.total_logs());
  EXPECT_EQ(res.report.records_out, ds.total_logs());
  EXPECT_EQ(res.report.duplicates_dropped, 0);
  EXPECT_EQ(res.report.late_records, 0);
  EXPECT_EQ(res.report.quarantined_records, 0);
  EXPECT_EQ(res.report.values_imputed, 0);
  EXPECT_EQ(res.report.records_synthesized, 0);
  EXPECT_EQ(res.report.days_missing, 0);
  ASSERT_EQ(res.clean.num_days(), ds.num_days());
  for (int d = 0; d < ds.num_days(); d += 97) {
    ASSERT_EQ(res.clean.enbs_on_day(d), ds.enbs_on_day(d));
    for (int i = 0; i < ds.enbs_on_day(d); ++i) {
      const auto a = ds.log_on_day(d, i), b = res.clean.log_on_day(d, i);
      for (std::size_t c = 0; c < a.size(); ++c)
        ASSERT_FLOAT_EQ(a[c], b[c]) << "day " << d << " col " << c;
    }
  }
}

TEST(Pipeline, ImputesCarryForwardForAMissingRecord) {
  const auto& ds = tiny_ds();
  auto stream = clean_stream(ds);
  // Drop eNodeB 0's record on day 400.
  const int day = 400;
  std::vector<float> prev;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].day == day - 1 && stream[i].enb_index == 0)
      prev = stream[i].kpis;
    if (stream[i].day == day && stream[i].enb_index == 0) {
      stream.erase(stream.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  ASSERT_FALSE(prev.empty());
  const IngestResult res = ingest_stream(ds, std::move(stream));
  EXPECT_EQ(res.report.records_synthesized, 1);
  EXPECT_EQ(res.report.values_imputed, ds.num_kpis());
  ASSERT_EQ(res.clean.enbs_on_day(day), ds.enbs_on_day(day));
  ASSERT_EQ(res.clean.enb_on_day(day, 0), 0);
  const auto got = res.clean.log_on_day(day, 0);
  for (std::size_t c = 0; c < got.size(); ++c)
    EXPECT_FLOAT_EQ(got[c], prev[c]) << "col " << c;
}

TEST(Pipeline, QuarantinesImplausibleSpike) {
  const auto& ds = tiny_ds();
  auto stream = clean_stream(ds);
  // A 1e8x spike on one column of one mid-study record.
  for (auto& r : stream) {
    if (r.day == 500 && r.enb_index == 1) {
      r.kpis[0] *= 1e8f;
      break;
    }
  }
  const IngestResult res = ingest_stream(ds, std::move(stream));
  EXPECT_GE(res.report.quarantined_values, 1);
  EXPECT_GE(res.report.values_imputed, 1);
  // The spike must not survive into the clean dataset.
  const auto got = res.clean.log_on_day(500, 1);
  const auto orig = ds.log_on_day(500, 1);
  EXPECT_LT(std::abs(got[0]), std::abs(orig[0]) * 1e7f);
}

TEST(Pipeline, DetectsDeclaredOutageWindow) {
  const auto& ds = tiny_ds();
  FaultSpec spec;
  spec.outage_column = 0;
  spec.outage_start = 600;
  spec.outage_end = 800;
  const IngestResult res = ingest_stream(ds, inject_faults(ds, spec));
  const auto& health = res.kpi_health[0];
  // OUTAGE covers the window (allowing the entry hysteresis lag)...
  int in_window = 0;
  for (int d = 605; d <= 800; ++d)
    in_window += health[static_cast<std::size_t>(d)] == HealthState::kOutage;
  EXPECT_GE(in_window, 190);
  // ...and does not leak far past recovery.
  EXPECT_EQ(std::count(health.begin(), health.begin() + 596,
                       HealthState::kOutage), 0);
  EXPECT_EQ(std::count(health.begin() + 810, health.end(),
                       HealthState::kOutage), 0);
  EXPECT_EQ(res.outage_days(1), 0);  // other columns unaffected
}

TEST(Pipeline, EmitsHealthTransitionAndQuarantineEvents) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DLEAF_OBS=OFF";
  const auto& ds = tiny_ds();
  FaultSpec spec;
  spec.outage_column = 0;
  spec.outage_start = 600;
  spec.outage_end = 800;
  spec.spike_rate = 0.01;
  spec.seed = 7;

  obs::EventLog log;
  const IngestResult res = ingest_stream(ds, inject_faults(ds, spec), &log);
  ASSERT_FALSE(log.empty());

  int transitions = 0, quarantines = 0, into_outage = 0;
  for (const obs::Event& e : log.events()) {
    if (e.kind == obs::EventKind::kHealthTransition) {
      ++transitions;
      EXPECT_GE(e.day, 0);
      EXPECT_NE(e.detail.find("from="), std::string::npos);
      EXPECT_NE(e.detail.find("to="), std::string::npos);
      if (e.detail.find("to=OUTAGE") != std::string::npos) ++into_outage;
    } else if (e.kind == obs::EventKind::kQuarantine) {
      ++quarantines;
      EXPECT_NE(e.detail.find("records="), std::string::npos);
      EXPECT_NE(e.detail.find("values="), std::string::npos);
    }
  }
  // The declared outage must surface as at least one transition into
  // OUTAGE; the spikes as at least one per-day quarantine aggregate.
  EXPECT_GT(transitions, 0);
  EXPECT_GT(into_outage, 0);
  EXPECT_GT(quarantines, 0);

  // The event stream is a pure function of the input: re-ingesting the
  // same faulted stream reproduces it byte-for-byte.
  obs::EventLog log2;
  ingest_stream(ds, inject_faults(ds, spec), &log2);
  EXPECT_EQ(obs::EventLog::to_jsonl(log2.events(), false),
            obs::EventLog::to_jsonl(log.events(), false));
}

// --- end-to-end: run_scheme over a faulted stream --------------------------

TEST(Integration, GuardedRunSchemeDegradesGracefully) {
  const Scale scale = tiny_scale();
  const auto& ds = tiny_ds();
  const data::TargetKpi target = data::TargetKpi::kDVol;
  const int target_col = ds.schema().target_column(target);

  FaultSpec spec = FaultSpec::at_rate(0.05, 7);
  spec.outage_column = target_col;
  spec.outage_start = cal::pu_loss_start();
  spec.outage_end = cal::pu_loss_end();

  const IngestResult ing = ingest_stream(ds, inject_faults(ds, spec));
  EXPECT_GT(ing.report.values_imputed, 0);
  EXPECT_GT(ing.outage_days(target_col), 150);

  const data::Featurizer featurizer(ing.clean, target);
  core::EvalConfig cfg = core::make_eval_config(scale);
  cfg.target_health = ing.kpi_health[static_cast<std::size_t>(target_col)];
  cfg.ingest_report = &ing.report;

  const auto model = models::make_model(models::ModelFamily::kGbdt, scale, 7);
  core::TriggeredScheme scheme;
  const core::EvalResult run =
      core::run_scheme(featurizer, *model, scheme, cfg);

  ASSERT_FALSE(run.nrmse.empty());
  for (double v : run.nrmse) EXPECT_TRUE(std::isfinite(v));
  EXPECT_TRUE(run.degraded.any());
  EXPECT_GT(run.degraded.frozen_detector_days, 0);
  EXPECT_GT(run.degraded.values_imputed, 0);
  // No drift detection inside the declared outage window (entry hysteresis
  // allows the first few days).
  for (int d : run.drift_days)
    EXPECT_FALSE(d >= spec.outage_start + 8 && d <= spec.outage_end)
        << "drift fired at day " << d << " inside the declared outage";
}

TEST(Integration, EmptyAnchorWindowReportsContext) {
  const auto& ds = tiny_ds();
  const data::Featurizer featurizer(ds, data::TargetKpi::kDVol);
  const auto model =
      models::make_model(models::ModelFamily::kGbdt, tiny_scale(), 7);
  core::StaticScheme scheme;
  core::EvalConfig cfg = core::make_eval_config(tiny_scale());
  cfg.anchor_day = ds.num_days() + 500;  // window beyond the data
  try {
    core::run_scheme(featurizer, *model, scheme, cfg);
    FAIL() << "expected run_scheme to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no supervised pairs"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(cfg.anchor_day)), std::string::npos)
        << msg;
  }
}

}  // namespace
}  // namespace leaf::ingest
