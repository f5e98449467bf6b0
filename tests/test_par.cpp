// Tests for the deterministic parallel execution layer (par/) and the
// bit-identical-output contract of every parallel hot path: the same
// numbers must come out at LEAF_THREADS=1 and LEAF_THREADS=4.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <mutex>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "explain/importance.hpp"
#include "io/serializer.hpp"
#include "models/factory.hpp"
#include "models/forest.hpp"
#include "models/knn.hpp"
#include "models/tree.hpp"
#include "par/parallel.hpp"
#include "serve/runtime.hpp"
#include "tree_reference.hpp"

namespace leaf {
namespace {

/// Restores the ambient thread count (the LEAF_THREADS default) when a
/// test that overrides it goes out of scope.
struct ThreadGuard {
  ~ThreadGuard() { par::set_threads(0); }
};

// --- pool / parallel primitives -------------------------------------------

TEST(Par, SetThreadsOverridesWidth) {
  ThreadGuard guard;
  par::set_threads(4);
  EXPECT_EQ(par::threads(), 4);
  par::set_threads(1);
  EXPECT_EQ(par::threads(), 1);
}

TEST(Par, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  par::set_threads(4);
  constexpr std::size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  par::parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Par, ChunksAreContiguousAndCoverTheRange) {
  ThreadGuard guard;
  par::set_threads(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  par::parallel_for_chunks(101, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lk(mu);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  ASSERT_FALSE(ranges.empty());
  EXPECT_LE(ranges.size(), 4u);
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, 101u);
  for (std::size_t i = 1; i < ranges.size(); ++i)
    EXPECT_EQ(ranges[i].first, ranges[i - 1].second);
}

TEST(Par, ParallelMapReturnsResultsInIndexOrder) {
  ThreadGuard guard;
  par::set_threads(4);
  const auto v =
      par::parallel_map(1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(v.size(), 1000u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], i * i);
}

TEST(Par, ExceptionPropagatesAndPoolSurvives) {
  ThreadGuard guard;
  par::set_threads(4);
  EXPECT_THROW(par::parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must be quiescent and reusable after a throwing job.
  std::atomic<int> count{0};
  par::parallel_for(100, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(Par, NestedChunksRunOnMoreThanOneThread) {
  ThreadGuard guard;
  for (int threads : {2, 4}) {
    par::set_threads(threads);
    std::mutex mu;
    std::set<std::thread::id> ran_on;
    // Outer chunk 0 is long: its nested chunks sleep.  Every other outer
    // chunk returns at once, so its thread (an idle worker, or the outer
    // submitter waiting for chunk 0) is free to take nested chunks.
    par::parallel_for(static_cast<std::size_t>(threads), [&](std::size_t i) {
      if (i != 0) return;
      par::parallel_for(8, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const std::lock_guard<std::mutex> lk(mu);
        ran_on.insert(std::this_thread::get_id());
      });
    });
    EXPECT_GT(ran_on.size(), 1u) << "threads=" << threads;
  }
}

TEST(Par, ThreeNestingLevelsFinishWithoutDeadlock) {
  ThreadGuard guard;
  for (int threads : {1, 2, 4}) {
    par::set_threads(threads);
    std::atomic<int> total{0};
    par::parallel_for(5, [&](std::size_t) {
      par::parallel_for(6, [&](std::size_t) {
        par::parallel_for(7, [&](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
    EXPECT_EQ(total.load(), 5 * 6 * 7) << "threads=" << threads;
  }
}

TEST(Par, NestedExceptionReachesNestedSubmitter) {
  ThreadGuard guard;
  for (int threads : {2, 4}) {
    par::set_threads(threads);
    std::vector<int> caught(4, 0);
    par::parallel_for(4, [&](std::size_t i) {
      try {
        par::parallel_for(16, [&](std::size_t j) {
          if (j == 3 + i) throw std::runtime_error("nested boom");
        });
      } catch (const std::runtime_error&) {
        caught[i] = 1;
      }
    });
    EXPECT_EQ(caught, std::vector<int>(4, 1)) << "threads=" << threads;
    // Nothing leaks to the outer submitter, and the pool stays usable.
    std::atomic<int> count{0};
    par::parallel_for(4, [&](std::size_t) {
      par::parallel_for(25, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(count.load(), 100) << "threads=" << threads;
  }
}

// --- counter-based sub-streams --------------------------------------------

TEST(Substream, DoesNotAdvanceTheParent) {
  Rng a(9), b(9);
  (void)a.substream(3);
  (void)a.substream(12345);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Substream, IsAPureFunctionOfParentStateAndIndex) {
  const Rng parent(42);
  Rng s1 = parent.substream(7);
  Rng s2 = parent.substream(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s1(), s2());
}

TEST(Substream, DistinctIndicesGiveIndependentStreams) {
  const Rng parent(42);
  Rng s0 = parent.substream(0);
  Rng s1 = parent.substream(1);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (s0() == s1()) ++same;
  EXPECT_LT(same, 2);
}

// --- golden determinism of the parallel hot paths -------------------------

struct SynthProblem {
  Matrix X{600, 6};
  std::vector<double> y;
  Matrix X_test{200, 6};

  SynthProblem() {
    Rng rng(77);
    y.resize(X.rows());
    const auto fill = [&](Matrix& m) {
      for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rng.normal();
    };
    fill(X);
    fill(X_test);
    for (std::size_t r = 0; r < X.rows(); ++r)
      y[r] = 2.0 * X(r, 0) - X(r, 1) + 0.1 * rng.normal();
  }
};

TEST(Determinism, ForestFitIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const SynthProblem p;
  for (const models::ForestConfig cfg :
       {models::ForestConfig::random_forest(24, 5),
        models::ForestConfig::extra_trees(24, 5)}) {
    const auto fit_and_predict = [&] {
      models::Forest f(cfg, "F");
      f.fit(p.X, p.y);
      return f.predict(p.X_test);
    };
    par::set_threads(1);
    const std::vector<double> serial = fit_and_predict();
    par::set_threads(4);
    const std::vector<double> parallel = fit_and_predict();
    EXPECT_EQ(serial, parallel);
  }
}

TEST(Determinism, PredictIntoMatchesPredict) {
  ThreadGuard guard;
  par::set_threads(4);
  const SynthProblem p;
  models::Forest f(models::ForestConfig::random_forest(16, 3), "F");
  f.fit(p.X, p.y);
  const std::vector<double> a = f.predict(p.X_test);
  std::vector<double> b(p.X_test.rows());
  f.predict_into(p.X_test, b);
  EXPECT_EQ(a, b);

  // A KNN restored from a snapshot, predicted on 4 pool threads from its
  // first call on, matches its serial predictions.
  models::Knn fitted;
  fitted.fit(p.X, p.y);
  io::Serializer out;
  fitted.save(out);
  io::Deserializer in(out.bytes());
  const std::unique_ptr<models::Knn> knn = models::Knn::load(in);
  std::vector<double> parallel(p.X_test.rows());
  knn->predict_into(p.X_test, parallel);
  par::set_threads(1);
  EXPECT_EQ(knn->predict(p.X_test), parallel);
  EXPECT_EQ(fitted.predict(p.X_test), parallel);
}

TEST(Determinism, PermutationImportanceIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const SynthProblem p;
  par::set_threads(1);
  models::Forest f(models::ForestConfig::random_forest(16, 3), "F");
  f.fit(p.X, p.y);

  const auto score = [&](Rng& rng) {
    return explain::permutation_importance(f, p.X, p.y, 4.0, rng);
  };
  Rng rng1(5), rng2(5);
  const std::vector<double> serial = score(rng1);
  par::set_threads(4);
  const std::vector<double> parallel = score(rng2);
  EXPECT_EQ(serial, parallel);
  // The caller-visible generator must advance identically on both paths.
  EXPECT_EQ(rng1(), rng2());
}

// Full-pipeline golden runs on the shared tiny dataset.

Scale par_scale() {
  Scale s = Scale::for_level(Scale::Level::kSmall);
  s.fixed_enbs = 6;
  s.num_kpis = 16;
  s.gbdt_trees = 15;
  s.eval_stride_days = 4;
  return s;
}

const data::CellularDataset& par_ds() {
  static const data::CellularDataset d =
      data::generate_fixed_dataset(par_scale(), 42);
  return d;
}

void expect_same_run(const core::EvalResult& a, const core::EvalResult& b) {
  EXPECT_EQ(a.days, b.days);
  EXPECT_EQ(a.nrmse, b.nrmse);
  EXPECT_EQ(a.mean_ne, b.mean_ne);
  EXPECT_EQ(a.retrain_days, b.retrain_days);
  EXPECT_EQ(a.drift_days, b.drift_days);
  EXPECT_EQ(a.ne_p95, b.ne_p95);
}

TEST(Determinism, RunSchemeIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const data::Featurizer f(par_ds(), data::TargetKpi::kDVol);
  const double dispersion =
      core::kpi_dispersion(par_ds(), data::TargetKpi::kDVol);
  const auto run = [&] {
    const auto model =
        models::make_model(models::ModelFamily::kGbdt, par_scale(), 1);
    const auto scheme = core::make_scheme("LEAF", dispersion, 7);
    return core::run_scheme(f, *model, *scheme,
                            core::make_eval_config(par_scale()));
  };
  par::set_threads(1);
  const core::EvalResult serial = run();
  par::set_threads(4);
  const core::EvalResult parallel = run();
  expect_same_run(serial, parallel);
}

// Tree fits inside an outer region (a shard's retrain inside the fleet
// step) share the pool with their siblings: the grower's split scans run
// as nested jobs on whichever thread is free.
TEST(Determinism, TreeFitsNestedInAnOuterRegionMatchSerial) {
  ThreadGuard guard;
  const SynthProblem p;
  for (const models::ModelFamily family :
       {models::ModelFamily::kGbdt, models::ModelFamily::kLightGbdt,
        models::ModelFamily::kRandomForest,
        models::ModelFamily::kExtraTrees}) {
    SCOPED_TRACE(models::to_string(family));
    const auto fit_and_predict = [&] {
      const auto model = models::make_model(family, par_scale(), 3);
      model->fit(p.X, p.y);
      return model->predict(p.X_test);
    };
    par::set_threads(1);
    const std::vector<double> serial = fit_and_predict();
    for (int threads : {2, 4}) {
      par::set_threads(threads);
      std::vector<std::vector<double>> nested(3);
      par::parallel_for(nested.size(),
                        [&](std::size_t i) { nested[i] = fit_and_predict(); });
      for (const std::vector<double>& v : nested)
        EXPECT_EQ(v, serial) << "threads=" << threads;
    }
  }
}

// The fleet step nests every shard's fit, explain and validate work inside
// its per-shard region; results, event streams and the telemetry store
// must not depend on which thread ran which nested chunk.
TEST(Determinism, FleetFingerprintsMatchAtOneTwoAndFourThreads) {
  ThreadGuard guard;
  const std::vector<serve::ShardSpec> specs = {
      {data::TargetKpi::kDVol, models::ModelFamily::kGbdt, "LEAF", 0},
      {data::TargetKpi::kPU, models::ModelFamily::kRandomForest, "LEAF", 0},
      {data::TargetKpi::kDTP, models::ModelFamily::kExtraTrees, "Triggered", 0}};
  struct Run {
    std::vector<core::EvalResult> results;
    std::string fingerprints;
  };
  const auto run = [&] {
    serve::FleetRuntime fleet(par_ds(), par_scale(), specs);
    fleet.run_steps(UINT64_MAX);
    std::ostringstream os;
    os << fleet.telemetry().fingerprint() << '\n'
       << fleet.events_jsonl(false) << fleet.supervision_jsonl(false);
    return Run{fleet.results(), os.str()};
  };
  par::set_threads(1);
  const Run serial = run();
  // The LEAF shards mitigated, so explain and validate work was nested.
  EXPECT_FALSE(serial.results[0].retrain_days.empty());
  EXPECT_FALSE(serial.results[1].retrain_days.empty());
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::set_threads(threads);
    const Run parallel = run();
    EXPECT_EQ(serial.fingerprints, parallel.fingerprints);
    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i)
      expect_same_run(serial.results[i], parallel.results[i]);
  }
}

TEST(Determinism, CompareSchemesIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::vector<std::string> specs = {"Static", "Triggered"};
  const std::uint64_t seeds[] = {11};
  const auto grid = [&] {
    return core::compare_schemes(par_ds(), data::TargetKpi::kDVol,
                                 models::ModelFamily::kGbdt, par_scale(),
                                 specs, seeds);
  };
  par::set_threads(1);
  const auto serial = grid();
  par::set_threads(4);
  const auto parallel = grid();
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    EXPECT_EQ(serial[s].scheme, parallel[s].scheme);
    EXPECT_EQ(serial[s].avg_nrmse, parallel[s].avg_nrmse);
    EXPECT_EQ(serial[s].delta_pct, parallel[s].delta_pct);
    EXPECT_EQ(serial[s].retrains, parallel[s].retrains);
    EXPECT_EQ(serial[s].ne_p95, parallel[s].ne_p95);
    EXPECT_EQ(serial[s].static_nrmse, parallel[s].static_nrmse);
  }
  // The "Static" arm reuses the baseline run outright, so its ΔNRMSE̅ is
  // exactly zero — by identity, not by luck of averaging.
  EXPECT_EQ(serial[0].delta_pct, 0.0);
  EXPECT_EQ(serial[0].retrains, 0.0);
}

// --- pinned fits of every tree family --------------------------------------
//
// The cross-thread tests compare new code with new code, so a grower change
// that moved a LightGBDT column sample, a forest bootstrap or an
// Extra-Trees cut would pass them.  These constants were computed by the
// grower that scanned every bin of a node's histogram, before it learned to
// skip the bins a node never touched; every later grower optimization must
// keep them.

TEST(Determinism, FamilyFitsMatchPinnedSnapshotBytes) {
  const SynthProblem p;
  // Weights with zeros: every fifth row carries no weight at all.
  std::vector<double> zero_w(p.X.rows());
  for (std::size_t r = 0; r < zero_w.size(); ++r)
    zero_w[r] = r % 5 == 0 ? 0.0 : 0.5 + 0.25 * static_cast<double>(r % 7);
  // A constant column (one bin, never split on) and a column with +-inf.
  Matrix X_odd = p.X;
  for (std::size_t r = 0; r < X_odd.rows(); ++r) {
    X_odd(r, 2) = 3.0;
    if (r % 11 == 0) X_odd(r, 3) = std::numeric_limits<double>::infinity();
    if (r % 13 == 0) X_odd(r, 3) = -std::numeric_limits<double>::infinity();
  }
  struct Case {
    const char* name;
    const Matrix* X;
    std::span<const double> w;
  };
  const Case cases[] = {{"unit", &p.X, {}},
                        {"zero-weights", &p.X, zero_w},
                        {"const+inf", &X_odd, {}}};
  const models::ModelFamily families[] = {
      models::ModelFamily::kGbdt, models::ModelFamily::kLightGbdt,
      models::ModelFamily::kRandomForest, models::ModelFamily::kExtraTrees,
      models::ModelFamily::kKnn};
  // [family][case], in the order above.  KNN's const+inf bytes hold the
  // standardizer moments of +inf and -inf rows, i.e. the default NaN, whose
  // sign bit is x86-64's (0xfff8...); AArch64's default NaN is positive.
  const std::uint64_t want[5][3] = {
      {0x53e0d9785e6ffa34ULL, 0x4e0a9315cc909c57ULL, 0xb81326649bca92a6ULL},
      {0x1c61399f49ffebc5ULL, 0x984320024cd36bcbULL, 0xa53a47193f381cd0ULL},
      {0xae030111451577f5ULL, 0x6fb28028b373e762ULL, 0x9de21f09a11fe0b4ULL},
      {0x42653d66faa20e2bULL, 0x0c0dd6999b508e76ULL, 0xb0d7f3eb65c11414ULL},
      {0x8f2b7aca81a1f294ULL, 0xaaf71e3f71e4cd90ULL, 0x36764d33f0d9064dULL},
  };
  for (std::size_t f = 0; f < std::size(families); ++f) {
    for (std::size_t c = 0; c < std::size(cases); ++c) {
      SCOPED_TRACE(models::to_string(families[f]) + " " + cases[c].name);
      const auto model = models::make_model(families[f], par_scale(), 3);
      model->fit(*cases[c].X, p.y, cases[c].w);
      io::Serializer out;
      model->save(out);
      const std::span<const std::uint8_t> bytes = out.bytes();
      const std::uint64_t got = fnv1a(bytes.data(), bytes.size());
      EXPECT_EQ(got, want[f][c]) << std::hex << "0x" << got;
    }
  }
}

// One bare tree on 256 bins: node touched-bin sets then cross the 64-bit
// words of a 256-bin mask (bins 63/64, 127/128) and reach bin 255.
TEST(Determinism, DecisionTreeOn256BinsMatchesPinnedPredictions) {
  Rng rng(91);
  Matrix X(1500, 4);
  std::vector<double> y(X.rows()), w(X.rows());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    for (std::size_t c = 0; c < X.cols(); ++c) X(r, c) = rng.normal();
    y[r] = std::sin(3.0 * X(r, 0)) + X(r, 1) * X(r, 2) + 0.1 * rng.normal();
    w[r] = r % 9 == 0 ? 0.0 : 1.0 + rng.uniform();
  }
  const models::BinnedData bd(X, 256);
  for (std::size_t c = 0; c < X.cols(); ++c) ASSERT_EQ(bd.num_bins(c), 256);

  models::TreeConfig exhaustive;
  exhaustive.max_depth = 12;
  exhaustive.min_samples_leaf = 2;
  models::TreeConfig extra = exhaustive;
  extra.random_thresholds = true;
  extra.features_per_split = 2;
  struct Case {
    const char* name;
    models::TreeConfig cfg;
    std::span<const double> w;
    std::uint64_t want;
  };
  const Case cases[] = {
      {"exhaustive", exhaustive, {}, 0xeaf0d151601ad8ecULL},
      {"exhaustive weighted", exhaustive, w, 0x2dfc946a5f217289ULL},
      {"extra-trees weighted", extra, w, 0x1d85a884b8f348d6ULL}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Rng tree_rng(17);
    const leaf::testing::SavedTree tree =
        leaf::testing::grow_tree(bd, y, c.w, {}, c.cfg, tree_rng);
    std::vector<double> pred(X.rows());
    for (std::size_t r = 0; r < X.rows(); ++r)
      pred[r] = leaf::testing::walk(tree, X.row(r));
    const std::uint64_t got = fnv1a(pred.data(), pred.size() * sizeof(double));
    EXPECT_EQ(got, c.want) << std::hex << "0x" << got;
  }
}

}  // namespace
}  // namespace leaf
