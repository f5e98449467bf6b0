// Pins grown trees byte for byte: the save_regressor bytes of every tree
// family and the FlatTrees::save bytes of single trees grown on a row
// subset, each hashed with FNV-1a, at LEAF_THREADS 1/2/4 with the vector
// kernels on and off.  The constants are the bytes a one-node-at-a-time
// depth-first grower writes; any change to how nodes are searched,
// scheduled or numbered that moves one byte fails here.  Also checks that BinnedData with a
// BinEdgeCache gives the same tallies, codes and cache state at any
// thread count over a run of sliding windows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "io/serializer.hpp"
#include "models/factory.hpp"
#include "models/gbdt.hpp"
#include "models/tree.hpp"
#include "par/pool.hpp"
#include "simd/simd.hpp"

namespace leaf::models {
namespace {

struct ThreadAndSimdGuard {
  bool simd = simd::vector_active();
  ~ThreadAndSimdGuard() {
    par::set_threads(0);
    simd::set_vector_active(simd);
  }
};

std::uint64_t hash_bytes(const io::Serializer& out) {
  return fnv1a(out.bytes().data(), out.bytes().size());
}

/// 260 rows x 10 columns: column 3 is constant, column 6 holds NaN, +inf
/// and -inf among normal values, column 8 takes eight tied values.  The
/// target reads only finite columns.
struct GoldenData {
  Matrix X{260, 10};
  std::vector<double> y, w;
  std::vector<std::size_t> subset;

  GoldenData() {
    Rng rng(2718);
    const double inf = std::numeric_limits<double>::infinity();
    y.resize(X.rows());
    w.resize(X.rows());
    for (std::size_t r = 0; r < X.rows(); ++r) {
      for (std::size_t c = 0; c < X.cols(); ++c) X(r, c) = rng.normal();
      X(r, 3) = 2.5;
      if (r % 17 == 5) X(r, 6) = std::numeric_limits<double>::quiet_NaN();
      if (r % 23 == 7) X(r, 6) = inf;
      if (r % 29 == 11) X(r, 6) = -inf;
      X(r, 8) = static_cast<double>(r % 8);
      y[r] = 2.0 * X(r, 0) - X(r, 1) * X(r, 2) + 0.5 * X(r, 8) +
             0.1 * rng.normal();
      w[r] = rng.uniform(0.2, 2.0);
      if (r % 3 != 1) subset.push_back(r);
    }
  }
};

struct Golden {
  const char* what;
  std::uint64_t hash;
};

/// FNV-1a of the saved bytes, the same at every thread count and SIMD
/// setting.
constexpr Golden kGoldens[] = {
    {"GBDT/unweighted", 0x6815fb63106ec3f0ULL},
    {"GBDT/weighted", 0xa8fd75e21c45bb5bULL},
    {"LightGBDT/unweighted", 0x5116205e9b90cb5eULL},
    {"LightGBDT/weighted", 0xc2b6958b766df15bULL},
    {"RandomForest/unweighted", 0x80090f977e9726b4ULL},
    {"RandomForest/weighted", 0x560a616fbe4449d6ULL},
    {"ExtraTrees/unweighted", 0x7435f2a3a2a6d37aULL},
    {"ExtraTrees/weighted", 0xcb7e1aae91016343ULL},
    {"tree/catboost_like", 0x36fe9d9c571a2fe3ULL},
    {"tree/lightgbm_like", 0x57fd76438bdfae4bULL},
    {"tree/random_forest", 0xbf70901812dea6a9ULL},
    {"tree/extra_trees", 0xf614e27fa71bdbbcULL},
};

/// Every hash kGoldens names, computed on GoldenData.
std::vector<std::uint64_t> grown_hashes() {
  const GoldenData d;
  std::vector<std::uint64_t> out;
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  for (const ModelFamily f :
       {ModelFamily::kGbdt, ModelFamily::kLightGbdt,
        ModelFamily::kRandomForest, ModelFamily::kExtraTrees}) {
    for (const bool weighted : {false, true}) {
      const auto model = make_model(f, scale, 31);
      model->fit(d.X, d.y, weighted ? std::span<const double>(d.w)
                                    : std::span<const double>());
      io::Serializer bytes;
      save_regressor(bytes, *model);
      out.push_back(hash_bytes(bytes));
    }
  }

  // Single weighted trees on an explicit row subset, one per family's
  // split-search settings (GBDT resolves LightGBDT's 0 the same way).
  const BinnedData bd(d.X, 64);
  TreeConfig catboost = GbdtConfig::catboost_like(1, 0).tree;
  TreeConfig lightgbm = GbdtConfig::lightgbm_like(1, 0).tree;
  lightgbm.features_per_split = 6;
  TreeConfig forest;
  forest.max_depth = 14;
  forest.min_samples_leaf = 2;
  forest.features_per_split = 8;
  TreeConfig extra = forest;
  extra.random_thresholds = true;
  for (const TreeConfig& cfg : {catboost, lightgbm, forest, extra}) {
    FlatTrees trees;
    Rng rng(99);
    trees.grow(bd, d.y, d.w, d.subset, cfg, rng);
    trees.grow(bd, d.y, {}, {}, cfg, rng);  // a second tree, same store
    io::Serializer bytes;
    trees.save(bytes);
    out.push_back(hash_bytes(bytes));
  }
  return out;
}

/// (LEAF thread count, vector kernels on)
class GrowerGoldenTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(GrowerGoldenTest, SavedBytesMatchRecordedTrees) {
  const ThreadAndSimdGuard guard;
  const auto [threads, simd_on] = GetParam();
  par::set_threads(threads);
  simd::set_vector_active(simd_on);
  const std::vector<std::uint64_t> got = grown_hashes();
  ASSERT_EQ(got.size(), std::size(kGoldens));
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], kGoldens[i].hash)
        << kGoldens[i].what << ": got 0x" << std::hex << got[i];
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSimd, GrowerGoldenTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(true, false)),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return "threads" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_simd" : "_scalar");
    });

/// What one thread count makes of a run of sliding windows binned through
/// one cache: the tallies after each window, a hash of each window's
/// codes, and the final cache bytes.
struct CacheRun {
  std::vector<std::size_t> tallies;
  std::vector<std::uint64_t> codes;
  std::uint64_t cache_bytes = 0;
};

CacheRun bin_sliding_windows(int threads) {
  par::set_threads(threads);
  // 24 columns over 900 steps: stationary, upward-trending (extends), a
  // level shift inside the old range (rebuilds), tied values, a constant.
  constexpr std::size_t kSteps = 900, kCols = 24, kWindow = 300,
                        kStride = 50;
  Rng rng(4242);
  Matrix series(kSteps, kCols);
  for (std::size_t t = 0; t < kSteps; ++t) {
    for (std::size_t c = 0; c < kCols; ++c) {
      const double tt = static_cast<double>(t);
      switch (c % 6) {
        case 0: series(t, c) = rng.uniform(); break;
        case 1: series(t, c) = 0.01 * tt + rng.normal(); break;
        case 2:
          series(t, c) = t < 500 ? rng.uniform(0.0, 1.0)
                                 : rng.uniform(0.45, 0.55);
          break;
        case 3:
          series(t, c) = static_cast<double>(t % 5 + t / 100);
          break;
        case 4: series(t, c) = 1.0; break;
        default: series(t, c) = rng.normal() * (1.0 + tt / 300.0); break;
      }
    }
  }
  CacheRun run;
  BinEdgeCache cache;
  for (std::size_t begin = 0; begin + kWindow <= kSteps; begin += kStride) {
    Matrix window(kWindow, kCols);
    for (std::size_t r = 0; r < kWindow; ++r)
      for (std::size_t c = 0; c < kCols; ++c)
        window(r, c) = series(begin + r, c);
    const BinnedData bd(window, 64, &cache);
    run.tallies.insert(run.tallies.end(),
                       {cache.reused(), cache.extended(), cache.rebuilt()});
    std::uint64_t h = kFnvOffset;
    for (std::size_t c = 0; c < kCols; ++c) {
      h = fnv1a(bd.codes_col(c), kWindow, h);
      for (int b = 0; b + 1 < bd.num_bins(c); ++b) {
        const double e = bd.threshold(c, b);
        h = fnv1a(&e, sizeof e, h);
      }
    }
    run.codes.push_back(h);
  }
  io::Serializer bytes;
  cache.save(bytes);
  run.cache_bytes = hash_bytes(bytes);
  return run;
}

TEST(BinnedDataThreads, SlidingWindowCacheIsThreadCountFree) {
  const ThreadAndSimdGuard guard;
  const CacheRun serial = bin_sliding_windows(1);
  // The run reaches all three cache outcomes.
  const std::size_t n = serial.tallies.size();
  ASSERT_GE(n, 3u);
  EXPECT_GT(serial.tallies[n - 3], 0u);  // reused
  EXPECT_GT(serial.tallies[n - 2], 0u);  // extended
  EXPECT_GT(serial.tallies[n - 1], 24u);  // rebuilt past the first window
  for (const int threads : {2, 4}) {
    const CacheRun run = bin_sliding_windows(threads);
    EXPECT_EQ(run.tallies, serial.tallies) << threads << " threads";
    EXPECT_EQ(run.codes, serial.codes) << threads << " threads";
    EXPECT_EQ(run.cache_bytes, serial.cache_bytes) << threads << " threads";
  }
}

}  // namespace
}  // namespace leaf::models
