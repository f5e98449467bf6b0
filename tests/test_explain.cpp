// Unit tests for the explainer (explain/): permutation importance,
// correlation grouping, and LEA / LEAplot / LEAgram.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "explain/grouping.hpp"
#include "explain/importance.hpp"
#include "explain/lea.hpp"
#include "models/factory.hpp"
#include "models/gbdt.hpp"
#include "models/ridge.hpp"
#include "par/pool.hpp"
#include "simd/simd.hpp"

namespace leaf::explain {
namespace {

/// y = 5*x0 + noise; x1 strongly correlated with x0; x2 independent noise.
struct CorrelatedProblem {
  Matrix X;
  std::vector<double> y;

  explicit CorrelatedProblem(std::size_t n = 600) {
    Rng rng(21);
    X = Matrix(n, 3);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double base = rng.normal();
      X(i, 0) = base;
      X(i, 1) = base + 0.1 * rng.normal();  // corr ~ 0.995 with x0
      X(i, 2) = rng.normal();               // noise
      y[i] = 5.0 * base + 0.2 * rng.normal();
    }
  }
};

TEST(Importance, InformativeFeatureRanksAboveNoise) {
  const CorrelatedProblem p;
  models::Ridge model;
  model.fit(p.X, p.y);
  Rng rng(1);
  const auto scores = permutation_importance(model, p.X, p.y, 1.0, rng);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_GT(scores[0], scores[2]);
  EXPECT_GT(scores[0], 0.1);
  EXPECT_NEAR(scores[2], 0.0, 0.05);
}

TEST(Importance, RowSubsamplingStillFindsSignal) {
  const CorrelatedProblem p(2000);
  models::Ridge model;
  model.fit(p.X, p.y);
  Rng rng(1);
  ImportanceConfig cfg;
  cfg.max_rows = 100;  // force subsampling
  const auto scores = permutation_importance(model, p.X, p.y, 1.0, rng, cfg);
  EXPECT_GT(scores[0], scores[2]);
}

TEST(Importance, EmptyInputSafe) {
  models::Ridge model;
  Matrix empty(0, 2);
  Rng rng(1);
  const auto scores = permutation_importance(model, empty, {}, 1.0, rng);
  EXPECT_EQ(scores, (std::vector<double>{0.0, 0.0}));
}

/// Forwards predictions to a fitted model but keeps Regressor's default
/// column sweep: the model-agnostic reference path.
class DefaultSweep final : public models::Regressor {
 public:
  explicit DefaultSweep(const models::Regressor& inner) : inner_(inner) {}
  void fit(const Matrix&, std::span<const double>,
           std::span<const double>) override {
    ADD_FAILURE() << "DefaultSweep only predicts";
  }
  double predict_one(std::span<const double> x) const override {
    return inner_.predict_one(x);
  }
  void predict_into(const Matrix& X, std::span<double> out) const override {
    inner_.predict_into(X, out);
  }
  std::unique_ptr<models::Regressor> clone_untrained() const override {
    return inner_.clone_untrained();
  }
  std::string name() const override { return inner_.name(); }
  bool trained() const override { return inner_.trained(); }

 private:
  const models::Regressor& inner_;
};

/// (family, LEAF thread count, vector kernels active)
class TreeImportanceTest
    : public ::testing::TestWithParam<
          std::tuple<models::ModelFamily, int, bool>> {};

// Tree ensembles score through their own column sweep; the scores, and
// the caller's generator, must match the default sweep's bit for bit,
// including on rows holding NaN or +-inf in some column.
TEST_P(TreeImportanceTest, MatchesDefaultSweepBitForBit) {
  struct Restore {
    bool simd = simd::vector_active();
    ~Restore() {
      par::set_threads(0);
      simd::set_vector_active(simd);
    }
  } restore;
  const auto [family, threads, vector_on] = GetParam();
  par::set_threads(threads);
  simd::set_vector_active(vector_on);
  const CorrelatedProblem p(300);
  const auto model =
      models::make_model(family, Scale::for_level(Scale::Level::kSmall), 4);
  model->fit(p.X, p.y);
  Matrix X = p.X;
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  for (std::size_t r = 2; r < X.rows(); r += 7)
    X(r, r % X.cols()) = specials[r % 3];

  ImportanceConfig cfg;
  cfg.repeats = 2;
  cfg.max_rows = 200;  // subsampled, as LEAF's windows can be
  Rng rng_tree(8), rng_ref(8);
  const std::vector<double> got =
      permutation_importance(*model, X, p.y, 1.0, rng_tree, cfg);
  const std::vector<double> want =
      permutation_importance(DefaultSweep(*model), X, p.y, 1.0, rng_ref, cfg);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[c]),
              std::bit_cast<std::uint64_t>(want[c]))
        << "column " << c;
  EXPECT_EQ(rng_tree(), rng_ref());

  // Scoring a prefix of the columns keeps each scored column's bits.
  cfg.scored_columns = 2;
  Rng rng_prefix(8);
  const std::vector<double> prefix =
      permutation_importance(*model, X, p.y, 1.0, rng_prefix, cfg);
  EXPECT_EQ(prefix, (std::vector<double>{got[0], got[1], 0.0}));
}

INSTANTIATE_TEST_SUITE_P(
    TreeFamilies, TreeImportanceTest,
    ::testing::Combine(::testing::Values(models::ModelFamily::kGbdt,
                                         models::ModelFamily::kLightGbdt,
                                         models::ModelFamily::kRandomForest,
                                         models::ModelFamily::kExtraTrees),
                       ::testing::Values(1, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<
        std::tuple<models::ModelFamily, int, bool>>& info) {
      return models::to_string(std::get<0>(info.param)) + "_threads" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_simd" : "_scalar");
    });

TEST(Grouping, CorrelatedFeaturesShareAGroup) {
  const CorrelatedProblem p;
  const std::vector<double> importance = {1.0, 0.8, 0.5};
  const auto groups = group_features(p.X, importance);
  ASSERT_GE(groups.size(), 2u);
  // Group 1: x0 (rep) absorbs x1; group 2: x2 alone.
  EXPECT_EQ(groups[0].representative, 0);
  EXPECT_EQ(groups[0].members.size(), 2u);
  EXPECT_EQ(groups[1].representative, 2);
  EXPECT_EQ(groups[1].members.size(), 1u);
}

TEST(Grouping, RepresentativeHasHighestImportance) {
  const CorrelatedProblem p;
  // x1 more important than x0: x1 becomes the representative.
  const std::vector<double> importance = {0.5, 1.0, 0.2};
  const auto groups = group_features(p.X, importance);
  ASSERT_FALSE(groups.empty());
  EXPECT_EQ(groups[0].representative, 1);
}

TEST(Grouping, MaxGroupsHonored) {
  const CorrelatedProblem p;
  const std::vector<double> importance = {1.0, 0.8, 0.5};
  const auto groups = group_features(p.X, importance, 1);
  EXPECT_EQ(groups.size(), 1u);
}

TEST(Grouping, ZeroImportanceFeaturesNeverFoundAGroup) {
  const CorrelatedProblem p;
  const std::vector<double> importance = {1.0, 0.8, 0.0};
  const auto groups = group_features(p.X, importance);
  // x2 has no importance: only the correlated pair forms a group.
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].representative, 0);
}

TEST(Grouping, GroupsOrderedByImportance) {
  const CorrelatedProblem p;
  const std::vector<double> importance = {0.3, 0.2, 0.9};
  const auto groups = group_features(p.X, importance);
  ASSERT_GE(groups.size(), 2u);
  EXPECT_EQ(groups[0].representative, 2);
  EXPECT_GE(groups[0].importance, groups[1].importance);
}

TEST(Grouping, ThresholdControlsAbsorption) {
  // x1 correlates with x0 at about 0.75 and x2 at about 0.65, either side
  // of the 0.7 grouping threshold.
  Rng rng(22);
  Matrix X(2000, 3);
  for (std::size_t i = 0; i < X.rows(); ++i) {
    const double base = rng.normal();
    X(i, 0) = base;
    X(i, 1) = base + 0.882 * rng.normal();
    X(i, 2) = base + 1.169 * rng.normal();
  }
  const std::vector<double> x0 = X.col(0);
  ASSERT_GT(stats::pearson(x0, X.col(1)), 0.7);
  ASSERT_LT(stats::pearson(x0, X.col(2)), 0.7);
  ASSERT_GT(stats::pearson(x0, X.col(2)), 0.6);

  const std::vector<double> importance = {1.0, 0.5, 0.4};
  const auto groups = group_features(X, importance);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members, (std::vector<int>{0, 1}));
  EXPECT_EQ(groups[1].members, (std::vector<int>{2}));
}

// --- LEA -------------------------------------------------------------------

TEST(Lea, BinEdgesAreSortedUnique) {
  Rng rng(2);
  std::vector<double> v(500);
  for (auto& x : v) x = rng.normal();
  const auto edges = lea_bin_edges(v, 10);
  ASSERT_EQ(edges.size(), 9u);
  for (std::size_t i = 1; i < edges.size(); ++i)
    EXPECT_LT(edges[i - 1], edges[i]);
}

TEST(Lea, BinEdgesDedupeOnTies) {
  const std::vector<double> v(100, 1.0);
  const auto edges = lea_bin_edges(v, 10);
  EXPECT_LE(edges.size(), 1u);
}

TEST(Lea, BinOfPlacesValues) {
  const std::vector<double> edges = {1.0, 2.0, 3.0};
  EXPECT_EQ(lea_bin_of(0.5, edges), 0u);
  EXPECT_EQ(lea_bin_of(1.0, edges), 0u);  // an edge belongs to its left bin
  EXPECT_EQ(lea_bin_of(1.5, edges), 1u);
  EXPECT_EQ(lea_bin_of(2.5, edges), 2u);
  EXPECT_EQ(lea_bin_of(99.0, edges), 3u);
}

TEST(Lea, PerBinErrorsComputedCorrectly) {
  // Two bins: feature < 0 perfectly predicted, feature >= 0 off by 2.
  const std::vector<double> fv = {-1.0, -0.5, 0.5, 1.0};
  const std::vector<double> truth = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> pred = {1.0, 1.0, 3.0, 3.0};
  const std::vector<double> edges = {0.0};
  const LeaResult lea = compute_lea(pred, truth, fv, 0, 4.0, edges);
  ASSERT_EQ(lea.num_bins(), 2u);
  EXPECT_EQ(lea.count[0], 2u);
  EXPECT_EQ(lea.count[1], 2u);
  EXPECT_DOUBLE_EQ(lea.error[0], 0.0);
  EXPECT_DOUBLE_EQ(lea.error[1], 0.5);  // RMSE 2 / range 4
}

TEST(Lea, EmptyBinsHaveZeroErrorAndCount) {
  const std::vector<double> fv = {10.0};
  const std::vector<double> truth = {0.0};
  const std::vector<double> pred = {1.0};
  const std::vector<double> edges = {0.0, 5.0};
  const LeaResult lea = compute_lea(pred, truth, fv, 0, 1.0, edges);
  EXPECT_EQ(lea.count[0], 0u);
  EXPECT_EQ(lea.count[1], 0u);
  EXPECT_EQ(lea.count[2], 1u);
  EXPECT_DOUBLE_EQ(lea.error[0], 0.0);
  EXPECT_DOUBLE_EQ(lea.error[2], 1.0);
}

TEST(Lea, BinCenters) {
  LeaResult lea;
  lea.edges = {0.0, 10.0};
  lea.error = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(lea.bin_center(0), 0.0);
  EXPECT_DOUBLE_EQ(lea.bin_center(1), 5.0);
  EXPECT_DOUBLE_EQ(lea.bin_center(2), 10.0);
}

TEST(LeaPlot, SharedAxisAcrossSubsets) {
  const CorrelatedProblem p;
  models::Gbdt model(models::GbdtConfig::catboost_like(20, 1));
  model.fit(p.X, p.y);

  data::SupervisedSet a, b;
  a.X = p.X;
  a.y = p.y;
  a.feature_day.assign(p.y.size(), 0);
  a.target_day.assign(p.y.size(), 180);
  a.enb.assign(p.y.size(), 0);
  b = a;

  const LeaPlot plot = build_leaplot(model, {{"s1", &a}, {"s2", &b}}, 0,
                                     "x0", 8, 1.0);
  ASSERT_EQ(plot.series.size(), 2u);
  EXPECT_EQ(plot.series[0].second.edges, plot.series[1].second.edges);
  // Identical subsets -> identical decompositions.
  EXPECT_EQ(plot.series[0].second.error, plot.series[1].second.error);
  // Render and CSV don't crash and carry the feature name.
  EXPECT_NE(plot.render().find("x0"), std::string::npos);
  EXPECT_GT(plot.csv_rows().size(), 1u);
}

TEST(LeaGram, CellsTrackSignedError) {
  // Hand-built set: day 200 overestimated, day 201 underestimated.
  data::SupervisedSet set;
  set.X = Matrix(4, 1);
  set.X(0, 0) = 0.0;
  set.X(1, 0) = 1.0;
  set.X(2, 0) = 0.0;
  set.X(3, 0) = 1.0;
  set.y = {1.0, 1.0, 1.0, 1.0};
  set.feature_day = {20, 20, 21, 21};
  set.target_day = {200, 200, 201, 201};
  set.enb = {0, 1, 0, 1};

  // A "model" that always predicts 2 for day-200 rows: easiest is Ridge fit
  // to constants; instead use Gbdt trained to predict feature+1.5... keep
  // it simple: train ridge on X -> 2*X, then evaluate.
  models::RidgeConfig rcfg;
  rcfg.lambda = 1e-9;  // effectively OLS so predictions are exact
  models::Ridge model(rcfg);
  Matrix tx(2, 1);
  tx(0, 0) = 0.0;
  tx(1, 0) = 1.0;
  model.fit(tx.gather_rows(std::vector<std::size_t>{0, 1, 0, 1}),
            std::vector<double>{0.0, 2.0, 0.0, 2.0});

  const LeaGram gram = build_leagram(model, set, 0, "x0", 2, 1.0);
  ASSERT_EQ(gram.days.size(), 2u);
  EXPECT_EQ(gram.days[0], 200);
  EXPECT_EQ(gram.days[1], 201);
  // Bin of x=0: prediction 0, truth 1 -> NE = -1 (underestimation).
  EXPECT_NEAR(gram.ne(0, 0), -1.0, 1e-6);
  // Bin of x=1: prediction 2, truth 1 -> NE = +1 (overestimation).
  EXPECT_NEAR(gram.ne(0, gram.ne.cols() - 1), 1.0, 1e-6);
  EXPECT_NEAR(gram.mean_abs_ne(), 1.0, 1e-6);
  EXPECT_FALSE(gram.render().empty());
}

}  // namespace
}  // namespace leaf::explain
