// Unit tests for the regression model zoo (models/).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "models/factory.hpp"
#include "models/forest.hpp"
#include "models/gbdt.hpp"
#include "models/knn.hpp"
#include "models/lstm.hpp"
#include "models/ridge.hpp"
#include "par/pool.hpp"
#include "simd/simd.hpp"
#include "tree_reference.hpp"

namespace leaf::models {
namespace {

/// Noisy linear problem with two informative features and two noise
/// features.
struct LinearProblem {
  Matrix X;
  std::vector<double> y;
  Matrix X_test;
  std::vector<double> y_test;

  explicit LinearProblem(std::size_t n = 400, double noise = 0.1) {
    Rng rng(77);
    auto make = [&](Matrix& x, std::vector<double>& t, std::size_t m) {
      x = Matrix(m, 4);
      t.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t c = 0; c < 4; ++c) x(i, c) = rng.normal();
        t[i] = 3.0 * x(i, 0) - 2.0 * x(i, 1) + noise * rng.normal();
      }
    };
    make(X, y, n);
    make(X_test, y_test, 100);
  }

  double test_rmse(const Regressor& model) const {
    return metrics::nrmse(model.predict(X_test), y_test, 1.0);
  }

  /// RMSE of always predicting the training mean.
  double mean_baseline_rmse() const {
    double m = 0.0;
    for (double v : y) m += v;
    m /= static_cast<double>(y.size());
    const std::vector<double> pred(y_test.size(), m);
    return metrics::nrmse(pred, y_test, 1.0);
  }
};

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// n rows cycling through the training rows, which hold every split
/// threshold a tree model can learn (thresholds are bin edges, and bin
/// edges are training values).  Every fifth row instead carries NaN, +inf
/// or -inf in one column.
Matrix contract_rows(const Matrix& train, std::size_t n) {
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  Matrix X(n, train.cols());
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = train.row(i % train.rows());
    std::copy(src.begin(), src.end(), X.row(i).begin());
    if (i % 5 == 2) X(i, (i / 15) % X.cols()) = specials[(i / 5) % 3];
  }
  return X;
}

// ---- generic contract, parameterized over families ----------------------

class ModelContractTest : public ::testing::TestWithParam<ModelFamily> {};

TEST_P(ModelContractTest, BeatsMeanBaselineOnLinearProblem) {
  const LinearProblem p;
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto model = make_model(GetParam(), scale, 1);
  model->fit(p.X, p.y);
  ASSERT_TRUE(model->trained());
  EXPECT_LT(p.test_rmse(*model), 0.6 * p.mean_baseline_rmse())
      << to_string(GetParam());
}

TEST_P(ModelContractTest, DeterministicRefit) {
  const LinearProblem p(200);
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto a = make_model(GetParam(), scale, 5);
  const auto b = make_model(GetParam(), scale, 5);
  a->fit(p.X, p.y);
  b->fit(p.X, p.y);
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(a->predict_one(p.X_test.row(i)),
                     b->predict_one(p.X_test.row(i)));
}

TEST_P(ModelContractTest, CloneUntrainedIsUntrainedAndRefittable) {
  const LinearProblem p(200);
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto model = make_model(GetParam(), scale, 1);
  model->fit(p.X, p.y);
  const auto clone = model->clone_untrained();
  EXPECT_FALSE(clone->trained());
  EXPECT_EQ(clone->name(), model->name());
  clone->fit(p.X, p.y);
  EXPECT_TRUE(clone->trained());
  // Same hyperparameters + same data -> same predictions.
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(clone->predict_one(p.X_test.row(i)),
                     model->predict_one(p.X_test.row(i)));
}

TEST_P(ModelContractTest, BatchPredictMatchesPredictOne) {
  const LinearProblem p(150);
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto model = make_model(GetParam(), scale, 1);
  model->fit(p.X, p.y);
  // Row counts around the tree kernel's 8-row lanes and 64-row blocks.
  for (std::size_t n : {0, 1, 7, 8, 9, 63, 64, 65}) {
    const Matrix X = contract_rows(p.X, n);
    const auto batch = model->predict(X);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(bits(batch[i]), bits(model->predict_one(X.row(i))))
          << "rows " << n << ", row " << i;
  }
}

TEST_P(ModelContractTest, SampleWeightsBiasPredictions) {
  // Two clusters with different targets; weighting one cluster to ~0
  // must pull global predictions toward the other.
  Matrix x(100, 1);
  std::vector<double> y(100);
  std::vector<double> w(100);
  for (std::size_t i = 0; i < 100; ++i) {
    const bool high = i % 2 == 1;
    x(i, 0) = high ? 1.0 : 0.0;
    y[i] = high ? 10.0 : 0.0;
    w[i] = high ? 1e-6 : 1.0;
  }
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto weighted = make_model(GetParam(), scale, 1);
  weighted->fit(x, y, w);
  const auto uniform = make_model(GetParam(), scale, 1);
  uniform->fit(x, y);
  // Prediction at the down-weighted cluster should move toward 0 compared
  // to the uniformly fitted model (strictness varies by family, so only
  // require a directional effect).
  const std::vector<double> probe = {1.0};
  EXPECT_LT(weighted->predict_one(probe), uniform->predict_one(probe) + 1e-9)
      << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ModelContractTest,
    ::testing::Values(ModelFamily::kGbdt, ModelFamily::kLightGbdt,
                      ModelFamily::kRandomForest, ModelFamily::kExtraTrees,
                      ModelFamily::kKnn, ModelFamily::kLstm,
                      ModelFamily::kRidge),
    [](const ::testing::TestParamInfo<ModelFamily>& info) {
      return to_string(info.param);
    });

// ---- flat tree store against the scalar reference ------------------------

/// (family, LEAF thread count)
class FlatTreesReferenceTest
    : public ::testing::TestWithParam<std::tuple<ModelFamily, int>> {};

TEST_P(FlatTreesReferenceTest, MatchesSumOfDecisionTrees) {
  struct ThreadGuard {
    ~ThreadGuard() { par::set_threads(0); }
  } guard;
  const auto [family, threads] = GetParam();
  par::set_threads(threads);
  const LinearProblem p(300);
  const auto model =
      make_model(family, Scale::for_level(Scale::Level::kSmall), 3);
  model->fit(p.X, p.y);
  const auto* gbdt = dynamic_cast<const Gbdt*>(model.get());
  const auto* forest = dynamic_cast<const Forest*>(model.get());
  ASSERT_TRUE(gbdt != nullptr || forest != nullptr);
  const FlatTrees& flat = gbdt != nullptr ? gbdt->trees() : forest->trees();
  ASSERT_GT(flat.tree_count(), 1u);
  const std::vector<leaf::testing::SavedTree> trees =
      leaf::testing::saved_trees(flat);

  // 261 rows: several blocks, so the threads split them, plus a tail.
  const Matrix X = contract_rows(p.X, 261);
  const auto batch = model->predict(X);
  for (std::size_t i = 0; i < X.rows(); ++i) {
    double ref = gbdt != nullptr ? gbdt->base() : 0.0;
    for (const leaf::testing::SavedTree& tree : trees) {
      const double v = leaf::testing::walk(tree, X.row(i));
      ref += gbdt != nullptr ? gbdt->config().learning_rate * v : v;
    }
    if (forest != nullptr) ref /= static_cast<double>(trees.size());
    EXPECT_EQ(bits(batch[i]), bits(ref)) << "row " << i;
    EXPECT_EQ(bits(model->predict_one(X.row(i))), bits(ref)) << "row " << i;
  }

  // The grown store knows its widest split feature: input one column
  // narrower is refused instead of read past.
  std::size_t width = 0;
  for (const leaf::testing::SavedTree& tree : trees)
    for (const leaf::testing::SavedNode& n : tree)
      width = std::max(width, static_cast<std::size_t>(n.feature + 1));
  ASSERT_GT(width, 0u);
  const Matrix narrow(3, width - 1);
  std::vector<double> out(narrow.rows());
  EXPECT_THROW(model->predict_into(narrow, out), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    TreeFamilies, FlatTreesReferenceTest,
    ::testing::Combine(::testing::Values(ModelFamily::kGbdt,
                                         ModelFamily::kLightGbdt,
                                         ModelFamily::kRandomForest,
                                         ModelFamily::kExtraTrees),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<ModelFamily, int>>& info) {
      return to_string(std::get<0>(info.param)) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

// ---- tree column sweeps against the default sweep -----------------------

/// (family, LEAF thread count, vector kernels active)
class ColumnSweepTest
    : public ::testing::TestWithParam<std::tuple<ModelFamily, int, bool>> {};

TEST_P(ColumnSweepTest, MatchesDefaultSweepBitForBit) {
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
  const LinearProblem p(300);
  const auto model =
      make_model(family, Scale::for_level(Scale::Level::kSmall), 3);
  model->fit(p.X, p.y);
  const auto* gbdt = dynamic_cast<const Gbdt*>(model.get());
  const auto* forest = dynamic_cast<const Forest*>(model.get());
  ASSERT_TRUE(gbdt != nullptr || forest != nullptr);
  const std::vector<leaf::testing::SavedTree> trees =
      leaf::testing::saved_trees(gbdt != nullptr ? gbdt->trees()
                                                 : forest->trees());

  // Training rows carry every split threshold; the NaN/+-inf rows of
  // contract_rows put specials in the columns that are not swept.
  const Matrix X = contract_rows(p.X, 261);
  const auto sweep = model->column_sweep(X);
  const auto ref = model->Regressor::column_sweep(X);
  ASSERT_NE(dynamic_cast<const TreeSweep*>(sweep.get()), nullptr);
  ASSERT_EQ(sweep->base().size(), X.rows());
  for (std::size_t r = 0; r < X.rows(); ++r)
    EXPECT_EQ(bits(sweep->base()[r]), bits(ref->base()[r])) << "row " << r;

  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  Rng rng(17);
  std::vector<double> got(X.rows()), want(X.rows()), first(X.rows());
  std::vector<double> first_values;
  for (std::size_t c = 0; c < X.cols(); ++c) {
    // Values exactly on, and one ulp above, each threshold on column c.
    std::vector<double> on_threshold;
    for (const leaf::testing::SavedTree& tree : trees)
      for (const leaf::testing::SavedNode& n : tree)
        if (n.feature == static_cast<std::int32_t>(c)) {
          on_threshold.push_back(n.threshold);
          on_threshold.push_back(std::nextafter(
              n.threshold, std::numeric_limits<double>::infinity()));
        }
    ASSERT_FALSE(on_threshold.empty()) << "column " << c;
    std::vector<std::size_t> perm(X.rows());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    rng.shuffle(perm);
    std::vector<double> permuted(X.rows()), mixed(X.rows());
    for (std::size_t r = 0; r < X.rows(); ++r) {
      permuted[r] = X(perm[r], c);
      mixed[r] = r % 4 == 3 ? specials[r / 4 % 3]
                            : on_threshold[r % on_threshold.size()];
    }
    for (const std::vector<double>* values : {&permuted, &mixed}) {
      sweep->predict(c, *values, got);
      ref->predict(c, *values, want);
      for (std::size_t r = 0; r < X.rows(); ++r)
        EXPECT_EQ(bits(got[r]), bits(want[r])) << "column " << c << ", row "
                                               << r;
    }
    // A call leaves no trace on the next one.
    if (c == 0) {
      first_values = permuted;
      sweep->predict(0, first_values, first);
    } else {
      sweep->predict(0, first_values, got);
      EXPECT_EQ(got, first) << "after column " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TreeFamilies, ColumnSweepTest,
    ::testing::Combine(::testing::Values(ModelFamily::kGbdt,
                                         ModelFamily::kLightGbdt,
                                         ModelFamily::kRandomForest,
                                         ModelFamily::kExtraTrees),
                       ::testing::Values(1, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<ModelFamily, int, bool>>&
           info) {
      return to_string(std::get<0>(info.param)) + "_threads" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_simd" : "_scalar");
    });

// ---- family-specific behaviour -------------------------------------------

TEST(Gbdt, MoreTreesFitBetter) {
  const LinearProblem p;
  Gbdt small(GbdtConfig::catboost_like(5, 1));
  Gbdt large(GbdtConfig::catboost_like(80, 1));
  small.fit(p.X, p.y);
  large.fit(p.X, p.y);
  EXPECT_LT(p.test_rmse(large), p.test_rmse(small));
}

TEST(Gbdt, TreeCountMatchesConfig) {
  const LinearProblem p(200);
  Gbdt model(GbdtConfig::catboost_like(25, 1));
  model.fit(p.X, p.y);
  EXPECT_EQ(model.tree_count(), 25u);
}

TEST(Gbdt, EmptyFitIsRejected) {
  Gbdt model(GbdtConfig::catboost_like(5, 1));
  Matrix empty(0, 3);
  model.fit(empty, {});
  EXPECT_FALSE(model.trained());
}

TEST(Forest, BootstrapDiffersFromExtraTrees) {
  const LinearProblem p(300);
  Forest rf(ForestConfig::random_forest(20, 3), "RandomForest");
  Forest et(ForestConfig::extra_trees(20, 3), "ExtraTrees");
  rf.fit(p.X, p.y);
  et.fit(p.X, p.y);
  // Both fit, but produce different functions.
  bool differ = false;
  for (std::size_t i = 0; i < 20 && !differ; ++i)
    differ = std::abs(rf.predict_one(p.X_test.row(i)) -
                      et.predict_one(p.X_test.row(i))) > 1e-9;
  EXPECT_TRUE(differ);
}

TEST(Knn, MemorizesTrainingPointsExactly) {
  Matrix x(10, 2);
  std::vector<double> y(10);
  Rng rng(5);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y[i] = rng.normal();
  }
  KnnConfig cfg;
  cfg.k = 1;
  Knn knn(cfg);
  knn.fit(x, y);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_NEAR(knn.predict_one(x.row(i)), y[i], 1e-9);
}

TEST(Knn, InverseDistanceWeighting) {
  // Probe twice as close to the first point -> prediction nearer y0.
  Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 3.0;
  const std::vector<double> y = {0.0, 9.0};
  KnnConfig cfg;
  cfg.k = 2;
  Knn knn(cfg);
  knn.fit(x, y);
  const std::vector<double> probe = {1.0};
  const double pred = knn.predict_one(probe);
  EXPECT_LT(pred, 4.5);
  EXPECT_GT(pred, 0.0);
}

TEST(Knn, RefusesQueriesOfAnotherWidth) {
  const Matrix x(4, 3, 1.0);
  const std::vector<double> y(4, 2.0);
  Knn knn;
  knn.fit(x, y);
  const std::vector<double> narrow(2, 0.0), wide(4, 0.0);
  EXPECT_THROW(knn.predict_one(narrow), std::invalid_argument);
  EXPECT_THROW(knn.predict_one(wide), std::invalid_argument);
}

TEST(Ridge, RecoversCoefficientsWithSmallLambda) {
  const LinearProblem p(2000, 0.01);
  RidgeConfig cfg;
  cfg.lambda = 1e-6;
  Ridge model(cfg);
  model.fit(p.X, p.y);
  // beta on standardized features: coefficient * feature std (~1).
  ASSERT_EQ(model.coefficients().size(), 4u);
  EXPECT_NEAR(model.coefficients()[0], 3.0, 0.1);
  EXPECT_NEAR(model.coefficients()[1], -2.0, 0.1);
  EXPECT_NEAR(model.coefficients()[2], 0.0, 0.05);
}

TEST(Ridge, LargerLambdaShrinks) {
  const LinearProblem p(500);
  RidgeConfig weak{.lambda = 1e-6};
  RidgeConfig strong{.lambda = 1e5};
  Ridge a(weak), b(strong);
  a.fit(p.X, p.y);
  b.fit(p.X, p.y);
  EXPECT_LT(std::abs(b.coefficients()[0]), std::abs(a.coefficients()[0]));
}

TEST(CholeskySolve, SolvesSpdSystem) {
  Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  std::vector<double> b = {1.0, 2.0};
  ASSERT_TRUE(cholesky_solve(a, b));
  // Solution of [[4,1],[1,3]] x = [1,2] is [1/11, 7/11].
  EXPECT_NEAR(b[0], 1.0 / 11.0, 1e-12);
  EXPECT_NEAR(b[1], 7.0 / 11.0, 1e-12);
}

TEST(CholeskySolve, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3, -1
  std::vector<double> b = {1.0, 1.0};
  EXPECT_FALSE(cholesky_solve(a, b));
}

TEST(Ridge, RefusesQueriesOfAnotherWidth) {
  const LinearProblem p(50, 0.05);
  Ridge model;
  model.fit(p.X, p.y);
  const std::vector<double> narrow(p.X.cols() - 1, 0.0),
      wide(p.X.cols() + 1, 0.0);
  EXPECT_THROW(model.predict_one(narrow), std::invalid_argument);
  EXPECT_THROW(model.predict_one(wide), std::invalid_argument);
}

TEST(Lstm, ConvergesOnLinearProblem) {
  const LinearProblem p(300, 0.05);
  LstmConfig cfg;
  cfg.hidden = 12;
  cfg.epochs = 60;
  cfg.seed = 1;
  Lstm model(cfg);
  model.fit(p.X, p.y);
  // Training MSE in standardized units should be well below 1 (the
  // variance of the standardized target).
  EXPECT_LT(model.final_train_mse(), 0.3);
}

TEST(Lstm, MoreEpochsLowerTrainingLoss) {
  const LinearProblem p(200, 0.05);
  LstmConfig short_cfg;
  short_cfg.epochs = 3;
  short_cfg.seed = 2;
  LstmConfig long_cfg = short_cfg;
  long_cfg.epochs = 40;
  Lstm a(short_cfg), b(long_cfg);
  a.fit(p.X, p.y);
  b.fit(p.X, p.y);
  EXPECT_LT(b.final_train_mse(), a.final_train_mse());
}

TEST(Lstm, RefusesQueriesOfAnotherWidth) {
  const LinearProblem p(50, 0.05);
  Lstm model(LstmConfig{.hidden = 4, .epochs = 2});
  model.fit(p.X, p.y);
  const std::vector<double> narrow(p.X.cols() - 1, 0.0),
      wide(p.X.cols() + 1, 0.0);
  EXPECT_THROW(model.predict_one(narrow), std::invalid_argument);
  EXPECT_THROW(model.predict_one(wide), std::invalid_argument);
}

TEST(Factory, NamesRoundTrip) {
  for (ModelFamily f :
       {ModelFamily::kGbdt, ModelFamily::kLightGbdt, ModelFamily::kRandomForest,
        ModelFamily::kExtraTrees, ModelFamily::kKnn, ModelFamily::kLstm,
        ModelFamily::kRidge}) {
    ModelFamily parsed;
    ASSERT_TRUE(parse_model_family(to_string(f), parsed));
    EXPECT_EQ(parsed, f);
  }
  ModelFamily dummy;
  EXPECT_FALSE(parse_model_family("SVM", dummy));
}

TEST(Factory, Table4FamiliesCoverFourPaperFamilies) {
  const auto fams = table4_families();
  ASSERT_EQ(fams.size(), 4u);
  EXPECT_EQ(fams[0], ModelFamily::kGbdt);        // boosting
  EXPECT_EQ(fams[1], ModelFamily::kExtraTrees);  // bagging
  EXPECT_EQ(fams[2], ModelFamily::kLstm);        // recurrent
  EXPECT_EQ(fams[3], ModelFamily::kKnn);         // distance-based
}

TEST(Factory, PaperNamesMarkStandIns) {
  EXPECT_EQ(paper_name(ModelFamily::kGbdt), "CatBoost*");
  EXPECT_EQ(paper_name(ModelFamily::kLstm), "LSTM*");
}

}  // namespace
}  // namespace leaf::models
