// Byte-mutation fuzz of serialized model payloads ("gbdt", "forest",
// "knn", "ridge", "lstm": every model decoder).  Payloads go straight to
// models::load_regressor, below the snapshot container's CRC, so every
// corruption reaches the decoders.  Each trial must either throw
// io::SnapshotError or yield a model whose predict_into on a fixed matrix
// returns (or, for a model that reads features beyond the matrix's width
// or was trained on another width, throws std::invalid_argument).
// Under ASan/UBSan this also checks that no accepted payload reads out of
// bounds, and a payload that could make traversal loop would hang the
// test.
//
// The same mutations hit the training-set keys of an evaluation snapshot
// (ShardPayloadFuzz): each trial must throw io::SnapshotError or restore
// a training set whose every row is the featurizer's pair for its key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "io/serializer.hpp"
#include "models/factory.hpp"
#include "models/forest.hpp"
#include "models/gbdt.hpp"
#include "models/knn.hpp"
#include "models/lstm.hpp"
#include "models/ridge.hpp"
#include "obs/metrics.hpp"
#include "snapshot_fault_helpers.hpp"

namespace leaf::models {
namespace {

constexpr int kTrialsPerFamily = 5000;

struct FuzzOutcome {
  int rejected = 0;   ///< load threw SnapshotError
  int predicted = 0;  ///< loaded, predict_into returned
  int too_narrow = 0; ///< loaded, predict_into refused the matrix width
};

void mutate(std::vector<std::uint8_t>& bytes, Rng& rng) {
  const std::int32_t interesting[] = {
      0, 1, -1, 2, 7, 1000, std::numeric_limits<std::int32_t>::max(),
      std::numeric_limits<std::int32_t>::min()};
  const int edits = 1 + static_cast<int>(rng.index(3));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const std::size_t at = rng.index(bytes.size());
    // Bit flips and byte or int32 overwrites; one edit in eight truncates.
    switch (rng.index(8)) {
      case 0:
      case 1:
      case 2:
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.index(8));
        break;
      case 3:
      case 4:
        bytes[at] = static_cast<std::uint8_t>(rng.index(256));
        break;
      case 5:
      case 6: {
        const std::int32_t v = interesting[rng.index(std::size(interesting))];
        std::uint8_t le[4];
        std::memcpy(le, &v, sizeof le);
        for (std::size_t k = 0; k < 4 && at + k < bytes.size(); ++k)
          bytes[at + k] = le[k];
        break;
      }
      default:
        bytes.resize(at);
        break;
    }
  }
}

FuzzOutcome fuzz(const Regressor& model, std::uint64_t seed) {
  io::Serializer out;
  save_regressor(out, model);
  const std::vector<std::uint8_t> clean(out.bytes().begin(),
                                        out.bytes().end());
  Rng rng(seed);
  const Matrix X(40, 5, 0.25);
  std::vector<double> pred(X.rows());
  FuzzOutcome outcome;
  for (int trial = 0; trial < kTrialsPerFamily; ++trial) {
    std::vector<std::uint8_t> bytes = clean;
    mutate(bytes, rng);
    io::Deserializer in(bytes);
    std::unique_ptr<Regressor> loaded;
    try {
      loaded = load_regressor(in);
    } catch (const io::SnapshotError&) {
      ++outcome.rejected;
      continue;
    }
    try {
      loaded->predict_into(X, pred);
      ++outcome.predicted;
    } catch (const std::invalid_argument&) {
      ++outcome.too_narrow;
    }
  }
  return outcome;
}

/// 80 rows of 5 features with a nonlinear target.
struct Problem {
  Matrix X{80, 5};
  std::vector<double> y;
  Problem() {
    Rng rng(5);
    y.resize(X.rows());
    for (std::size_t r = 0; r < X.rows(); ++r) {
      for (std::size_t c = 0; c < X.cols(); ++c) X(r, c) = rng.normal();
      y[r] = X(r, 0) * X(r, 1) + X(r, 2);
    }
  }
};

TEST(ModelPayloadFuzz, MutatedGbdtPayloadsThrowOrPredict) {
  const Problem p;
  GbdtConfig cfg = GbdtConfig::catboost_like(8, 1);
  cfg.tree.max_depth = 4;
  Gbdt model(cfg);
  model.fit(p.X, p.y);
  const FuzzOutcome o = fuzz(model, 0x6BD7);
  EXPECT_GT(o.rejected, 0);
  EXPECT_GT(o.predicted, 0);
}

TEST(ModelPayloadFuzz, MutatedForestPayloadsThrowOrPredict) {
  const Problem p;
  ForestConfig cfg = ForestConfig::random_forest(6, 1);
  cfg.max_depth = 5;
  Forest model(cfg, "RandomForest");
  model.fit(p.X, p.y);
  const FuzzOutcome o = fuzz(model, 0xF0E5);
  EXPECT_GT(o.rejected, 0);
  EXPECT_GT(o.predicted, 0);
}

TEST(ModelPayloadFuzz, MutatedKnnPayloadsThrowOrPredict) {
  const Problem p;
  Knn model(KnnConfig{.k = 3});
  model.fit(p.X, p.y);
  const FuzzOutcome o = fuzz(model, 0x4B99);
  EXPECT_GT(o.rejected, 0);
  EXPECT_GT(o.predicted, 0);
}

TEST(ModelPayloadFuzz, MutatedRidgePayloadsThrowOrPredict) {
  const Problem p;
  Ridge model;
  model.fit(p.X, p.y);
  const FuzzOutcome o = fuzz(model, 0x21D6);
  EXPECT_GT(o.rejected, 0);
  EXPECT_GT(o.predicted, 0);
}

TEST(ModelPayloadFuzz, MutatedLstmPayloadsThrowOrPredict) {
  const Problem p;
  Lstm model(LstmConfig{.hidden = 4, .epochs = 2});
  model.fit(p.X, p.y);
  const FuzzOutcome o = fuzz(model, 0x157A);
  EXPECT_GT(o.rejected, 0);
  EXPECT_GT(o.predicted, 0);
}

/// Byte offsets in a serialized "lstm" payload: the key (u64 length and
/// four characters), then hidden, chunk, epochs, batch (i32), learning
/// rate, clip (f64), seed (u64), the trained flag and timesteps.
constexpr std::size_t kLstmKey = 8 + 4, kChunkAt = kLstmKey + 4,
                      kBatchAt = kLstmKey + 3 * 4,
                      kTrainedAt = kLstmKey + 4 * 4 + 2 * 8 + 8,
                      kTimestepsAt = kTrainedAt + 1;

/// The fitted 5-feature, H=4 LSTM payload with the int32 at `offset`
/// overwritten by `value`.
std::vector<std::uint8_t> lstm_payload_with(std::size_t offset,
                                            std::int32_t value) {
  const Problem p;
  Lstm model(LstmConfig{.hidden = 4, .epochs = 2});
  model.fit(p.X, p.y);
  io::Serializer out;
  save_regressor(out, model);
  std::vector<std::uint8_t> bytes(out.bytes().begin(), out.bytes().end());
  std::memcpy(bytes.data() + offset, &value, sizeof value);
  return bytes;
}

// chunk = 1 or 7 would dot each 16-wide Wx row with a 1- or 7-wide input
// slice (7 still gives the saved single timestep for 5 features);
// timesteps = 2^20 would scan a million steps per prediction; batch = 0
// would make a refit of the model's clone loop forever.
TEST(ModelPayloadFuzz, InconsistentLstmPayloadsAreRejected) {
  for (const auto& bytes :
       {lstm_payload_with(kChunkAt, 1), lstm_payload_with(kChunkAt, 7),
        lstm_payload_with(kTimestepsAt, 1 << 20),
        lstm_payload_with(kBatchAt, 0)}) {
    io::Deserializer in(bytes);
    EXPECT_THROW(load_regressor(in), io::SnapshotError);
  }
}

// An untrained payload restores as a fresh model of its configuration:
// the weights it carries are dropped unread, whatever their shapes.
TEST(ModelPayloadFuzz, UntrainedLstmPayloadRestoresWithoutWeights) {
  std::vector<std::uint8_t> bytes = lstm_payload_with(kChunkAt, 7);
  bytes[kTrainedAt] = 0;
  io::Deserializer in(bytes);
  const std::unique_ptr<Regressor> model = load_regressor(in);
  EXPECT_FALSE(model->trained());
  io::Serializer restored, fresh;
  save_regressor(restored, *model);
  save_regressor(fresh,
                 Lstm(LstmConfig{.hidden = 4, .chunk = 7, .epochs = 2}));
  EXPECT_TRUE(std::ranges::equal(restored.bytes(), fresh.bytes()));
}

// 64 coefficients behind a 5-wide standardizer: predict would dot 64
// coefficients with a 5-wide standardized row.
TEST(ModelPayloadFuzz, RidgeCoefficientsWiderThanStandardizerAreRejected) {
  data::Standardizer scaler;
  scaler.restore(std::vector<double>(5, 0.0), std::vector<double>(5, 1.0));
  io::Serializer out;
  out.put_string("ridge");
  out.put_f64(1.0);
  out.put_bool(true);
  io::write(out, scaler);
  out.put_doubles(std::vector<double>(64, 0.5));
  out.put_f64(0.0);
  io::Deserializer in(out.bytes());
  EXPECT_THROW(load_regressor(in), io::SnapshotError);
}

/// A hand-built "knn" payload: `rows` training rows of `cols` features, a
/// standardizer of `scaler_width`, and the given k and trained flag.
std::vector<std::uint8_t> knn_payload(int k, bool trained,
                                      std::size_t scaler_width,
                                      std::size_t rows, std::size_t cols) {
  data::Standardizer scaler;
  scaler.restore(std::vector<double>(scaler_width, 0.0),
                 std::vector<double>(scaler_width, 1.0));
  io::Serializer out;
  out.put_string("knn");
  out.put_i32(k);
  out.put_f64(1e-9);
  out.put_bool(trained);
  io::write(out, scaler);
  io::write(out, Matrix(rows, cols, 1.0));
  out.put_doubles(std::vector<double>(rows, 1.0));
  out.put_doubles(std::vector<double>(rows, 1.0));
  return {out.bytes().begin(), out.bytes().end()};
}

// A trained KNN whose training matrix is narrower than its standardizer:
// predict would read 8-wide standardized queries against 2-wide rows.
TEST(ModelPayloadFuzz, KnnTrainingNarrowerThanStandardizerIsRejected) {
  for (const std::size_t width : {std::size_t{2}, std::size_t{0}}) {
    const std::vector<std::uint8_t> bytes = knn_payload(2, true, 8, 3, width);
    io::Deserializer in(bytes);
    EXPECT_THROW(load_regressor(in), io::SnapshotError) << width;
  }
}

// No training rows behind an untrained flag, or k = 0: nothing to average,
// so predict answers 0 instead of selecting among no neighbours.
TEST(ModelPayloadFuzz, KnnWithoutNeighboursPredictsZero) {
  const std::vector<double> query(4, 0.5);
  for (const auto& bytes :
       {knn_payload(2, false, 4, 0, 4), knn_payload(0, true, 4, 3, 4)}) {
    io::Deserializer in(bytes);
    const std::unique_ptr<Regressor> model = load_regressor(in);
    EXPECT_EQ(model->predict_one(query), 0.0);
  }
}

// Mutations confined to the key block (the three counted i32 arrays) of
// a Triggered Ridge evaluation's payload, spliced back between the
// untouched bytes before and after it.
TEST(ShardPayloadFuzz, MutatedTrainingKeysThrowOrRebuildTheirRows) {
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);
  const data::Featurizer fz(ds, data::TargetKpi::kDVol);
  const core::EvalConfig cfg = core::make_eval_config(scale, 17);
  const std::unique_ptr<Regressor> prototype =
      make_model(ModelFamily::kRidge, scale, cfg.seed);
  obs::SpanSite& span =
      obs::MetricsRegistry::global().span_site("test.fuzz_fit");
  const auto evaluation = [&](std::unique_ptr<core::MitigationScheme>& scheme) {
    scheme = core::make_scheme("Triggered", 0.0, cfg.seed);
    return std::make_unique<core::Evaluation>(fz, *prototype, *scheme, cfg,
                                              span, span);
  };
  std::unique_ptr<core::MitigationScheme> scheme;
  const std::unique_ptr<core::Evaluation> eval = evaluation(scheme);
  eval->init();
  for (int i = 0; i < 5; ++i) eval->step();
  io::Serializer out;
  eval->save(out);
  const std::vector<std::uint8_t> clean(out.bytes().begin(),
                                        out.bytes().end());
  const auto keys = leaf::testing::find_key_block(clean, fz.horizon());
  ASSERT_TRUE(keys.has_value());
  ASSERT_EQ(keys->rows, eval->training_set().size());
  const auto block_begin =
      clean.begin() + static_cast<std::ptrdiff_t>(keys->offset);
  const auto block_end = clean.begin() + static_cast<std::ptrdiff_t>(keys->end());

  Rng rng(0x7EC5);
  std::vector<double> x(static_cast<std::size_t>(fz.num_features()));
  int rejected = 0, restored = 0;
  for (int trial = 0; trial < kTrialsPerFamily; ++trial) {
    std::vector<std::uint8_t> block(block_begin, block_end);
    mutate(block, rng);
    std::vector<std::uint8_t> bytes(clean.begin(), block_begin);
    bytes.insert(bytes.end(), block.begin(), block.end());
    bytes.insert(bytes.end(), block_end, clean.end());

    std::unique_ptr<core::MitigationScheme> fresh_scheme;
    const std::unique_ptr<core::Evaluation> fresh = evaluation(fresh_scheme);
    io::Deserializer in(bytes);
    try {
      fresh->load(in);
    } catch (const io::SnapshotError&) {
      ++rejected;
      continue;
    }
    ++restored;
    const data::SupervisedSet& train = fresh->training_set();
    ASSERT_EQ(train.X.rows(), train.size());
    for (std::size_t r = 0; r < train.size(); ++r) {
      ASSERT_EQ(train.target_day[r], train.feature_day[r] + fz.horizon());
      double y = 0.0;
      ASSERT_TRUE(fz.row(train.feature_day[r], train.enb[r], x, y));
      ASSERT_EQ(std::memcmp(x.data(), train.X.row(r).data(),
                            x.size() * sizeof(double)),
                0);
      ASSERT_EQ(std::memcmp(&y, &train.y[r], sizeof y), 0);
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(restored, 0);
}

}  // namespace
}  // namespace leaf::models
