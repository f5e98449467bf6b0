// Tests for the training-set key codec of core::Evaluation snapshots: a
// shard snapshot holds each training row's (feature day, eNodeB, target
// day) key, and load() rebuilds X and y through the featurizer.  The
// rebuilt set must match the in-memory one bit for bit after every step,
// for every scheme a fleet can snapshot and every model family, also on a
// dataset the ingest pipeline repaired; a key that names no row must fail
// the load with io::SnapshotError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/calendar.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "ingest/fault.hpp"
#include "ingest/pipeline.hpp"
#include "io/serializer.hpp"
#include "models/factory.hpp"
#include "obs/metrics.hpp"
#include "snapshot_fault_helpers.hpp"

namespace leaf::core {
namespace {

const models::ModelFamily kEveryFamily[] = {
    models::ModelFamily::kGbdt,         models::ModelFamily::kLightGbdt,
    models::ModelFamily::kRandomForest, models::ModelFamily::kExtraTrees,
    models::ModelFamily::kKnn,          models::ModelFamily::kLstm,
    models::ModelFamily::kRidge};

/// One evaluation built the way a fleet shard builds it.
struct Shard {
  EvalConfig cfg;
  std::unique_ptr<models::Regressor> prototype;
  std::unique_ptr<MitigationScheme> scheme;
  Evaluation eval;

  Shard(const data::Featurizer& fz, const Scale& scale,
        models::ModelFamily family, const std::string& scheme_name,
        const EvalConfig& c)
      : cfg(c),
        prototype(models::make_model(family, scale, cfg.seed)),
        scheme(make_scheme(scheme_name,
                           kpi_dispersion(fz.dataset(), fz.target()),
                           cfg.seed ^ 0x99)),
        eval(fz, *prototype, *scheme, cfg,
             obs::MetricsRegistry::global().span_site("test.keys_fit"),
             obs::MetricsRegistry::global().span_site("test.keys_fit")) {}
};

std::vector<std::uint8_t> save_bytes(const Evaluation& eval) {
  io::Serializer out;
  eval.save(out);
  return {out.bytes().begin(), out.bytes().end()};
}

void expect_same_bits(const data::SupervisedSet& got,
                      const data::SupervisedSet& want) {
  ASSERT_EQ(got.X.rows(), want.X.rows());
  ASSERT_EQ(got.X.cols(), want.X.cols());
  ASSERT_EQ(got.y.size(), want.y.size());
  EXPECT_EQ(std::memcmp(got.X.flat().data(), want.X.flat().data(),
                        want.X.flat().size_bytes()),
            0);
  EXPECT_EQ(std::memcmp(got.y.data(), want.y.data(),
                        want.y.size() * sizeof(double)),
            0);
  EXPECT_EQ(got.feature_day, want.feature_day);
  EXPECT_EQ(got.enb, want.enb);
  EXPECT_EQ(got.target_day, want.target_day);
}

/// Round-trips `shard` through its snapshot bytes into a fresh shard and
/// compares the rebuilt training set with the in-memory one.
void expect_keys_rebuild(const Shard& shard, const data::Featurizer& fz,
                         const Scale& scale, models::ModelFamily family,
                         const std::string& scheme_name) {
  const std::vector<std::uint8_t> bytes = save_bytes(shard.eval);
  Shard fresh(fz, scale, family, scheme_name, shard.cfg);
  io::Deserializer in(bytes);
  fresh.eval.load(in);
  EXPECT_TRUE(in.exhausted());
  expect_same_bits(fresh.eval.training_set(), shard.eval.training_set());
}

/// Initializes `shard`, then checks the rebuild after init and after
/// every step until the run ends.  Returns the number of checks made.
int check_every_step(Shard& shard, const data::Featurizer& fz,
                     const Scale& scale, models::ModelFamily family,
                     const std::string& scheme_name) {
  shard.eval.init();
  int checks = 0;
  for (;;) {
    expect_keys_rebuild(shard, fz, scale, family, scheme_name);
    ++checks;
    if (::testing::Test::HasFailure() || shard.eval.done()) return checks;
    shard.eval.step();
  }
}

/// (scheme, model family)
class TrainingKeysTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, models::ModelFamily>> {};

TEST_P(TrainingKeysTest, RebuildMatchesInMemorySetAfterEveryStep) {
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);
  const data::Featurizer fz(ds, data::TargetKpi::kDVol);
  const auto [scheme_name, family] = GetParam();
  Shard shard(fz, scale, family, scheme_name, make_eval_config(scale, 17));
  const int checks = check_every_step(shard, fz, scale, family, scheme_name);
  EXPECT_GT(checks, 1);
  EXPECT_TRUE(shard.eval.done());
  // Every scheme but Static replaced the initial window at least once.
  if (scheme_name != "Static") {
    EXPECT_GT(shard.eval.result().retrain_count(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SnapshotSchemesAndFamilies, TrainingKeysTest,
    ::testing::Combine(::testing::Values("Static", "Triggered", "Naive30",
                                         "LEAF"),
                       ::testing::ValuesIn(kEveryFamily)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, models::ModelFamily>>& info) {
      return std::get<0>(info.param) + "_" +
             models::to_string(std::get<1>(info.param));
    });

// The ingest-fault path: the shard featurizes a dataset the pipeline
// repaired (values imputed, a target outage), and the rows rebuilt from
// its keys are that dataset's rows.
TEST(TrainingKeys, RebuildMatchesOnImputedDataset) {
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const data::CellularDataset ds = data::generate_fixed_dataset(scale, 42);
  const data::TargetKpi target = data::TargetKpi::kDVol;
  const int target_col = ds.schema().target_column(target);
  ingest::FaultSpec spec = ingest::FaultSpec::at_rate(0.05, 7);
  spec.outage_column = target_col;
  spec.outage_start = cal::pu_loss_start();
  spec.outage_end = cal::pu_loss_end();
  const ingest::IngestResult ing =
      ingest::ingest_stream(ds, ingest::inject_faults(ds, spec));
  ASSERT_GT(ing.report.values_imputed, 0);

  const data::Featurizer fz(ing.clean, target);
  EvalConfig cfg = make_eval_config(scale, 17);
  cfg.target_health = ing.kpi_health[static_cast<std::size_t>(target_col)];
  for (const char* scheme_name : {"Triggered", "LEAF"}) {
    SCOPED_TRACE(scheme_name);
    Shard shard(fz, scale, models::ModelFamily::kGbdt, scheme_name, cfg);
    check_every_step(shard, fz, scale, models::ModelFamily::kGbdt,
                     scheme_name);
    EXPECT_GT(shard.eval.result().retrain_count(), 0);
  }
}

// --- malformed keys --------------------------------------------------------

struct MalformedKeys : ::testing::Test {
  Scale scale = Scale::for_level(Scale::Level::kSmall);
  // Evolving: eNodeBs join over the study, so some do not report on a
  // given feature day.
  data::CellularDataset ds = data::generate_evolving_dataset(scale, 42);
  data::Featurizer fz{ds, data::TargetKpi::kDVol};
  EvalConfig cfg = make_eval_config(scale, 17);
  std::vector<std::uint8_t> clean;
  testing::KeyBlock keys;

  void SetUp() override {
    Shard shard(fz, scale, models::ModelFamily::kRidge, "LEAF", cfg);
    shard.eval.init();
    for (int i = 0; i < 5; ++i) shard.eval.step();
    clean = save_bytes(shard.eval);
    const auto found = testing::find_key_block(clean, fz.horizon());
    ASSERT_TRUE(found.has_value());
    keys = *found;
    const data::SupervisedSet& train = shard.eval.training_set();
    ASSERT_EQ(keys.rows, train.size());
    for (std::size_t r = 0; r < keys.rows; ++r) {
      ASSERT_EQ(testing::get_i32(clean, keys.feature_day(r)),
                train.feature_day[r]);
      ASSERT_EQ(testing::get_i32(clean, keys.enb(r)), train.enb[r]);
      ASSERT_EQ(testing::get_i32(clean, keys.target_day(r)),
                train.target_day[r]);
    }
    // The untouched payload loads, so each rejection below is the edit's.
    Shard fresh(fz, scale, models::ModelFamily::kRidge, "LEAF", cfg);
    io::Deserializer in(clean);
    ASSERT_NO_THROW(fresh.eval.load(in));
  }

  void expect_rejected(const std::vector<std::uint8_t>& bytes,
                       const std::string& needle) {
    Shard fresh(fz, scale, models::ModelFamily::kRidge, "LEAF", cfg);
    io::Deserializer in(bytes);
    testing::expect_snapshot_error([&] { fresh.eval.load(in); }, needle);
  }

  /// The clean payload with row `r` keyed to (fd, enb, fd + horizon).
  std::vector<std::uint8_t> with_key(std::size_t r, int fd, int enb) const {
    std::vector<std::uint8_t> bytes = clean;
    testing::put_i32(bytes, keys.feature_day(r), fd);
    testing::put_i32(bytes, keys.enb(r), enb);
    testing::put_i32(bytes, keys.target_day(r), fd + fz.horizon());
    return bytes;
  }
};

TEST_F(MalformedKeys, DayOutOfRangeThrows) {
  const std::size_t r = keys.rows / 2;
  const int enb = testing::get_i32(clean, keys.enb(r));
  const int last = ds.num_days() - 1 - fz.horizon();
  for (int fd : {-1, last + 1, ds.num_days(), -fz.horizon()}) {
    SCOPED_TRACE("feature day " + std::to_string(fd));
    expect_rejected(with_key(r, fd, enb), "names no pair of this dataset");
  }
}

TEST_F(MalformedKeys, EnbNotReportingThatDayThrows) {
  // A real profile that reports on some days but not on this feature day
  // (or its target day), and ids that name no profile at all.
  int fd = -1, enb = -1;
  const int last = ds.num_days() - 1 - fz.horizon();
  const int num_profiles = static_cast<int>(ds.profiles().size());
  for (int d = 0; d <= last && enb < 0; ++d) {
    const auto reporting = ds.enb_indices_on_day(d);
    for (int e = 0; e < num_profiles && enb < 0; ++e)
      if (std::find(reporting.begin(), reporting.end(), e) == reporting.end()) {
        fd = d;
        enb = e;
      }
  }
  ASSERT_GE(enb, 0) << "every profile reports on every day";
  expect_rejected(with_key(0, fd, enb), "names no pair of this dataset");
  expect_rejected(with_key(0, fd, num_profiles), "names no pair");
  expect_rejected(with_key(0, fd, -1), "names no pair");
}

TEST_F(MalformedKeys, TargetDayNotHorizonAheadThrows) {
  const std::size_t r = keys.rows - 1;
  for (int delta : {-1, 1, -fz.horizon()}) {
    std::vector<std::uint8_t> bytes = clean;
    testing::put_i32(bytes, keys.target_day(r),
                     testing::get_i32(clean, keys.target_day(r)) + delta);
    expect_rejected(bytes, "days after its feature day");
  }
}

TEST_F(MalformedKeys, InconsistentCountsThrow) {
  // Drop the last eNodeB: that array now holds one row fewer than the
  // feature-day and target-day arrays around it.
  std::vector<std::uint8_t> bytes = clean;
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(keys.enb(keys.rows - 1)),
              bytes.begin() + static_cast<std::ptrdiff_t>(keys.enb(keys.rows)));
  testing::put_u64(bytes, keys.enb_count(), keys.rows - 1);
  expect_rejected(bytes, "inconsistent row counts");
}

}  // namespace
}  // namespace leaf::core
