// Unit tests for leaf::io — serialization primitives, the LEAFSNAP
// container, model and KSWIN round trips, and robustness against corrupt
// input (truncation, bad CRCs, wrong versions, unknown factory keys).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "drift/kswin.hpp"
#include "io/serializer.hpp"
#include "io/snapshot.hpp"
#include "models/factory.hpp"
#include "models/tree.hpp"
#include "snapshot_fault_helpers.hpp"

namespace leaf::io {
namespace {

// ---- primitives ----------------------------------------------------------

TEST(Serializer, RoundTripsPrimitives) {
  Serializer out;
  out.put_u8(0xAB);
  out.put_u32(0xDEADBEEF);
  out.put_u64(0x0123456789ABCDEFULL);
  out.put_i32(-42);
  out.put_i64(-1234567890123LL);
  out.put_f64(3.14159);
  out.put_bool(true);
  out.put_string("hello snapshot");
  out.put_doubles(std::vector<double>{1.5, -2.5, 0.0});
  out.put_ints(std::vector<int>{7, -8, 9});

  Deserializer in(out.bytes());
  EXPECT_EQ(in.get_u8(), 0xAB);
  EXPECT_EQ(in.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(in.get_i32(), -42);
  EXPECT_EQ(in.get_i64(), -1234567890123LL);
  EXPECT_DOUBLE_EQ(in.get_f64(), 3.14159);
  EXPECT_TRUE(in.get_bool());
  EXPECT_EQ(in.get_string(), "hello snapshot");
  EXPECT_EQ(in.get_doubles(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(in.get_ints(), (std::vector<int>{7, -8, 9}));
  EXPECT_TRUE(in.exhausted());
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Serializer, DoublesRoundTripBitExactly) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {
      0.0,
      -0.0,
      inf,
      -inf,
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(0x7FF0000000000001ULL),  // signalling NaN
      std::bit_cast<double>(0xFFF8DEADBEEF1234ULL),  // negative NaN, payload
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(0x000FFFFFFFFFFFFFULL),  // largest denormal
  };
  Matrix m(2, specials.size() / 2);
  std::copy(specials.begin(), specials.end(), m.flat().begin());

  Serializer out;
  for (double v : specials) out.put_f64(v);
  out.put_doubles(specials);
  write(out, m);
  Deserializer in(out.bytes());
  for (double v : specials) EXPECT_EQ(bits_of(in.get_f64()), bits_of(v));
  const std::vector<double> array = in.get_doubles();
  const Matrix matrix = read_matrix(in);
  EXPECT_TRUE(in.exhausted());
  ASSERT_EQ(array.size(), specials.size());
  ASSERT_EQ(matrix.rows(), 2u);
  ASSERT_EQ(matrix.cols(), specials.size() / 2);
  for (std::size_t i = 0; i < specials.size(); ++i) {
    EXPECT_EQ(bits_of(array[i]), bits_of(specials[i])) << i;
    EXPECT_EQ(bits_of(matrix.flat()[i]), bits_of(specials[i])) << i;
  }
  // The array codec writes the same bytes as one put_f64 per element.
  const auto bytes = out.bytes();
  const std::size_t n = specials.size() * 8;
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.begin() + n,
                         bytes.begin() + n + 8));
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.begin() + n,
                         bytes.begin() + 2 * n + 8 + 16));
}

TEST(Serializer, TruncatedReadThrows) {
  Serializer scalar;
  scalar.put_u64(12345);
  Deserializer in(scalar.bytes().subspan(0, 4));
  EXPECT_THROW(in.get_u64(), SnapshotError);

  // Every proper prefix of a counted array or a matrix fails cleanly.
  Matrix m(3, 2);
  for (std::size_t i = 0; i < m.flat().size(); ++i) m.flat()[i] = 0.5 * i;
  Serializer doubles, ints, matrix;
  doubles.put_doubles(std::vector<double>{1.0, -2.0, 3.5});
  ints.put_ints(std::vector<int>{7, -8, 9, 10});
  write(matrix, m);
  const auto cut_everywhere = [](const Serializer& s, const auto& read) {
    for (std::size_t len = 0; len < s.size(); ++len) {
      Deserializer cut(s.bytes().subspan(0, len));
      EXPECT_THROW(read(cut), SnapshotError) << "prefix of " << len << " bytes";
    }
    Deserializer whole(s.bytes());
    EXPECT_NO_THROW(read(whole));
    EXPECT_TRUE(whole.exhausted());
  };
  cut_everywhere(doubles, [](Deserializer& d) { d.get_doubles(); });
  cut_everywhere(ints, [](Deserializer& d) { d.get_ints(); });
  cut_everywhere(matrix, [](Deserializer& d) { read_matrix(d); });
}

TEST(Serializer, CorruptCountThrowsInsteadOfAllocating) {
  Serializer out;
  out.put_u64(std::numeric_limits<std::uint64_t>::max());  // absurd count
  Deserializer in(out.bytes());
  EXPECT_THROW(in.get_doubles(), SnapshotError);
}

TEST(Serializer, RngRoundTripResumesStream) {
  Rng rng(123);
  for (int i = 0; i < 17; ++i) rng.normal();  // leaves a cached deviate
  Serializer out;
  write(out, rng);
  Rng restored(999);
  Deserializer in(out.bytes());
  read_rng(in, restored);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(restored(), rng());
  EXPECT_DOUBLE_EQ(restored.normal(), rng.normal());
}

// ---- CRC-32 ----------------------------------------------------------------

/// The bytewise table CRC-32 that crc32's slicing-by-8 must reproduce.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t b : bytes) crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesCheckValueAndBytewiseReference) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(check), 9)),
            0xCBF43926u);

  std::vector<std::uint8_t> buf(1 << 20);
  Rng rng(2209);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng() >> 56);
  // Every length 0..64 at every alignment exercises the 8-byte body and
  // the bytewise tail in all their combinations.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const auto part = std::span<const std::uint8_t>(buf).subspan(offset, len);
      EXPECT_EQ(crc32(part), crc32_bytewise(part))
          << "offset " << offset << ", length " << len;
    }
  }
  EXPECT_EQ(crc32(buf), crc32_bytewise(buf));
}

// ---- container -----------------------------------------------------------

std::vector<std::uint8_t> small_snapshot() {
  SnapshotWriter w;
  w.section("alpha").put_string("first");
  w.section("beta").put_doubles(std::vector<double>{1.0, 2.0, 3.0});
  return w.encode();
}

TEST(Snapshot, ContainerRoundTrips) {
  const std::vector<std::uint8_t> bytes = small_snapshot();
  const SnapshotReader r(bytes);
  EXPECT_TRUE(r.has("alpha"));
  EXPECT_TRUE(r.has("beta"));
  EXPECT_FALSE(r.has("gamma"));
  Deserializer a = r.section("alpha");
  EXPECT_EQ(a.get_string(), "first");
  Deserializer b = r.section("beta");
  EXPECT_EQ(b.get_doubles(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Snapshot, FileRoundTripIsAtomic) {
  const std::string dir = ::testing::TempDir() + "leaf_io_file";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/t.leafsnap";
  SnapshotWriter w;
  w.section("s").put_u64(77);
  const std::uint64_t bytes = SnapshotWriter::write_bytes(path, w.encode());
  EXPECT_EQ(std::filesystem::file_size(path), bytes);
  // No temporary litter left next to the file.
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  const SnapshotReader r = SnapshotReader::from_file(path);
  Deserializer in = r.section("s");
  EXPECT_EQ(in.get_u64(), 77u);
}

TEST(Snapshot, FileReadSpansManyBlocks) {
  const std::string dir = ::testing::TempDir() + "leaf_io_blocks";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/t.leafsnap";
  std::vector<double> big(100003);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<double>(i) * 0.5 - 7.0;
  SnapshotWriter w;
  w.section("big").put_doubles(big);
  w.section("tail").put_string("end");
  const std::uint64_t bytes = SnapshotWriter::write_bytes(path, w.encode());
  ASSERT_GT(bytes, std::uint64_t{1} << 19);
  const SnapshotReader r = SnapshotReader::from_file(path);
  EXPECT_EQ(r.section("big").get_doubles(), big);
  EXPECT_EQ(r.section("tail").get_string(), "end");
  EXPECT_THROW(SnapshotReader::from_file(dir + "/missing.leafsnap"),
               SnapshotError);
  EXPECT_THROW(SnapshotReader::from_file(dir), SnapshotError);
}

TEST(Snapshot, TruncatedFileFailsWithClearError) {
  const std::vector<std::uint8_t> bytes = small_snapshot();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{11}, bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(SnapshotReader{cut}, SnapshotError) << "keep=" << keep;
  }
}

TEST(Snapshot, BitFlipFailsChecksum) {
  // Flip a payload bit in the last section.
  const auto bytes = leaf::testing::flip_bit(small_snapshot(), -2);
  leaf::testing::expect_snapshot_error([&] { SnapshotReader r(bytes); },
                                       "checksum");
}

TEST(Snapshot, BadMagicRejected) {
  const auto bytes = leaf::testing::with_bad_magic(small_snapshot());
  leaf::testing::expect_snapshot_error([&] { SnapshotReader r(bytes); },
                                       "magic");
  // Lenient mode exists to tolerate per-section damage, never a file that
  // is not a snapshot at all.
  leaf::testing::expect_snapshot_error(
      [&] { SnapshotReader r(bytes, SnapshotReader::ReadMode::kLenient); },
      "magic");
}

TEST(Snapshot, WrongFormatVersionRejected) {
  const auto bytes = leaf::testing::with_format_version(small_snapshot(), 99);
  leaf::testing::expect_snapshot_error([&] { SnapshotReader r(bytes); },
                                       "version");
  leaf::testing::expect_snapshot_error(
      [&] { SnapshotReader r(bytes, SnapshotReader::ReadMode::kLenient); },
      "version");
  // v6 files still hold each shard's training matrix that v7 replaced
  // with row keys; the message names the file's version and the one this
  // build reads.
  const auto v6 = leaf::testing::with_format_version(small_snapshot(), 6);
  leaf::testing::expect_snapshot_error(
      [&] { SnapshotReader r(v6); },
      "unsupported format version 6 (this build reads 7)");
}

TEST(Snapshot, LenientReaderKeepsIntactSectionsReadable) {
  std::vector<std::uint8_t> bytes = small_snapshot();
  ASSERT_TRUE(leaf::testing::corrupt_section_payload(bytes, "beta"));
  const SnapshotReader r(bytes, SnapshotReader::ReadMode::kLenient);
  EXPECT_TRUE(r.has("alpha"));
  EXPECT_FALSE(r.has("beta"));  // present but corrupt
  EXPECT_EQ(r.corrupt_sections(), std::vector<std::string>{"beta"});
  Deserializer a = r.section("alpha");
  EXPECT_EQ(a.get_string(), "first");
  leaf::testing::expect_snapshot_error([&] { r.section("beta"); }, "checksum");
}

TEST(Snapshot, LenientReaderMarksTruncatedTailCorrupt) {
  const std::vector<std::uint8_t> whole = small_snapshot();
  // Cut into the last section's payload: strict throws, lenient still
  // serves the sections before the cut.
  const auto cut = leaf::testing::truncated(whole, whole.size() - 2);
  leaf::testing::expect_snapshot_error([&] { SnapshotReader r(cut); },
                                       "truncated");
  const SnapshotReader r(cut, SnapshotReader::ReadMode::kLenient);
  EXPECT_TRUE(r.has("alpha"));
  EXPECT_FALSE(r.has("beta"));
}

TEST(Snapshot, WriteFailureLeavesNoTemporary) {
  const std::string dir = ::testing::TempDir() + "leaf_io_write_fault";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/t.leafsnap";
  SnapshotWriter w;
  w.section("s").put_doubles(std::vector<double>(64, 1.25));
  {
    const ScopedWriteFault fault(8);  // fail after 8 bytes of the tmp file
    leaf::testing::expect_snapshot_error(
        [&] { SnapshotWriter::write_bytes(path, w.encode()); },
        "injected fault");
    EXPECT_FALSE(ScopedWriteFault::armed()) << "fault should be consumed";
  }
  // Regression: the failed write must not leave `t.leafsnap.tmp` (or any
  // other litter) behind, and must not create the final file either.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  // The writer is reusable after a failed write.
  const std::uint64_t bytes = SnapshotWriter::write_bytes(path, w.encode());
  EXPECT_EQ(std::filesystem::file_size(path), bytes);
}

TEST(Snapshot, WriteFailurePreservesPreviousSnapshot) {
  const std::string dir = ::testing::TempDir() + "leaf_io_write_keep";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/t.leafsnap";
  SnapshotWriter first;
  first.section("s").put_u64(1);
  SnapshotWriter::write_bytes(path, first.encode());
  SnapshotWriter second;
  second.section("s").put_u64(2);
  {
    const ScopedWriteFault fault(4);
    leaf::testing::expect_snapshot_error(
        [&] { SnapshotWriter::write_bytes(path, second.encode()); },
        "injected fault");
  }
  // The old generation under the final name is untouched.  (The reader
  // must outlive the Deserializer, which views its buffer.)
  const SnapshotReader reader = SnapshotReader::from_file(path);
  Deserializer in = reader.section("s");
  EXPECT_EQ(in.get_u64(), 1u);
}

// ---- model round trips ---------------------------------------------------

struct Problem {
  Matrix X{120, 6};
  std::vector<double> y;
  Matrix X_test{40, 6};

  Problem() {
    Rng rng(31);
    y.resize(X.rows());
    for (std::size_t r = 0; r < X.rows(); ++r) {
      for (std::size_t c = 0; c < X.cols(); ++c) x_at(X, r, c) = rng.normal();
      y[r] = 2.0 * X(r, 0) - X(r, 1) + 0.1 * rng.normal();
    }
    for (std::size_t r = 0; r < X_test.rows(); ++r)
      for (std::size_t c = 0; c < X_test.cols(); ++c)
        x_at(X_test, r, c) = rng.normal();
  }

  static double& x_at(Matrix& m, std::size_t r, std::size_t c) {
    return m(r, c);
  }
};

class ModelRoundTrip : public ::testing::TestWithParam<models::ModelFamily> {};

TEST_P(ModelRoundTrip, PredictionsBitIdenticalAfterRoundTrip) {
  const Problem p;
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto model = models::make_model(GetParam(), scale, 5);
  model->fit(p.X, p.y);

  Serializer out;
  models::save_regressor(out, *model);
  Deserializer in(out.bytes());
  const auto restored = models::load_regressor(in);
  ASSERT_TRUE(in.exhausted());
  ASSERT_TRUE(restored->trained());
  EXPECT_EQ(restored->name(), model->name());

  for (std::size_t r = 0; r < p.X_test.rows(); ++r) {
    const double a = model->predict_one(p.X_test.row(r));
    const double b = restored->predict_one(p.X_test.row(r));
    EXPECT_EQ(a, b) << "row " << r;  // bit-identical, not approximately
  }

  // save(load(bytes)) == bytes: saving is the exact inverse of loading.
  Serializer again;
  models::save_regressor(again, *restored);
  EXPECT_TRUE(std::equal(out.bytes().begin(), out.bytes().end(),
                         again.bytes().begin(), again.bytes().end()));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ModelRoundTrip,
    ::testing::Values(models::ModelFamily::kGbdt,
                      models::ModelFamily::kLightGbdt,
                      models::ModelFamily::kRandomForest,
                      models::ModelFamily::kExtraTrees,
                      models::ModelFamily::kKnn, models::ModelFamily::kLstm,
                      models::ModelFamily::kRidge),
    [](const auto& info) { return models::to_string(info.param); });

// "ensemble" and "persistence" name real Regressors that no fleet
// snapshot holds, so they have no decoder either.
TEST(ModelIo, UnknownFactoryKeyThrows) {
  for (const char* key : {"quantum_forest", "ensemble", "persistence"}) {
    Serializer out;
    out.put_string(key);
    Deserializer in(out.bytes());
    leaf::testing::expect_snapshot_error([&] { models::load_regressor(in); },
                                         key);
  }
}

TEST(ModelIo, CorruptTreePayloadThrowsNoUb) {
  const Problem p;
  const auto model = models::make_model(models::ModelFamily::kGbdt,
                                        Scale::for_level(Scale::Level::kSmall),
                                        5);
  model->fit(p.X, p.y);
  Serializer out;
  models::save_regressor(out, *model);
  // Truncations at every prefix length must throw, never crash or read
  // out of bounds (run under ASan in CI).
  const auto bytes = out.bytes();
  for (std::size_t keep = 0; keep < bytes.size();
       keep += std::max<std::size_t>(1, bytes.size() / 97)) {
    Deserializer in(bytes.subspan(0, keep));
    EXPECT_THROW(models::load_regressor(in), SnapshotError) << "keep=" << keep;
  }
}

// One-tree "gbdt" payload built by hand, in the layout Gbdt::save writes:
// base 0.5, learning rate 0.1, then the tree's nodes as given.
struct RawNode {
  std::int32_t feature;
  double threshold;
  std::int32_t left, right;
  double value;
};

std::vector<std::uint8_t> one_tree_gbdt(const std::vector<RawNode>& nodes) {
  Serializer out;
  out.put_string("gbdt");
  out.put_string("GBDT");
  out.put_i32(1);      // num_trees
  out.put_f64(0.1);    // learning_rate
  out.put_f64(1.0);    // row_subsample
  models::save_tree_config(out, models::TreeConfig{});
  out.put_u64(1);      // seed
  out.put_bool(true);  // trained
  out.put_f64(0.5);    // base
  out.put_u64(1);      // tree count
  out.put_u64(nodes.size());
  for (const RawNode& n : nodes) {
    out.put_i32(n.feature);
    out.put_f64(n.threshold);
    out.put_i32(n.left);
    out.put_i32(n.right);
    out.put_f64(n.value);
  }
  return {out.bytes().begin(), out.bytes().end()};
}

std::unique_ptr<models::Regressor> load_bytes(
    const std::vector<std::uint8_t>& bytes) {
  Deserializer in(bytes);
  return models::load_regressor(in);
}

constexpr RawNode kLeaf1{-1, 0.0, -1, -1, 1.0};
constexpr RawNode kLeaf2{-1, 0.0, -1, -1, 2.0};

TEST(ModelIo, HandBuiltTreePayloadLoadsAndRoundTrips) {
  const auto bytes = one_tree_gbdt({{0, 0.5, 1, 2, 0.0}, kLeaf1, kLeaf2});
  const auto model = load_bytes(bytes);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(model->predict_one(std::vector<double>{0.5}), 0.5 + 0.1 * 1.0);
  EXPECT_EQ(model->predict_one(std::vector<double>{0.6}), 0.5 + 0.1 * 2.0);
  EXPECT_EQ(model->predict_one(std::vector<double>{nan}), 0.5 + 0.1 * 2.0);
  Serializer out;
  models::save_regressor(out, *model);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), out.bytes().begin(),
                         out.bytes().end()));
}

TEST(ModelIo, TreeSelfLoopRejected) {
  // A root whose left child is itself used to load and then never return
  // from predict_one.
  leaf::testing::expect_snapshot_error(
      [] { load_bytes(one_tree_gbdt({{0, 0.5, 0, 1, 0.0}, kLeaf1})); },
      "child index");
}

TEST(ModelIo, TreeBackEdgeRejected) {
  leaf::testing::expect_snapshot_error(
      [] {
        load_bytes(one_tree_gbdt(
            {{0, 0.5, 1, 2, 0.0}, {0, 0.2, 0, 1, 0.0}, kLeaf2}));
      },
      "child index");
}

TEST(ModelIo, TreeNonAdjacentChildrenRejected) {
  leaf::testing::expect_snapshot_error(
      [] {
        load_bytes(
            one_tree_gbdt({{0, 0.5, 1, 3, 0.0}, kLeaf1, kLeaf2, kLeaf2}));
      },
      "child index");
}

TEST(ModelIo, TreeLeafWithChildrenRejected) {
  leaf::testing::expect_snapshot_error(
      [] {
        load_bytes(
            one_tree_gbdt({{0, 0.5, 1, 2, 0.0}, {-1, 0.0, 1, 2, 1.0}, kLeaf2}));
      },
      "leaf");
}

// A "forest" payload in the layout Forest::save writes, holding `trees`
// one-leaf trees under the given trained flag.
std::vector<std::uint8_t> leaf_forest(bool trained, std::size_t trees) {
  Serializer out;
  out.put_string("forest");
  out.put_string("RandomForest");
  out.put_i32(static_cast<std::int32_t>(trees));  // num_trees
  out.put_i32(-1);       // features_per_split
  out.put_i32(8);        // max_depth
  out.put_i32(3);        // min_samples_leaf
  out.put_bool(true);    // bootstrap
  out.put_bool(false);   // random_thresholds
  out.put_u64(1);        // seed
  out.put_bool(trained);
  out.put_u64(trees);
  for (std::size_t t = 0; t < trees; ++t) {
    out.put_u64(1);
    out.put_i32(kLeaf1.feature);
    out.put_f64(kLeaf1.threshold);
    out.put_i32(kLeaf1.left);
    out.put_i32(kLeaf1.right);
    out.put_f64(kLeaf1.value);
  }
  return {out.bytes().begin(), out.bytes().end()};
}

TEST(ModelIo, ForestTrainedFlagMustMatchTreeCount) {
  // A trained forest without trees used to load and predict 0/0 = NaN.
  leaf::testing::expect_snapshot_error(
      [] { load_bytes(leaf_forest(true, 0)); }, "tree count");
  leaf::testing::expect_snapshot_error(
      [] { load_bytes(leaf_forest(false, 2)); }, "tree count");
  EXPECT_FALSE(load_bytes(leaf_forest(false, 0))->trained());
  const auto model = load_bytes(leaf_forest(true, 2));
  EXPECT_EQ(model->predict_one(std::vector<double>{0.5}), 1.0);
}

TEST(ModelIo, TreeFeatureBeyondInputWidthThrowsOnPredict) {
  // The width is unknown at load time; predicting a narrower row must
  // throw instead of reading past it.
  const auto model =
      load_bytes(one_tree_gbdt({{1000, 0.5, 1, 2, 0.0}, kLeaf1, kLeaf2}));
  const Matrix X(40, 6);
  std::vector<double> out(X.rows());
  EXPECT_THROW(model->predict_into(X, out), std::invalid_argument);
  EXPECT_THROW(model->predict_one(X.row(0)), std::invalid_argument);
  const Matrix wide(3, 1001, 0.25);
  out.resize(wide.rows());
  model->predict_into(wide, out);
  EXPECT_EQ(out[2], 0.5 + 0.1 * 1.0);
}

// ---- detector round trips ------------------------------------------------

TEST(DetectorIo, KswinRoundTripContinuesIdentically) {
  drift::KswinConfig cfg;
  cfg.window_size = 40;
  cfg.stat_size = 14;
  cfg.alpha = 0.025;
  cfg.seed = 11;
  drift::Kswin a(cfg);
  Rng feed(3);
  for (int i = 0; i < 200; ++i) a.update(feed.normal());

  Serializer out;
  a.save_state(out);
  drift::Kswin b(cfg);
  Deserializer in(out.bytes());
  b.load_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(b.window_fill(), a.window_fill());

  // Same stream in, same detections out — including the KS sampling RNG.
  Rng fa = feed, fb = feed;
  for (int i = 0; i < 300; ++i) {
    const double shift = i > 100 ? 2.0 : 0.0;
    EXPECT_EQ(b.update(fb.normal() + shift), a.update(fa.normal() + shift));
    EXPECT_EQ(b.last_p_value(), a.last_p_value());
  }
}

TEST(DetectorIo, KswinConfigMismatchRejected) {
  drift::KswinConfig cfg;
  drift::Kswin a(cfg);
  Serializer out;
  a.save_state(out);
  cfg.alpha *= 2.0;
  drift::Kswin b(cfg);
  Deserializer in(out.bytes());
  EXPECT_THROW(b.load_state(in), SnapshotError);
}

}  // namespace
}  // namespace leaf::io
