// Binary serialization primitives for snapshots (leaf::io).
//
// A `Serializer` appends fixed-width little-endian values to a byte
// buffer; a `Deserializer` reads them back with bounds checking and
// throws `SnapshotError` on any truncation or inconsistency instead of
// reading past the end.  Doubles travel as raw IEEE-754 bit patterns
// (std::bit_cast), so NaN payloads, infinities, and signed zeros all
// round-trip bit-exactly — a requirement for the crash-equivalence
// guarantee of leaf::serve.
//
// Whole arrays of f64/i32 (put_f64s/get_f64s, put_i32s/get_i32s, and the
// counted put_doubles/put_ints and Matrix helpers built on them) move as
// one memcpy of the native bytes.  That is the wire format only on a
// little-endian host, which the static_assert below requires; there is
// no byte-swapping path.  crc32 is slicing-by-8 (eight table lookups per
// eight input bytes) and gives the same values as the bytewise table.
//
// Note the naming: `models::Persistence` is the scaled-last-value
// *baseline forecaster* from the paper, not a storage layer.  Everything
// about saving and restoring state lives here under `leaf::io`.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "data/features.hpp"

namespace leaf::io {

static_assert(std::endian::native == std::endian::little,
              "the snapshot and wire formats are little-endian; the array "
              "codec copies native bytes");

/// Raised on any malformed snapshot input: truncation, checksum or magic
/// mismatch, unsupported format version, unknown factory key, or a value
/// that fails a structural validity check.  Callers can rely on *no*
/// object mutation having happened when a load entry point throws.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a byte range.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

class Serializer {
 public:
  std::span<const std::uint8_t> bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_string(const std::string& s);
  /// The elements only, no count (the reader must know it).
  void put_f64s(std::span<const double> v);
  void put_i32s(std::span<const std::int32_t> v);
  /// A u64 count, then the elements.
  void put_doubles(std::span<const double> v);
  void put_ints(std::span<const int> v);
  void put_raw(std::span<const std::uint8_t> bytes);

  void reserve(std::size_t n) { buf_.reserve(n); }
  /// Moves the buffer out, leaving this serializer empty.
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void append(const void* data, std::size_t n);

  std::vector<std::uint8_t> buf_;
};

class Deserializer {
 public:
  explicit Deserializer(std::span<const std::uint8_t> bytes) : buf_(bytes) {}

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  bool get_bool();
  std::string get_string();
  /// Fills `out` with out.size() elements (throws when fewer remain).
  void get_f64s(std::span<double> out);
  void get_i32s(std::span<std::int32_t> out);
  std::vector<double> get_doubles();
  std::vector<int> get_ints();

  /// Reads a count written by a put_* container method and validates that
  /// at least `elem_bytes * count` bytes remain, so corrupted counts fail
  /// with a clear error instead of a giant allocation.
  std::uint64_t get_count(std::size_t elem_bytes);

  /// Skips n bytes (throws like a read when fewer remain).
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

 private:
  void need(std::size_t n) const;
  void copy_out(void* data, std::size_t n);

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

// --- composite helpers ----------------------------------------------------

void write(Serializer& out, const Matrix& m);
Matrix read_matrix(Deserializer& in);

void write(Serializer& out, const Rng& rng);
void read_rng(Deserializer& in, Rng& rng);

void write(Serializer& out, const data::Standardizer& s);
void read_standardizer(Deserializer& in, data::Standardizer& s);

}  // namespace leaf::io
