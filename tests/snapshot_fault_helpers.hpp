// Shared snapshot fault-injection helpers for the io / serve / chaos
// tests: corrupt a LEAFSNAP container in well-defined ways and assert
// that an action fails with a SnapshotError whose message actually names
// the problem (tests on the error *text* keep the messages operator-
// debuggable, not just typed).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "io/snapshot.hpp"

namespace leaf::testing {

/// Runs `action`, expecting io::SnapshotError whose what() contains
/// `needle`.  Anything else — no throw, wrong type, wrong message — fails
/// the test with a readable diagnostic.
template <typename Action>
void expect_snapshot_error(Action&& action, const std::string& needle) {
  try {
    action();
    FAIL() << "expected SnapshotError containing '" << needle
           << "', but nothing was thrown";
  } catch (const io::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "SnapshotError thrown, but its message '" << e.what()
        << "' does not contain '" << needle << "'";
  } catch (const std::exception& e) {
    FAIL() << "expected SnapshotError containing '" << needle
           << "', got a different exception: " << e.what();
  }
}

/// Flips one bit of `bytes` (offsets from the end when negative).
inline std::vector<std::uint8_t> flip_bit(std::vector<std::uint8_t> bytes,
                                          std::ptrdiff_t offset,
                                          std::uint8_t mask = 0x01) {
  const std::size_t i = offset >= 0
                            ? static_cast<std::size_t>(offset)
                            : bytes.size() + static_cast<std::size_t>(offset);
  bytes.at(i) ^= mask;
  return bytes;
}

/// Container with its magic destroyed: nothing in it can be trusted, so
/// even lenient readers must reject it outright.
inline std::vector<std::uint8_t> with_bad_magic(
    std::vector<std::uint8_t> bytes) {
  bytes.at(0) = 'X';
  return bytes;
}

/// Container claiming format version `v` (the version word follows the
/// 8-byte magic).
inline std::vector<std::uint8_t> with_format_version(
    std::vector<std::uint8_t> bytes, std::uint8_t v) {
  bytes.at(8) = v;
  bytes.at(9) = 0;
  bytes.at(10) = 0;
  bytes.at(11) = 0;
  return bytes;
}

/// The first `keep` bytes of `bytes` (a truncated container).
inline std::vector<std::uint8_t> truncated(
    const std::vector<std::uint8_t>& bytes, std::size_t keep) {
  return {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(keep)};
}

/// Overwrites `path` with raw bytes (bypassing SnapshotWriter's tmp +
/// rename discipline, the way on-disk rot would).
inline void write_raw(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f) << "cannot open " << path;
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << "short write to " << path;
}

inline std::vector<std::uint8_t> read_raw(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// Flips one payload bit of the named section inside an encoded LEAFSNAP
/// container, leaving the layout intact so exactly that section's CRC
/// fails.  Returns false (and leaves `bytes` alone) when the section is
/// missing or empty.
inline bool corrupt_section_payload(std::vector<std::uint8_t>& bytes,
                                    const std::string& name) {
  try {
    const auto [offset, length] =
        io::SnapshotReader(bytes, io::SnapshotReader::ReadMode::kLenient)
            .payload_range(name);
    if (length == 0) return false;
    bytes[offset + length / 2] ^= 0x01;
    return true;
  } catch (const io::SnapshotError&) {
    return false;  // no such section, or a header no reader accepts
  }
}

/// Little-endian i32 / u64 at byte offset `at` of a payload.
inline std::int32_t get_i32(const std::vector<std::uint8_t>& bytes,
                            std::size_t at) {
  std::int32_t v;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}
inline std::uint64_t get_u64(const std::vector<std::uint8_t>& bytes,
                             std::size_t at) {
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}
inline void put_i32(std::vector<std::uint8_t>& bytes, std::size_t at,
                    std::int32_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}
inline void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
                    std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

/// Where a shard's training-set keys sit in its payload: three counted
/// i32 arrays of `rows` elements each (feature days, eNodeBs, target
/// days), as core::Evaluation::save writes them.
struct KeyBlock {
  std::size_t offset = 0;  ///< of the feature-day count
  std::size_t rows = 0;

  std::size_t feature_day(std::size_t r) const { return offset + 8 + 4 * r; }
  std::size_t enb_count() const { return offset + 8 + 4 * rows; }
  std::size_t enb(std::size_t r) const { return enb_count() + 8 + 4 * r; }
  std::size_t target_day_count() const { return enb(rows); }
  std::size_t target_day(std::size_t r) const {
    return target_day_count() + 8 + 4 * r;
  }
  std::size_t end() const { return target_day(rows); }
};

/// The first key block in `payload`: a non-empty run of three counted i32
/// arrays of one length whose third array is the first plus `horizon`,
/// element by element.
inline std::optional<KeyBlock> find_key_block(
    const std::vector<std::uint8_t>& payload, int horizon) {
  for (std::size_t at = 0; at + 8 <= payload.size(); ++at) {
    KeyBlock k{at, static_cast<std::size_t>(get_u64(payload, at))};
    if (k.rows == 0 || k.rows > payload.size() / 12 ||
        k.end() > payload.size() ||
        get_u64(payload, k.enb_count()) != k.rows ||
        get_u64(payload, k.target_day_count()) != k.rows)
      continue;
    bool keyed = true;
    for (std::size_t r = 0; r < k.rows && keyed; ++r)
      keyed = static_cast<std::int64_t>(get_i32(payload, k.target_day(r))) ==
              static_cast<std::int64_t>(get_i32(payload, k.feature_day(r))) +
                  horizon;
    if (keyed) return k;
  }
  return std::nullopt;
}

/// Rewrites the payload of section `name` in an encoded container in
/// place (same length) and re-seals its CRC, the way a writer that stored
/// those bytes would have: the damage then reaches the section decoder
/// instead of failing the checksum.  The CRC word precedes the payload.
template <typename Edit>
void reseal_section(std::vector<std::uint8_t>& bytes, const std::string& name,
                    Edit&& edit) {
  const auto [offset, length] = io::SnapshotReader(bytes).payload_range(name);
  std::vector<std::uint8_t> payload(
      bytes.begin() + static_cast<std::ptrdiff_t>(offset),
      bytes.begin() + static_cast<std::ptrdiff_t>(offset + length));
  edit(payload);
  ASSERT_EQ(payload.size(), length) << "reseal_section keeps the length";
  std::copy(payload.begin(), payload.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  const std::uint32_t crc = io::crc32(payload);
  std::memcpy(bytes.data() + offset - sizeof crc, &crc, sizeof crc);
}

}  // namespace leaf::testing
