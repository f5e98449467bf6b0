// Shared snapshot fault-injection helpers for the io / serve / chaos
// tests: corrupt a LEAFSNAP container in well-defined ways and assert
// that an action fails with a SnapshotError whose message actually names
// the problem (tests on the error *text* keep the messages operator-
// debuggable, not just typed).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
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

}  // namespace leaf::testing
