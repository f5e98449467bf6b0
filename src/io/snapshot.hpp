// Versioned, checksummed snapshot container (leaf::io).
//
// On-disk layout (all integers little-endian):
//
//   magic    8 bytes   "LEAFSNAP"
//   version  u32       format version (kFormatVersion)
//   count    u32       number of sections
//   then per section:
//     name_len u32, name bytes
//     payload_len u64
//     crc      u32     CRC-32 of the payload bytes
//     payload  bytes
//
// Every section is independently checksummed, so a flipped bit anywhere
// is pinned to the section it corrupted.  In the default strict mode a
// `SnapshotReader` validates the magic, the version, the structural
// bounds, and every CRC up front: a reader that constructs successfully
// hands out only verified payloads, and any failure throws
// `SnapshotError` before the caller has mutated anything (no partial
// restore).  Lenient mode (ReadMode::kLenient) keeps that guarantee per
// section instead of per file: damaged sections are marked corrupt and
// refuse to hand out payloads, while intact sections stay readable —
// the mechanism behind leaf::serve's last-known-good per-shard rollback
// across snapshot generations.  Bad magic or an unsupported version
// still throws in either mode; nothing in such a file can be trusted.
//
// Files are written to a temporary sibling and atomically renamed into
// place, so a crash mid-snapshot never leaves a half-written file under
// the final name, and the temporary is removed on every error path, so
// a failed write never accumulates `.tmp` litter either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/serializer.hpp"

namespace leaf::io {

inline constexpr char kMagic[8] = {'L', 'E', 'A', 'F', 'S', 'N', 'A', 'P'};
// v2: serve shard sections carry the shard's obs::EventLog (crash-
// equivalent drift-event telemetry across snapshot/restore).
// v3: serve shard sections carry supervision state (health FSM, fault
// counters, retrain circuit breaker, supervision event log).
// v4: fleet snapshots carry a "tsdb" section (telemetry store + meta-
// drift detector state).
// v5: shard sections drop the evaluation RNG, which no scheme drew from.
// v6: shard sections drop LEAF's last feature groups and error contrast
// and the evaluation's ingest counters, which no restore read.
// v7: shard sections hold the training set as row keys (feature day,
// eNodeB, target day) instead of its feature matrix and targets; the
// fleet meta section carries a digest of the dataset they index.
// The reader accepts exactly kFormatVersion.
inline constexpr std::uint32_t kFormatVersion = 7;

/// Test/chaos seam: while alive, the next SnapshotWriter::write_bytes
/// call fails after writing `after_bytes` bytes of the temporary file,
/// exercising the error path (which must clean up the temporary).  One
/// fault per scope arming; not thread-safe — arm only around
/// single-threaded snapshot writes.
class ScopedWriteFault {
 public:
  explicit ScopedWriteFault(std::size_t after_bytes);
  ~ScopedWriteFault();
  ScopedWriteFault(const ScopedWriteFault&) = delete;
  ScopedWriteFault& operator=(const ScopedWriteFault&) = delete;

  /// True while an armed fault has not fired yet.
  static bool armed();
};

class SnapshotWriter {
 public:
  /// Starts a new section and returns the serializer to fill it with.
  /// Section names must be unique within one snapshot.
  Serializer& section(const std::string& name);

  /// The whole container as bytes.
  std::vector<std::uint8_t> encode() const;

  /// Writes encoded bytes to `path` (tmp file + rename).  Returns the
  /// byte count written.  Throws SnapshotError on any I/O failure; the
  /// temporary file is removed on every error path.  Callers encode
  /// first, so chaos snapshot corruption can mutate the bytes before they
  /// hit disk.
  static std::uint64_t write_bytes(const std::string& path,
                                   std::span<const std::uint8_t> bytes);

 private:
  std::vector<std::pair<std::string, Serializer>> sections_;
};

class SnapshotReader {
 public:
  enum class ReadMode {
    kStrict,   ///< any damage anywhere throws (default)
    kLenient,  ///< damaged sections are marked corrupt; intact ones readable
  };

  /// Parses a container.  Strict mode throws SnapshotError on bad magic,
  /// unsupported version, truncation, or any CRC mismatch.  Lenient mode
  /// throws only on bad magic / version and demotes per-section damage
  /// (CRC mismatch, truncated tail) to corrupt-section markers.
  explicit SnapshotReader(std::vector<std::uint8_t> bytes,
                          ReadMode mode = ReadMode::kStrict);

  /// Reads and validates a container file.
  static SnapshotReader from_file(const std::string& path,
                                  ReadMode mode = ReadMode::kStrict);

  /// True when `name` is present *and* intact.
  bool has(const std::string& name) const;
  /// Deserializer over a verified section payload; throws if absent or
  /// corrupt.
  Deserializer section(const std::string& name) const;
  /// {offset, length} of the named section's payload within the container
  /// bytes, whether or not its checksum verified ({0, 0} when a truncated
  /// header cut it off) — the seam for corrupting one section of encoded
  /// bytes.  Throws if absent.
  std::pair<std::size_t, std::size_t> payload_range(
      const std::string& name) const;

  /// Names of sections whose payloads failed validation (lenient mode;
  /// always empty for a strict reader, which would have thrown).
  const std::vector<std::string>& corrupt_sections() const {
    return corrupt_;
  }

 private:
  struct Section {
    std::string name;
    std::size_t offset = 0;
    std::size_t length = 0;
    bool valid = true;
  };
  const Section* find(const std::string& name) const;

  std::vector<std::uint8_t> bytes_;
  std::vector<Section> sections_;
  std::vector<std::string> corrupt_;
};

}  // namespace leaf::io
