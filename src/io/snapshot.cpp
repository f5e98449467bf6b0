#include "io/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

namespace leaf::io {

namespace {

// ScopedWriteFault state: byte budget for the next write_bytes call.
// SIZE_MAX = disarmed.  Single-threaded by contract (see header).
std::size_t g_write_fault_after = std::numeric_limits<std::size_t>::max();

}  // namespace

ScopedWriteFault::ScopedWriteFault(std::size_t after_bytes) {
  g_write_fault_after = after_bytes;
}

ScopedWriteFault::~ScopedWriteFault() {
  g_write_fault_after = std::numeric_limits<std::size_t>::max();
}

bool ScopedWriteFault::armed() {
  return g_write_fault_after != std::numeric_limits<std::size_t>::max();
}

Serializer& SnapshotWriter::section(const std::string& name) {
  for (const auto& [existing, _] : sections_) {
    if (existing == name)
      throw SnapshotError("duplicate section name '" + name + "'");
  }
  sections_.emplace_back(name, Serializer{});
  return sections_.back().second;
}

std::vector<std::uint8_t> SnapshotWriter::encode() const {
  // Size the buffer exactly, so each section's bytes are copied once.
  std::size_t total = sizeof(kMagic) + 4 + 4;
  for (const auto& [name, body] : sections_)
    total += 4 + name.size() + 8 + 4 + body.size();
  Serializer out;
  out.reserve(total);
  out.put_raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic)));
  out.put_u32(kFormatVersion);
  out.put_u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, body] : sections_) {
    out.put_u32(static_cast<std::uint32_t>(name.size()));
    out.put_raw(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(name.data()), name.size()));
    out.put_u64(body.size());
    out.put_u32(crc32(body.bytes()));
    out.put_raw(body.bytes());
  }
  return out.take();
}

std::uint64_t SnapshotWriter::write_bytes(const std::string& path,
                                          std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  // Remove the temporary on every failure path: a failed snapshot must
  // not leave litter behind (and must leave any previous snapshot under
  // `path` untouched).
  const auto fail = [&tmp](const std::string& what) -> SnapshotError {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return SnapshotError(what);
  };
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw fail("cannot open '" + tmp + "' for writing");
    std::size_t budget = bytes.size();
    if (g_write_fault_after < budget) {
      budget = g_write_fault_after;
      g_write_fault_after = std::numeric_limits<std::size_t>::max();
      f.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(budget));
      f.flush();
      throw fail("write to '" + tmp + "' failed (injected fault after " +
                 std::to_string(budget) + " bytes)");
    }
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f) throw fail("write to '" + tmp + "' failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) throw fail("cannot rename snapshot into '" + path + "'");
  return bytes.size();
}

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> bytes, ReadMode mode)
    : bytes_(std::move(bytes)) {
  const bool lenient = mode == ReadMode::kLenient;
  Deserializer in(bytes_);
  if (in.remaining() < sizeof(kMagic))
    throw SnapshotError("file too short to hold a snapshot header");
  std::uint8_t magic[sizeof(kMagic)];
  for (auto& b : magic) b = in.get_u8();
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw SnapshotError("bad magic: not a LEAF snapshot file");
  const std::uint32_t version = in.get_u32();
  if (version != kFormatVersion)
    throw SnapshotError("unsupported format version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kFormatVersion) + ")");
  const std::uint32_t count = in.get_u32();
  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (lenient && in.remaining() < 4) break;  // truncated tail
    const std::uint32_t name_len = in.get_u32();
    if (name_len > in.remaining()) {
      if (lenient) break;
      throw SnapshotError("truncated section name");
    }
    Section s;
    s.name.assign(
        reinterpret_cast<const char*>(bytes_.data() +
                                      (bytes_.size() - in.remaining())),
        name_len);
    in.skip(name_len);
    if (lenient && in.remaining() < 8 + 4) {
      // Header truncated mid-section: record the section as corrupt so
      // callers know it existed but is unusable.
      s.valid = false;
      corrupt_.push_back(s.name);
      sections_.push_back(std::move(s));
      break;
    }
    const std::uint64_t payload_len = in.get_u64();
    const std::uint32_t crc = in.get_u32();
    if (payload_len > in.remaining()) {
      if (lenient) {
        s.valid = false;
        corrupt_.push_back(s.name);
        sections_.push_back(std::move(s));
        break;
      }
      throw SnapshotError("truncated payload for section '" + s.name + "'");
    }
    s.offset = bytes_.size() - in.remaining();
    s.length = static_cast<std::size_t>(payload_len);
    const std::span<const std::uint8_t> payload(bytes_.data() + s.offset,
                                                s.length);
    if (crc32(payload) != crc) {
      if (!lenient)
        throw SnapshotError("checksum mismatch in section '" + s.name + "'");
      s.valid = false;
      corrupt_.push_back(s.name);
    }
    in.skip(static_cast<std::size_t>(payload_len));
    sections_.push_back(std::move(s));
  }
}

SnapshotReader SnapshotReader::from_file(const std::string& path,
                                         ReadMode mode) {
  // One read into a buffer of the file's size.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream f(path, std::ios::binary);
  if (ec || !f) throw SnapshotError("cannot open '" + path + "'");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(bytes.size()));
  if (static_cast<std::uintmax_t>(f.gcount()) != size)
    throw SnapshotError("read of '" + path + "' failed");
  return SnapshotReader(std::move(bytes), mode);
}

const SnapshotReader::Section* SnapshotReader::find(
    const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool SnapshotReader::has(const std::string& name) const {
  const Section* s = find(name);
  return s != nullptr && s->valid;
}

Deserializer SnapshotReader::section(const std::string& name) const {
  const Section* s = find(name);
  if (s == nullptr)
    throw SnapshotError("missing section '" + name + "'");
  if (!s->valid)
    throw SnapshotError("checksum mismatch in section '" + name + "'");
  return Deserializer(
      std::span<const std::uint8_t>(bytes_.data() + s->offset, s->length));
}

std::pair<std::size_t, std::size_t> SnapshotReader::payload_range(
    const std::string& name) const {
  const Section* s = find(name);
  if (s == nullptr) throw SnapshotError("missing section '" + name + "'");
  return {s->offset, s->length};
}

}  // namespace leaf::io
