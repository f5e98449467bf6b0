#include "io/serializer.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace leaf::io {

namespace {

// Slicing-by-8 tables: kCrc[0] is the classic bytewise table; kCrc[k][b]
// is the CRC of byte b followed by k zero bytes, so eight table lookups
// advance the CRC by eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr auto kCrc = make_crc_tables();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
          kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
          kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
          kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = kCrc[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void Serializer::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Serializer::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Serializer::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void Serializer::put_string(const std::string& s) {
  put_u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Serializer::append(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void Serializer::put_f64s(std::span<const double> v) {
  append(v.data(), v.size_bytes());
}

void Serializer::put_i32s(std::span<const std::int32_t> v) {
  append(v.data(), v.size_bytes());
}

void Serializer::put_doubles(std::span<const double> v) {
  put_u64(v.size());
  put_f64s(v);
}

void Serializer::put_ints(std::span<const int> v) {
  put_u64(v.size());
  put_i32s(v);
}

void Serializer::put_raw(std::span<const std::uint8_t> bytes) {
  append(bytes.data(), bytes.size());
}

void Deserializer::need(std::size_t n) const {
  if (remaining() < n)
    throw SnapshotError("truncated input: need " + std::to_string(n) +
                        " bytes, " + std::to_string(remaining()) + " left");
}

std::uint8_t Deserializer::get_u8() {
  need(1);
  return buf_[pos_++];
}

std::uint32_t Deserializer::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t Deserializer::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

double Deserializer::get_f64() { return std::bit_cast<double>(get_u64()); }

bool Deserializer::get_bool() {
  const std::uint8_t v = get_u8();
  if (v > 1) throw SnapshotError("corrupt bool value " + std::to_string(v));
  return v != 0;
}

std::uint64_t Deserializer::get_count(std::size_t elem_bytes) {
  const std::uint64_t n = get_u64();
  if (elem_bytes > 0 && n > remaining() / elem_bytes)
    throw SnapshotError("corrupt container count " + std::to_string(n) +
                        " exceeds remaining payload");
  return n;
}

std::string Deserializer::get_string() {
  const std::uint64_t n = get_count(1);
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void Deserializer::copy_out(void* data, std::size_t n) {
  need(n);
  if (n == 0) return;  // memcpy must not see a null data()
  std::memcpy(data, buf_.data() + pos_, n);
  pos_ += n;
}

void Deserializer::get_f64s(std::span<double> out) {
  copy_out(out.data(), out.size_bytes());
}

void Deserializer::get_i32s(std::span<std::int32_t> out) {
  copy_out(out.data(), out.size_bytes());
}

std::vector<double> Deserializer::get_doubles() {
  std::vector<double> v(static_cast<std::size_t>(get_count(8)));
  get_f64s(v);
  return v;
}

std::vector<int> Deserializer::get_ints() {
  std::vector<int> v(static_cast<std::size_t>(get_count(4)));
  get_i32s(v);
  return v;
}

void write(Serializer& out, const Matrix& m) {
  out.put_u64(m.rows());
  out.put_u64(m.cols());
  out.put_f64s(m.flat());
}

Matrix read_matrix(Deserializer& in) {
  const std::uint64_t rows = in.get_u64();
  const std::uint64_t cols = in.get_u64();
  if (cols > 0 && rows > in.remaining() / 8 / cols)
    throw SnapshotError("corrupt matrix dimensions " + std::to_string(rows) +
                        "x" + std::to_string(cols));
  Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  in.get_f64s(m.flat());
  return m;
}

void write(Serializer& out, const Rng& rng) {
  const Rng::State st = rng.capture();
  for (std::uint64_t w : st.words) out.put_u64(w);
  out.put_f64(st.cached_normal);
  out.put_bool(st.has_cached_normal);
}

void read_rng(Deserializer& in, Rng& rng) {
  Rng::State st;
  for (auto& w : st.words) w = in.get_u64();
  st.cached_normal = in.get_f64();
  st.has_cached_normal = in.get_bool();
  rng.restore(st);
}

void write(Serializer& out, const data::Standardizer& s) {
  out.put_doubles(s.mean());
  out.put_doubles(s.stddev());
}

void read_standardizer(Deserializer& in, data::Standardizer& s) {
  std::vector<double> mean = in.get_doubles();
  std::vector<double> std = in.get_doubles();
  if (mean.size() != std.size())
    throw SnapshotError("standardizer with mismatched moment vectors");
  s.restore(std::move(mean), std::move(std));
}

}  // namespace leaf::io
