#include "net/protocol.hpp"

#include <algorithm>
#include <cstring>

namespace leaf::net {

namespace {

/// Hard ceiling on rows/cols in one predict body, independent of the
/// frame-size bound, so a corrupted count cannot drive a giant
/// allocation before the element bounds check catches it.
constexpr std::uint32_t kMaxMatrixDim = 1u << 20;

std::uint32_t read_u32(std::span<const std::uint8_t> b, std::size_t pos) {
  return static_cast<std::uint32_t>(b[pos]) |
         static_cast<std::uint32_t>(b[pos + 1]) << 8 |
         static_cast<std::uint32_t>(b[pos + 2]) << 16 |
         static_cast<std::uint32_t>(b[pos + 3]) << 24;
}

std::uint64_t read_u64(std::span<const std::uint8_t> b, std::size_t pos) {
  return static_cast<std::uint64_t>(read_u32(b, pos)) |
         static_cast<std::uint64_t>(read_u32(b, pos + 4)) << 32;
}

}  // namespace

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kPredict: return "predict";
    case MsgType::kBatchPredict: return "batch_predict";
    case MsgType::kScrapeMetrics: return "scrape_metrics";
    case MsgType::kFleetStatus: return "fleet_status";
    case MsgType::kQuerySeries: return "query_series";
    case MsgType::kPredictOk: return "predict_ok";
    case MsgType::kScrapeOk: return "scrape_ok";
    case MsgType::kStatusOk: return "status_ok";
    case MsgType::kError: return "error";
    case MsgType::kQuerySeriesOk: return "query_series_ok";
  }
  return "?";
}

bool is_request(MsgType t) {
  return static_cast<std::uint8_t>(t) < 16;
}

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kMalformed: return "malformed";
    case ErrorCode::kOversized: return "oversized";
    case ErrorCode::kBadShard: return "bad_shard";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kShed: return "shed";
    case ErrorCode::kRetry: return "retry";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  io::Serializer s;
  for (char c : kMagic) s.put_u8(static_cast<std::uint8_t>(c));
  s.put_u32(kProtocolVersion);
  s.put_u8(static_cast<std::uint8_t>(frame.type));
  s.put_u64(frame.request_id);
  for (std::uint8_t b : frame.trace) s.put_u8(b);
  s.put_u64(frame.parent_span);
  s.put_u32(static_cast<std::uint32_t>(frame.payload.size()));
  s.put_u32(io::crc32(frame.payload));
  std::vector<std::uint8_t> out(s.bytes().begin(), s.bytes().end());
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (poisoned_)
    throw ProtocolError(ErrorCode::kMalformed,
                        "decoder poisoned by an earlier framing error");
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  validate_header();  // fail fast: bad magic/version before the payload lands
}

void FrameDecoder::validate_header() {
  const std::span<const std::uint8_t> b(buf_.data() + pos_,
                                        buf_.size() - pos_);
  if (b.size() >= 4 &&
      std::memcmp(b.data(), kMagic, sizeof(kMagic)) != 0) {
    poisoned_ = true;
    throw ProtocolError(ErrorCode::kMalformed, "bad frame magic");
  }
  if (b.size() < 8) return;
  const std::uint32_t version = read_u32(b, 4);
  if (version != kProtocolVersion) {
    poisoned_ = true;
    throw ProtocolError(ErrorCode::kMalformed,
                        "unsupported protocol version " +
                            std::to_string(version));
  }
  if (b.size() >= kHeaderBytes) {
    const std::uint32_t payload_len = read_u32(b, kHeaderBytes - 8);
    if (payload_len > kMaxFrameBytes) {
      poisoned_ = true;
      throw ProtocolError(ErrorCode::kOversized,
                          "frame payload of " + std::to_string(payload_len) +
                              " bytes exceeds the " +
                              std::to_string(kMaxFrameBytes) +
                              "-byte frame bound");
    }
  }
}

void FrameDecoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_)
    throw ProtocolError(ErrorCode::kMalformed,
                        "decoder poisoned by an earlier framing error");
  // feed() validated the header at the buffer head, but after a frame is
  // consumed the *next* frame's header starts at pos_ — re-validate.
  validate_header();
  const std::span<const std::uint8_t> b(buf_.data() + pos_,
                                        buf_.size() - pos_);
  if (b.size() < kHeaderBytes) return std::nullopt;
  const std::uint8_t type = b[8];
  const std::uint64_t request_id = read_u64(b, 9);
  obs::TraceId trace{};
  std::memcpy(trace.data(), b.data() + 17, trace.size());
  const std::uint64_t parent_span = read_u64(b, 33);
  const std::uint32_t payload_len = read_u32(b, kHeaderBytes - 8);
  const std::uint32_t want_crc = read_u32(b, kHeaderBytes - 4);
  if (b.size() < kHeaderBytes + payload_len) return std::nullopt;

  const bool known_type =
      type <= static_cast<std::uint8_t>(MsgType::kQuerySeries) ||
      (type >= static_cast<std::uint8_t>(MsgType::kPredictOk) &&
       type <= static_cast<std::uint8_t>(MsgType::kQuerySeriesOk));
  if (!known_type) {
    poisoned_ = true;
    throw ProtocolError(ErrorCode::kMalformed,
                        "unknown frame type " + std::to_string(type));
  }
  const std::span<const std::uint8_t> payload =
      b.subspan(kHeaderBytes, payload_len);
  if (io::crc32(payload) != want_crc) {
    poisoned_ = true;
    throw ProtocolError(ErrorCode::kMalformed, "frame CRC mismatch");
  }
  Frame frame{static_cast<MsgType>(type), request_id,
              std::vector<std::uint8_t>(payload.begin(), payload.end()),
              trace, parent_span};
  pos_ += kHeaderBytes + payload_len;
  compact();
  return frame;
}

// --- message bodies --------------------------------------------------------

void PredictRequest::encode(io::Serializer& out) const {
  out.put_u32(shard);
  out.put_u32(deadline_ms);
  out.put_u32(static_cast<std::uint32_t>(rows.rows()));
  out.put_u32(static_cast<std::uint32_t>(rows.cols()));
  for (std::size_t r = 0; r < rows.rows(); ++r)
    for (double v : rows.row(r)) out.put_f64(v);
}

PredictRequest PredictRequest::decode(io::Deserializer& in) {
  PredictRequest req;
  req.shard = in.get_u32();
  req.deadline_ms = in.get_u32();
  const std::uint32_t n_rows = in.get_u32();
  const std::uint32_t n_cols = in.get_u32();
  if (n_rows > kMaxMatrixDim || n_cols > kMaxMatrixDim)
    throw io::SnapshotError("predict matrix dimensions out of range");
  if (in.remaining() < static_cast<std::size_t>(n_rows) * n_cols * 8)
    throw io::SnapshotError("predict matrix truncated");
  req.rows = Matrix(n_rows, n_cols);
  for (std::uint32_t r = 0; r < n_rows; ++r)
    for (std::uint32_t c = 0; c < n_cols; ++c) req.rows(r, c) = in.get_f64();
  return req;
}

void PredictResponse::encode(io::Serializer& out) const {
  out.put_doubles(values);
}

PredictResponse PredictResponse::decode(io::Deserializer& in) {
  PredictResponse resp;
  resp.values = in.get_doubles();
  return resp;
}

void ScrapeRequest::encode(io::Serializer& out) const { out.put_bool(json); }

ScrapeRequest ScrapeRequest::decode(io::Deserializer& in) {
  ScrapeRequest req;
  req.json = in.get_bool();
  return req;
}

void ScrapeResponse::encode(io::Serializer& out) const {
  out.put_string(body);
}

ScrapeResponse ScrapeResponse::decode(io::Deserializer& in) {
  ScrapeResponse resp;
  resp.body = in.get_string();
  return resp;
}

void StatusResponse::encode(io::Serializer& out) const {
  out.put_u64(fleet_steps);
  out.put_u32(static_cast<std::uint32_t>(shards.size()));
  for (const ShardStatus& s : shards) {
    out.put_string(s.kpi);
    out.put_string(s.model);
    out.put_string(s.scheme);
    out.put_u8(s.health);
    out.put_bool(s.ready);
    out.put_u32(s.num_features);
    out.put_i32(s.days_evaluated);
    out.put_i32(s.next_day);
    out.put_bool(s.done);
  }
}

StatusResponse StatusResponse::decode(io::Deserializer& in) {
  StatusResponse resp;
  resp.fleet_steps = in.get_u64();
  const std::uint32_t n = in.get_u32();
  if (n > kMaxMatrixDim)
    throw io::SnapshotError("status shard count out of range");
  resp.shards.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ShardStatus s;
    s.kpi = in.get_string();
    s.model = in.get_string();
    s.scheme = in.get_string();
    s.health = in.get_u8();
    s.ready = in.get_bool();
    s.num_features = in.get_u32();
    s.days_evaluated = in.get_i32();
    s.next_day = in.get_i32();
    s.done = in.get_bool();
    resp.shards.push_back(std::move(s));
  }
  return resp;
}

namespace {

tsdb::Resolution get_resolution(io::Deserializer& in) {
  const std::uint8_t r = in.get_u8();
  if (r > static_cast<std::uint8_t>(tsdb::Resolution::kHundredStep))
    throw io::SnapshotError("unknown series resolution " + std::to_string(r));
  return static_cast<tsdb::Resolution>(r);
}

void put_u64s(io::Serializer& out, const std::vector<std::uint64_t>& v) {
  out.put_u64(v.size());
  for (std::uint64_t x : v) out.put_u64(x);
}

std::vector<std::uint64_t> get_u64s(io::Deserializer& in) {
  const std::uint64_t n = in.get_count(8);
  std::vector<std::uint64_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(in.get_u64());
  return v;
}

void put_series(io::Serializer& out, const tsdb::SeriesData& s) {
  out.put_string(s.name);
  out.put_string(s.labels);
  out.put_u8(static_cast<std::uint8_t>(s.resolution));
  put_u64s(out, s.steps);
  out.put_doubles(s.values);
  out.put_doubles(s.min);
  out.put_doubles(s.max);
  put_u64s(out, s.counts);
}

tsdb::SeriesData get_series(io::Deserializer& in) {
  tsdb::SeriesData s;
  s.name = in.get_string();
  s.labels = in.get_string();
  s.resolution = get_resolution(in);
  s.steps = get_u64s(in);
  s.values = in.get_doubles();
  s.min = in.get_doubles();
  s.max = in.get_doubles();
  s.counts = get_u64s(in);
  if (s.values.size() != s.steps.size())
    throw io::SnapshotError("series step/value count mismatch");
  const std::size_t agg =
      s.resolution == tsdb::Resolution::kRaw ? 0 : s.steps.size();
  if (s.min.size() != agg || s.max.size() != agg || s.counts.size() != agg)
    throw io::SnapshotError("series aggregate vector count mismatch");
  return s;
}

}  // namespace

void SeriesRequest::encode(io::Serializer& out) const {
  out.put_string(query.name);
  out.put_string(query.labels_contains);
  out.put_u64(query.start_step);
  out.put_u64(query.end_step);
  out.put_u8(static_cast<std::uint8_t>(query.resolution));
  // Saturate: a cap past the u32 field must still read as "too many".
  out.put_u32(static_cast<std::uint32_t>(
      std::min<std::size_t>(query.max_series, ~std::uint32_t{0})));
}

SeriesRequest SeriesRequest::decode(io::Deserializer& in) {
  SeriesRequest req;
  req.query.name = in.get_string();
  req.query.labels_contains = in.get_string();
  req.query.start_step = in.get_u64();
  req.query.end_step = in.get_u64();
  req.query.resolution = get_resolution(in);
  req.query.max_series = in.get_u32();
  return req;
}

void SeriesResponse::encode(io::Serializer& out) const {
  out.put_u64(last_step);
  out.put_bool(truncated);
  out.put_u32(static_cast<std::uint32_t>(series.size()));
  for (const tsdb::SeriesData& s : series) put_series(out, s);
}

SeriesResponse SeriesResponse::decode(io::Deserializer& in) {
  SeriesResponse resp;
  resp.last_step = in.get_u64();
  resp.truncated = in.get_bool();
  const std::uint32_t n = in.get_u32();
  if (n > kMaxMatrixDim)
    throw io::SnapshotError("series count out of range");
  resp.series.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) resp.series.push_back(get_series(in));
  return resp;
}

void ErrorResponse::encode(io::Serializer& out) const {
  out.put_u8(static_cast<std::uint8_t>(code));
  out.put_string(message);
}

ErrorResponse ErrorResponse::decode(io::Deserializer& in) {
  ErrorResponse resp;
  const std::uint8_t code = in.get_u8();
  if (code > static_cast<std::uint8_t>(ErrorCode::kInternal))
    throw io::SnapshotError("unknown error code " + std::to_string(code));
  resp.code = static_cast<ErrorCode>(code);
  resp.message = in.get_string();
  return resp;
}

}  // namespace leaf::net
