// leaf::net — length-prefixed binary wire protocol for the serving fleet.
//
// Frames are the unit of transport.  On the wire (all integers
// little-endian, encoded with the bounds-checked leaf::io serializer):
//
//   magic        4 bytes   "LNET"
//   version      u32       kProtocolVersion (2)
//   type         u8        MsgType
//   request_id   u64       client-chosen correlation id, echoed in responses
//   trace_id     16 bytes  distributed-trace id (zero = none)
//   parent_span  u64       caller's span id (zero = trace root)
//   payload_len  u32       payload byte count (bounded by the decoder)
//   crc          u32       CRC-32 of the payload bytes (io::crc32)
//   payload      bytes     one encoded message body (below)
//
// Versioning: v2 added the 24 tracing bytes between request_id and
// payload_len.  The decoder accepts exactly kProtocolVersion; any other
// version (including the retired v1) poisons the stream, since a header
// of unknown layout cannot be resynchronized.
//
// Like the LEAFSNAP container, every frame is independently checksummed
// and every decode parses into temporaries with explicit bounds checks:
// a truncated, bit-flipped, or oversized frame raises a typed
// `ProtocolError` identifying what was wrong — never UB, never a partial
// message handed to the application.  The decoder is incremental (feed
// bytes as they arrive off a socket; frames pop out when complete), so
// the same code path serves the poll-based TCP server and the
// deterministic in-process loopback transport.
//
// Message bodies are encoded with io::Serializer and decoded with
// io::Deserializer; a body that fails structural validation (count
// mismatch, trailing bytes, unknown enum value) is a malformed frame.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "io/serializer.hpp"
#include "obs/trace.hpp"
#include "tsdb/store.hpp"

namespace leaf::net {

inline constexpr char kMagic[4] = {'L', 'N', 'E', 'T'};
/// The protocol version every frame carries (v2: per-frame trace id +
/// parent span id).
inline constexpr std::uint32_t kProtocolVersion = 2;
/// Frame header size: magic + version + type + request_id + trace_id +
/// parent_span + payload_len + crc.
inline constexpr std::size_t kHeaderBytes = 4 + 4 + 1 + 8 + 16 + 8 + 4 + 4;
/// Per-frame payload ceiling; a longer frame is rejected as kOversized.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/// Frame/message types.  Requests are < 16, responses >= 16, so a peer
/// can reject a response-typed frame arriving on a server connection.
enum class MsgType : std::uint8_t {
  kPredict = 0,        ///< one feature row -> one forecast
  kBatchPredict = 1,   ///< n feature rows -> n forecasts, one model pass
  kScrapeMetrics = 2,  ///< Prometheus text or JSON scrape
  kFleetStatus = 3,    ///< per-shard serving status
  kQuerySeries = 4,    ///< telemetry store range query (leaf::tsdb)
  kPredictOk = 16,
  kScrapeOk = 17,
  kStatusOk = 18,
  kError = 19,  ///< typed failure (ErrorResponse payload)
  kQuerySeriesOk = 20,
};

const char* to_string(MsgType t);
bool is_request(MsgType t);

/// Typed failure codes carried by kError responses.  SHED and RETRY are
/// explicit admission-control outcomes — a loaded server *answers* that
/// it dropped the request, it never silently drops it.
enum class ErrorCode : std::uint8_t {
  kMalformed = 0,    ///< frame or body failed structural validation
  kOversized = 1,    ///< frame or batch exceeds the configured bound
  kBadShard = 2,     ///< shard index outside the fleet
  kUnavailable = 3,  ///< shard exists but cannot serve (quarantined/unfit)
  kShed = 4,         ///< deadline expired before service; do not retry
  kRetry = 5,        ///< admission queue full; retry after backoff
  kInternal = 6,     ///< server-side exception (message has what())
};

const char* to_string(ErrorCode c);

/// Raised by the frame decoder (and body codecs) on malformed input.
/// `code()` is the typed cause; `fatal()` distinguishes damage that
/// desynchronizes the byte stream (bad magic, CRC mismatch: the
/// connection must die) from per-message problems the connection can
/// survive (an oversized but well-framed request).
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(ErrorCode code, const std::string& what, bool fatal = true)
      : std::runtime_error("net: " + what), code_(code), fatal_(fatal) {}

  ErrorCode code() const { return code_; }
  bool fatal() const { return fatal_; }

 private:
  ErrorCode code_;
  bool fatal_;
};

/// One decoded frame: type + correlation id + verified payload bytes,
/// plus the tracing context.  The tracing fields default to "absent" so
/// `Frame{type, id, payload}` aggregate initializers keep working.
struct Frame {
  MsgType type = MsgType::kPredict;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
  obs::TraceId trace{};           ///< all-zero = no trace attached
  std::uint64_t parent_span = 0;  ///< 0 = root of the trace

  bool operator==(const Frame&) const = default;
};

/// Encodes a frame (header + CRC + payload) ready for the wire.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Incremental frame decoder: feed() bytes in any chunking (byte-at-a-time
/// included); next() yields complete, CRC-verified frames in order.
/// Malformed input throws ProtocolError from feed() or next(); after a
/// fatal error the decoder refuses further input (the stream cannot be
/// resynchronized).
class FrameDecoder {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed as a complete frame (a non-empty
  /// value on connection close means the peer died mid-frame).
  std::size_t pending_bytes() const { return buf_.size() - pos_; }
  bool poisoned() const { return poisoned_; }

 private:
  void validate_header();
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
};

// --- message bodies --------------------------------------------------------

/// kPredict / kBatchPredict body.  `deadline_ms` is a relative service
/// budget: the request must *start* being served within that many
/// milliseconds of arrival or be SHED (0 = no deadline).  kPredict
/// carries exactly one row; kBatchPredict any row count the server's
/// admission config allows.
struct PredictRequest {
  std::uint32_t shard = 0;
  std::uint32_t deadline_ms = 0;
  Matrix rows;  ///< rows x num_features

  void encode(io::Serializer& out) const;
  static PredictRequest decode(io::Deserializer& in);
};

/// kPredictOk body: one forecast per request row, in row order.
struct PredictResponse {
  std::vector<double> values;

  void encode(io::Serializer& out) const;
  static PredictResponse decode(io::Deserializer& in);
};

/// kScrapeMetrics body.
struct ScrapeRequest {
  bool json = false;

  void encode(io::Serializer& out) const;
  static ScrapeRequest decode(io::Deserializer& in);
};

/// kScrapeOk body.
struct ScrapeResponse {
  std::string body;

  void encode(io::Serializer& out) const;
  static ScrapeResponse decode(io::Deserializer& in);
};

/// kStatusOk body: the serving surface a client needs to build valid
/// predict requests (feature counts, readiness) plus progress context.
struct ShardStatus {
  std::string kpi;
  std::string model;
  std::string scheme;
  std::uint8_t health = 0;  ///< serve::ShardHealth numeric value
  bool ready = false;       ///< accepts predict requests right now
  std::uint32_t num_features = 0;
  std::int32_t days_evaluated = 0;
  std::int32_t next_day = 0;
  bool done = false;

  bool operator==(const ShardStatus&) const = default;
};

struct StatusResponse {
  std::uint64_t fleet_steps = 0;
  std::vector<ShardStatus> shards;

  void encode(io::Serializer& out) const;
  static StatusResponse decode(io::Deserializer& in);
};

/// kQuerySeries body: a telemetry-store range query (tsdb::Store::Query:
/// name matcher, label substring, inclusive logical step range, tier and
/// series cap).  On the wire the resolution is one byte and anything but
/// 0, 1, 2 is a malformed body; `max_series` travels as a saturated u32,
/// and the server enforces its own ceiling on top (kOversized).
struct SeriesRequest {
  tsdb::Store::Query query;

  void encode(io::Serializer& out) const;
  static SeriesRequest decode(io::Deserializer& in);
};

/// kQuerySeriesOk body: the store's query result.  The decoder checks
/// each series' vector lengths against its tier (tsdb::SeriesData).
struct SeriesResponse {
  std::uint64_t last_step = 0;  ///< newest sample step in the store
  bool truncated = false;       ///< more series matched than returned
  std::vector<tsdb::SeriesData> series;

  void encode(io::Serializer& out) const;
  static SeriesResponse decode(io::Deserializer& in);
};

/// kError body.
struct ErrorResponse {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  void encode(io::Serializer& out) const;
  static ErrorResponse decode(io::Deserializer& in);
};

/// Convenience: encodes `body` into a frame of the given type, carrying
/// `trace` (a response echoes its request's).
template <typename Body>
Frame make_frame(MsgType type, std::uint64_t request_id, const Body& body,
                 const obs::TraceId& trace = {}) {
  io::Serializer s;
  body.encode(s);
  return Frame{type, request_id,
               std::vector<std::uint8_t>(s.bytes().begin(), s.bytes().end()),
               trace};
}

/// Decodes a frame payload as `Body`, converting serializer bounds errors
/// and trailing bytes into non-fatal kMalformed ProtocolErrors.
template <typename Body>
Body decode_body(const Frame& frame) {
  io::Deserializer in(frame.payload);
  try {
    Body body = Body::decode(in);
    if (!in.exhausted())
      throw ProtocolError(ErrorCode::kMalformed,
                          "trailing bytes after message body",
                          /*fatal=*/false);
    return body;
  } catch (const io::SnapshotError& e) {
    throw ProtocolError(ErrorCode::kMalformed,
                        std::string("bad message body: ") + e.what(),
                        /*fatal=*/false);
  }
}

}  // namespace leaf::net
