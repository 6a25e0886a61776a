// Ingress wire protocol: length-prefixed, versioned binary frames.
//
// Everything that crosses the Unix-domain socket between an out-of-process
// client and an IngressServer is one of the frames below, serialized with
// the explicit little-endian codec in common/wire_codec.h:
//
//   [u32 payload_len][u8 frame_type][payload bytes ...]
//
// payload_len covers the payload only (not the 5-byte header) and is
// capped at kMaxFramePayload — a length field beyond the cap is a
// protocol error the moment the header arrives, so a hostile client
// cannot make the server buffer unbounded input. Frame grammar, the
// credit-flow state machine and the trust boundary are documented in
// src/ingress/README.md.
//
// DECODING IS THE TRUST BOUNDARY. Frames arrive from another process and
// are treated as untrusted input end to end: decode_frame() never throws
// and never aborts — every malformed input (truncated payload, over-long
// string, unknown frame type, out-of-range enum byte, trailing garbage)
// comes back as DecodeStatus::kBad with a reason, which the server turns
// into a structured ERROR frame and a connection close.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "common/types.h"
#include "common/wire_codec.h"
#include "sched/schedule_spec.h"
#include "serve/job.h"
#include "serve/qos.h"

namespace aid::ingress {

/// Bumped on any incompatible frame change. HELLO carries the client's
/// version; a mismatch is answered with ERROR and a close (never a crash,
/// never a silently misdecoded frame).
inline constexpr u32 kProtocolVersion = 1;

/// Frame header: u32 little-endian payload length + u8 frame type.
inline constexpr usize kFrameHeaderBytes = 5;

/// Hard cap on one frame's payload. Wire job specs are names plus a few
/// scalars; nothing legitimate comes close.
inline constexpr u32 kMaxFramePayload = 64 * 1024;

enum class FrameType : u8 {
  // client -> server
  kHello = 1,    ///< version + client/tenant name; must be the first frame
  kSubmit = 3,   ///< one wire job spec (consumes one credit)
  kCancel = 4,   ///< cooperative cancel of an in-flight req_id
  // server -> client
  kHelloAck = 2,   ///< negotiated version + initial credit grant
  kCompleted = 5,  ///< terminal: ran (done) or stopped (expired/cancelled)
  kRejected = 6,   ///< terminal: refused before running, with a reason
  kError = 7,      ///< terminal (req_id != 0) or connection-fatal (req_id 0)
  kCredit = 8,     ///< flow-control grant: add N credits to the window
  // 9 and 10 are retired: they negotiated a shared-memory ring transport
  // that was deleted. They decode as unknown types, so a client that still
  // sends them gets ERROR{0} and a close. Do not reuse them.
};

[[nodiscard]] constexpr const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloAck: return "HELLO_ACK";
    case FrameType::kSubmit: return "SUBMIT";
    case FrameType::kCancel: return "CANCEL";
    case FrameType::kCompleted: return "COMPLETED";
    case FrameType::kRejected: return "REJECTED";
    case FrameType::kError: return "ERROR";
    case FrameType::kCredit: return "CREDIT";
  }
  return "?";
}

/// Schedule kinds with STABLE wire values (independent of the in-process
/// sched::ScheduleKind enum order, which may be refactored freely).
enum class WireSched : u8 {
  kStatic = 0,
  kDynamic = 1,
  kGuided = 2,
  kAidStatic = 3,
  kAidHybrid = 4,
  kAidDynamic = 5,
};
inline constexpr u8 kMaxWireSched = 5;

[[nodiscard]] sched::ScheduleKind to_schedule_kind(WireSched s);
[[nodiscard]] WireSched to_wire_sched(sched::ScheduleKind k);

// ------------------------------------------------------------------ frames

struct HelloFrame {
  u32 version = kProtocolVersion;
  std::string client_name;  ///< the connection's tenant id (stats keying)
};

struct HelloAckFrame {
  u32 version = kProtocolVersion;
  u32 credits = 0;  ///< initial credit window (max in-flight jobs)
};

/// The wire-format job spec: a NAMED workload from the registry plus
/// parameters — function pointers don't cross a socket (ROADMAP ingress
/// item), so remote jobs are named computations, validated server-side by
/// workloads::validate_serve_kernel().
struct SubmitFrame {
  u64 req_id = 0;  ///< client-chosen, unique per connection while in flight
  u8 qos = 0;      ///< serve::QosClass value (validated <= kBatch)
  i64 deadline_ns = 0;  ///< whole-life relative deadline (0 = none)
  i64 count = 0;        ///< workload trip count (validated server-side)
  u8 sched_kind = static_cast<u8>(WireSched::kDynamic);
  i64 chunk = 0;  ///< schedule chunk parameter (0 = schedule default)
  std::string workload;  ///< registry name, e.g. "EP", "blackscholes"
};

struct CancelFrame {
  u64 req_id = 0;
};

struct CompletedFrame {
  u64 req_id = 0;
  u8 status = 0;  ///< serve::JobStatus: kDone, kExpired or kCancelled
  double checksum = 0.0;  ///< workload checksum (kDone only)
  i64 queue_wait_ns = 0;
  i64 service_ns = 0;
};

struct RejectedFrame {
  u64 req_id = 0;
  std::string reason;  ///< admission backpressure, credit violation, ...
};

struct ErrorFrame {
  u64 req_id = 0;  ///< 0 = connection-level (the server closes after it)
  std::string message;  ///< truncated what() / protocol-error description
};

struct CreditFrame {
  u32 credits = 0;  ///< grant: add this many credits to the window
};

using Frame = std::variant<HelloFrame, HelloAckFrame, SubmitFrame,
                           CancelFrame, CompletedFrame, RejectedFrame,
                           ErrorFrame, CreditFrame>;

[[nodiscard]] FrameType type_of(const Frame& f);

// ------------------------------------------------------------------- codec

/// Serialize one frame, header included.
[[nodiscard]] std::vector<u8> encode(const Frame& f);

enum class DecodeStatus : u8 {
  kOk = 0,    ///< one frame decoded; `consumed` bytes were eaten
  kNeedMore,  ///< the buffer holds a frame prefix; read more bytes
  kBad,       ///< malformed input; `error` says why — close the connection
};

struct Decoded {
  DecodeStatus status = DecodeStatus::kNeedMore;
  usize consumed = 0;
  Frame frame;
  std::string error;
};

/// Decode the first complete frame of `data`. Strict: the payload must be
/// exactly the fields of the declared type (trailing bytes = kBad), every
/// enum byte must be in range, lengths must be internally consistent.
[[nodiscard]] Decoded decode_frame(const u8* data, usize size);

/// Accumulates raw socket bytes and yields complete frames. kBad leaves
/// the buffer untouched — the caller is expected to close the connection.
class FrameBuffer {
 public:
  void append(const u8* data, usize n) { buf_.insert(buf_.end(), data, data + n); }

  [[nodiscard]] Decoded next() {
    Decoded d = decode_frame(buf_.data(), buf_.size());
    if (d.status == DecodeStatus::kOk)
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(d.consumed));
    return d;
  }

  [[nodiscard]] usize buffered() const { return buf_.size(); }

 private:
  std::vector<u8> buf_;
};

}  // namespace aid::ingress
