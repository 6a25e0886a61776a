#include "ingress/wire.h"

#include "common/check.h"

namespace aid::ingress {

namespace {

using wire::WireReader;
using wire::WireWriter;

/// Wrap a fully-written payload in the frame header.
std::vector<u8> finish(FrameType type, WireWriter&& payload) {
  WireWriter out;
  const std::vector<u8>& body = payload.bytes();
  AID_CHECK_MSG(body.size() <= kMaxFramePayload, "oversized frame payload");
  out.put_u32(static_cast<u32>(body.size()));
  out.put_u8(static_cast<u8>(type));
  std::vector<u8> frame = out.take();
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

Decoded bad(std::string why) {
  Decoded d;
  d.status = DecodeStatus::kBad;
  d.error = std::move(why);
  return d;
}

/// Shared epilogue of every payload decoder: the reader must have
/// succeeded AND consumed the payload exactly.
bool strict_end(const WireReader& r, Decoded& d, const char* what) {
  if (!r.ok()) {
    d = bad(std::string(what) + ": truncated payload");
    return false;
  }
  if (r.remaining() != 0) {
    d = bad(std::string(what) + ": trailing payload bytes");
    return false;
  }
  return true;
}

}  // namespace

sched::ScheduleKind to_schedule_kind(WireSched s) {
  switch (s) {
    case WireSched::kStatic: return sched::ScheduleKind::kStatic;
    case WireSched::kDynamic: return sched::ScheduleKind::kDynamic;
    case WireSched::kGuided: return sched::ScheduleKind::kGuided;
    case WireSched::kAidStatic: return sched::ScheduleKind::kAidStatic;
    case WireSched::kAidHybrid: return sched::ScheduleKind::kAidHybrid;
    case WireSched::kAidDynamic: return sched::ScheduleKind::kAidDynamic;
  }
  return sched::ScheduleKind::kDynamic;
}

WireSched to_wire_sched(sched::ScheduleKind k) {
  switch (k) {
    case sched::ScheduleKind::kStatic: return WireSched::kStatic;
    case sched::ScheduleKind::kDynamic: return WireSched::kDynamic;
    case sched::ScheduleKind::kGuided: return WireSched::kGuided;
    case sched::ScheduleKind::kAidStatic: return WireSched::kAidStatic;
    case sched::ScheduleKind::kAidHybrid: return WireSched::kAidHybrid;
    case sched::ScheduleKind::kAidDynamic: return WireSched::kAidDynamic;
    default: return WireSched::kDynamic;  // related-work kinds: not wire-able
  }
}

FrameType type_of(const Frame& f) {
  struct Visitor {
    FrameType operator()(const HelloFrame&) { return FrameType::kHello; }
    FrameType operator()(const HelloAckFrame&) { return FrameType::kHelloAck; }
    FrameType operator()(const SubmitFrame&) { return FrameType::kSubmit; }
    FrameType operator()(const CancelFrame&) { return FrameType::kCancel; }
    FrameType operator()(const CompletedFrame&) { return FrameType::kCompleted; }
    FrameType operator()(const RejectedFrame&) { return FrameType::kRejected; }
    FrameType operator()(const ErrorFrame&) { return FrameType::kError; }
    FrameType operator()(const CreditFrame&) { return FrameType::kCredit; }
  };
  return std::visit(Visitor{}, f);
}

std::vector<u8> encode(const Frame& f) {
  struct Visitor {
    std::vector<u8> operator()(const HelloFrame& m) {
      WireWriter w;
      w.put_u32(m.version);
      w.put_str(m.client_name);
      return finish(FrameType::kHello, std::move(w));
    }
    std::vector<u8> operator()(const HelloAckFrame& m) {
      WireWriter w;
      w.put_u32(m.version);
      w.put_u32(m.credits);
      return finish(FrameType::kHelloAck, std::move(w));
    }
    std::vector<u8> operator()(const SubmitFrame& m) {
      WireWriter w;
      w.put_u64(m.req_id);
      w.put_u8(m.qos);
      w.put_i64(m.deadline_ns);
      w.put_i64(m.count);
      w.put_u8(m.sched_kind);
      w.put_i64(m.chunk);
      w.put_str(m.workload);
      return finish(FrameType::kSubmit, std::move(w));
    }
    std::vector<u8> operator()(const CancelFrame& m) {
      WireWriter w;
      w.put_u64(m.req_id);
      return finish(FrameType::kCancel, std::move(w));
    }
    std::vector<u8> operator()(const CompletedFrame& m) {
      WireWriter w;
      w.put_u64(m.req_id);
      w.put_u8(m.status);
      w.put_f64(m.checksum);
      w.put_i64(m.queue_wait_ns);
      w.put_i64(m.service_ns);
      return finish(FrameType::kCompleted, std::move(w));
    }
    std::vector<u8> operator()(const RejectedFrame& m) {
      WireWriter w;
      w.put_u64(m.req_id);
      w.put_str(m.reason);
      return finish(FrameType::kRejected, std::move(w));
    }
    std::vector<u8> operator()(const ErrorFrame& m) {
      WireWriter w;
      w.put_u64(m.req_id);
      w.put_str(m.message);
      return finish(FrameType::kError, std::move(w));
    }
    std::vector<u8> operator()(const CreditFrame& m) {
      WireWriter w;
      w.put_u32(m.credits);
      return finish(FrameType::kCredit, std::move(w));
    }
  };
  return std::visit(Visitor{}, f);
}

Decoded decode_frame(const u8* data, usize size) {
  Decoded d;
  if (size < kFrameHeaderBytes) return d;  // kNeedMore

  WireReader header(data, kFrameHeaderBytes);
  const u32 len = header.get_u32();
  const u8 type = header.get_u8();
  // The length field is validated BEFORE waiting for the payload: a
  // hostile length can therefore never make the server buffer more than
  // one frame's worth of bytes.
  if (len > kMaxFramePayload)
    return bad("frame payload length " + std::to_string(len) +
               " exceeds cap " + std::to_string(kMaxFramePayload));
  if (size < kFrameHeaderBytes + len) return d;  // kNeedMore

  WireReader r(data + kFrameHeaderBytes, len);
  d.consumed = kFrameHeaderBytes + len;

  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello: {
      HelloFrame m;
      m.version = r.get_u32();
      m.client_name = r.get_str();
      if (!strict_end(r, d, "HELLO")) return d;
      d.frame = std::move(m);
      break;
    }
    case FrameType::kHelloAck: {
      HelloAckFrame m;
      m.version = r.get_u32();
      m.credits = r.get_u32();
      if (!strict_end(r, d, "HELLO_ACK")) return d;
      d.frame = m;
      break;
    }
    case FrameType::kSubmit: {
      SubmitFrame m;
      m.req_id = r.get_u64();
      m.qos = r.get_u8();
      m.deadline_ns = r.get_i64();
      m.count = r.get_i64();
      m.sched_kind = r.get_u8();
      m.chunk = r.get_i64();
      m.workload = r.get_str();
      if (!strict_end(r, d, "SUBMIT")) return d;
      if (m.qos >= static_cast<u8>(serve::kNumQosClasses))
        return bad("SUBMIT: QoS class byte " + std::to_string(m.qos) +
                   " out of range");
      if (m.sched_kind > kMaxWireSched)
        return bad("SUBMIT: schedule kind byte " +
                   std::to_string(m.sched_kind) + " out of range");
      if (m.deadline_ns < 0) return bad("SUBMIT: negative deadline");
      if (m.count < 0) return bad("SUBMIT: negative trip count");
      if (m.chunk < 0) return bad("SUBMIT: negative chunk");
      d.frame = std::move(m);
      break;
    }
    case FrameType::kCancel: {
      CancelFrame m;
      m.req_id = r.get_u64();
      if (!strict_end(r, d, "CANCEL")) return d;
      d.frame = m;
      break;
    }
    case FrameType::kCompleted: {
      CompletedFrame m;
      m.req_id = r.get_u64();
      m.status = r.get_u8();
      m.checksum = r.get_f64();
      m.queue_wait_ns = r.get_i64();
      m.service_ns = r.get_i64();
      if (!strict_end(r, d, "COMPLETED")) return d;
      if (m.status > static_cast<u8>(serve::JobStatus::kFailed))
        return bad("COMPLETED: status byte out of range");
      d.frame = m;
      break;
    }
    case FrameType::kRejected: {
      RejectedFrame m;
      m.req_id = r.get_u64();
      m.reason = r.get_str();
      if (!strict_end(r, d, "REJECTED")) return d;
      d.frame = std::move(m);
      break;
    }
    case FrameType::kError: {
      ErrorFrame m;
      m.req_id = r.get_u64();
      m.message = r.get_str();
      if (!strict_end(r, d, "ERROR")) return d;
      d.frame = std::move(m);
      break;
    }
    case FrameType::kCredit: {
      CreditFrame m;
      m.credits = r.get_u32();
      if (!strict_end(r, d, "CREDIT")) return d;
      if (m.credits == 0) return bad("CREDIT: zero-credit grant");
      d.frame = m;
      break;
    }
    default:
      return bad("unknown frame type " + std::to_string(type));
  }
  d.status = DecodeStatus::kOk;
  return d;
}

}  // namespace aid::ingress
