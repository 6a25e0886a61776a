// Codec-level tests for the ingress wire protocol: round-trips for every
// frame type, incremental (byte-at-a-time) reassembly, and the trust
// boundary — truncated, oversized, out-of-range and outright garbage
// input must come back as kNeedMore/kBad, never a crash or an abort.
#include "ingress/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace aid::ingress {
namespace {

std::vector<Frame> sample_frames() {
  SubmitFrame submit;
  submit.req_id = 42;
  submit.qos = static_cast<u8>(serve::QosClass::kLatency);
  submit.deadline_ns = 5'000'000;
  submit.count = 1 << 14;
  submit.sched_kind = static_cast<u8>(WireSched::kAidHybrid);
  submit.chunk = 256;
  submit.workload = "blackscholes";

  CompletedFrame completed;
  completed.req_id = 42;
  completed.status = static_cast<u8>(serve::JobStatus::kDone);
  completed.checksum = -1234.5678901234;
  completed.queue_wait_ns = 777;
  completed.service_ns = 123456789;

  return {
      HelloFrame{kProtocolVersion, "tenant-a"},
      HelloAckFrame{kProtocolVersion, 8},
      submit,
      CancelFrame{42},
      completed,
      RejectedFrame{9, "queue full"},
      ErrorFrame{0, "bad frame: trailing bytes"},
      CreditFrame{3},
  };
}

TEST(IngressWire, RoundTripsEveryFrameType) {
  for (const Frame& f : sample_frames()) {
    const std::vector<u8> bytes = encode(f);
    ASSERT_GE(bytes.size(), kFrameHeaderBytes);
    const Decoded d = decode_frame(bytes.data(), bytes.size());
    ASSERT_EQ(d.status, DecodeStatus::kOk) << to_string(type_of(f)) << ": "
                                           << d.error;
    EXPECT_EQ(d.consumed, bytes.size());
    EXPECT_EQ(type_of(d.frame), type_of(f));
  }
}

TEST(IngressWire, SubmitFieldsSurviveRoundTrip) {
  SubmitFrame m;
  m.req_id = 0xDEADBEEFCAFEBABEULL;
  m.qos = static_cast<u8>(serve::QosClass::kBatch);
  m.deadline_ns = 123456789012345;
  m.count = 987654;
  m.sched_kind = static_cast<u8>(WireSched::kGuided);
  m.chunk = 64;
  m.workload = "EP";
  const std::vector<u8> bytes = encode(Frame{m});
  const Decoded d = decode_frame(bytes.data(), bytes.size());
  ASSERT_EQ(d.status, DecodeStatus::kOk) << d.error;
  const auto& out = std::get<SubmitFrame>(d.frame);
  EXPECT_EQ(out.req_id, m.req_id);
  EXPECT_EQ(out.qos, m.qos);
  EXPECT_EQ(out.deadline_ns, m.deadline_ns);
  EXPECT_EQ(out.count, m.count);
  EXPECT_EQ(out.sched_kind, m.sched_kind);
  EXPECT_EQ(out.chunk, m.chunk);
  EXPECT_EQ(out.workload, m.workload);
}

TEST(IngressWire, CompletedChecksumIsBitExact) {
  CompletedFrame m;
  m.req_id = 7;
  m.status = static_cast<u8>(serve::JobStatus::kDone);
  m.checksum = 0x1.fedcba9876543p+42;
  const std::vector<u8> bytes = encode(Frame{m});
  const Decoded d = decode_frame(bytes.data(), bytes.size());
  ASSERT_EQ(d.status, DecodeStatus::kOk) << d.error;
  const auto& out = std::get<CompletedFrame>(d.frame);
  u64 a = 0;
  u64 b = 0;
  std::memcpy(&a, &m.checksum, sizeof a);
  std::memcpy(&b, &out.checksum, sizeof b);
  EXPECT_EQ(a, b);
}

TEST(IngressWire, HelloVersionFieldIsPreserved) {
  // A FUTURE version must still decode at the frame layer (the version
  // check is the server's job) so the server can answer with a structured
  // ERROR rather than dropping bytes on the floor.
  const std::vector<u8> bytes = encode(Frame{HelloFrame{99, "time-traveler"}});
  const Decoded d = decode_frame(bytes.data(), bytes.size());
  ASSERT_EQ(d.status, DecodeStatus::kOk) << d.error;
  EXPECT_EQ(std::get<HelloFrame>(d.frame).version, 99u);
}

TEST(IngressWire, FrameBufferReassemblesByteAtATime) {
  // All sample frames concatenated, fed one byte at a time: every frame
  // must pop out exactly once, in order, with kNeedMore in between.
  std::vector<u8> stream;
  const std::vector<Frame> frames = sample_frames();
  for (const Frame& f : frames) {
    const std::vector<u8> bytes = encode(f);
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }

  FrameBuffer fb;
  std::vector<FrameType> seen;
  for (const u8 byte : stream) {
    fb.append(&byte, 1);
    while (true) {
      Decoded d = fb.next();
      if (d.status == DecodeStatus::kNeedMore) break;
      ASSERT_EQ(d.status, DecodeStatus::kOk) << d.error;
      seen.push_back(type_of(d.frame));
    }
  }
  ASSERT_EQ(seen.size(), frames.size());
  for (usize i = 0; i < frames.size(); ++i)
    EXPECT_EQ(seen[i], type_of(frames[i])) << "frame " << i;
  EXPECT_EQ(fb.buffered(), 0u);
}

TEST(IngressWire, TruncatedFrameNeedsMore) {
  const std::vector<u8> bytes =
      encode(Frame{RejectedFrame{1, "some reason text"}});
  // Every strict prefix (including the empty one and a partial header)
  // is kNeedMore — never kBad, never a bogus kOk.
  for (usize n = 0; n < bytes.size(); ++n) {
    const Decoded d = decode_frame(bytes.data(), n);
    EXPECT_EQ(d.status, DecodeStatus::kNeedMore) << "prefix " << n;
    EXPECT_EQ(d.consumed, 0u);
  }
}

TEST(IngressWire, OversizedLengthIsBadBeforePayloadArrives) {
  // Header claims 1 MiB payload: rejected on sight, without waiting to
  // buffer a megabyte from a hostile client.
  u8 header[kFrameHeaderBytes] = {};
  const u32 huge = kMaxFramePayload + 1;
  std::memcpy(header, &huge, sizeof huge);
  header[4] = static_cast<u8>(FrameType::kSubmit);
  const Decoded d = decode_frame(header, sizeof header);
  EXPECT_EQ(d.status, DecodeStatus::kBad);
  EXPECT_FALSE(d.error.empty());
}

TEST(IngressWire, UnknownFrameTypeIsBad) {
  // 0xEE was never a FrameType; 9 and 10 are retired (they negotiated a
  // deleted shared-memory transport) and must stay unknown.
  for (const u8 type : {u8{0xEE}, u8{9}, u8{10}}) {
    std::vector<u8> bytes = encode(Frame{CreditFrame{1}});
    bytes[4] = type;
    const Decoded d = decode_frame(bytes.data(), bytes.size());
    EXPECT_EQ(d.status, DecodeStatus::kBad) << "type byte " << int{type};
    EXPECT_NE(d.error.find("unknown frame type"), std::string::npos)
        << d.error;
  }
}

TEST(IngressWire, TrailingBytesAreBad) {
  std::vector<u8> bytes = encode(Frame{CancelFrame{5}});
  // Grow the declared payload by one byte and append garbage: strict
  // decode must refuse the frame rather than ignore the tail.
  u32 len = 0;
  std::memcpy(&len, bytes.data(), sizeof len);
  ++len;
  std::memcpy(bytes.data(), &len, sizeof len);
  bytes.push_back(0x00);
  const Decoded d = decode_frame(bytes.data(), bytes.size());
  EXPECT_EQ(d.status, DecodeStatus::kBad);
}

TEST(IngressWire, OutOfRangeEnumBytesAreBad) {
  SubmitFrame m;
  m.req_id = 1;
  m.count = 10;
  m.workload = "EP";

  {
    SubmitFrame bad = m;
    bad.qos = 0x7F;  // >= kNumQosClasses
    const std::vector<u8> bytes = encode(Frame{bad});
    EXPECT_EQ(decode_frame(bytes.data(), bytes.size()).status,
              DecodeStatus::kBad);
  }
  {
    SubmitFrame bad = m;
    bad.sched_kind = kMaxWireSched + 1;
    const std::vector<u8> bytes = encode(Frame{bad});
    EXPECT_EQ(decode_frame(bytes.data(), bytes.size()).status,
              DecodeStatus::kBad);
  }
  {
    SubmitFrame bad = m;
    bad.count = -1;  // negative scalars are wire errors
    const std::vector<u8> bytes = encode(Frame{bad});
    EXPECT_EQ(decode_frame(bytes.data(), bytes.size()).status,
              DecodeStatus::kBad);
  }
}

TEST(IngressWire, ZeroCreditGrantIsBad) {
  const std::vector<u8> bytes = encode(Frame{CreditFrame{0}});
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size()).status,
            DecodeStatus::kBad);
}

TEST(IngressWire, GarbageFuzzNeverCrashes) {
  // Deterministic-seed fuzz: random byte blobs (sometimes starting from a
  // valid frame with mutations) must always yield kOk/kNeedMore/kBad and
  // never crash, hang or over-consume. This test IS the no-crash claim in
  // the acceptance criteria — run it under ASan/UBSan in CI.
  Rng rng(0xF1CED);
  const std::vector<Frame> frames = sample_frames();
  for (int round = 0; round < 5000; ++round) {
    std::vector<u8> blob;
    if (round % 3 == 0) {
      // Pure garbage.
      const i64 n = rng.uniform_int(0, 256);
      blob.reserve(static_cast<usize>(n));
      for (i64 i = 0; i < n; ++i)
        blob.push_back(static_cast<u8>(rng.uniform_int(0, 255)));
    } else {
      // A valid frame with 1..8 byte mutations (flips, truncation).
      blob = encode(frames[static_cast<usize>(
          rng.uniform_int(0, static_cast<i64>(frames.size()) - 1))]);
      const i64 mutations = rng.uniform_int(1, 8);
      for (i64 i = 0; i < mutations && !blob.empty(); ++i) {
        const usize at = static_cast<usize>(
            rng.uniform_int(0, static_cast<i64>(blob.size()) - 1));
        blob[at] = static_cast<u8>(rng.uniform_int(0, 255));
      }
      if (rng.next_double() < 0.3)
        blob.resize(static_cast<usize>(
            rng.uniform_int(0, static_cast<i64>(blob.size()))));
    }

    const Decoded d = decode_frame(blob.data(), blob.size());
    switch (d.status) {
      case DecodeStatus::kOk:
        EXPECT_LE(d.consumed, blob.size());
        EXPECT_GE(d.consumed, kFrameHeaderBytes);
        break;
      case DecodeStatus::kNeedMore:
        EXPECT_EQ(d.consumed, 0u);
        break;
      case DecodeStatus::kBad:
        EXPECT_FALSE(d.error.empty());
        break;
    }
  }
}

TEST(IngressWire, LongStringsAreTruncatedOnEncodeNotCorrupted) {
  // Strings are capped at the codec layer; an over-long reject reason is
  // truncated to the cap but still round-trips as a valid frame.
  RejectedFrame m{1, std::string(10'000, 'x')};
  const std::vector<u8> bytes = encode(Frame{m});
  const Decoded d = decode_frame(bytes.data(), bytes.size());
  ASSERT_EQ(d.status, DecodeStatus::kOk) << d.error;
  const auto& out = std::get<RejectedFrame>(d.frame);
  EXPECT_EQ(out.reason.size(), wire::kWireMaxString);
  EXPECT_EQ(out.reason, std::string(wire::kWireMaxString, 'x'));
}

TEST(IngressWire, ScheduleKindMappingRoundTrips) {
  for (u8 w = 0; w <= kMaxWireSched; ++w) {
    const WireSched ws = static_cast<WireSched>(w);
    EXPECT_EQ(to_wire_sched(to_schedule_kind(ws)), ws) << static_cast<int>(w);
  }
}

}  // namespace
}  // namespace aid::ingress
