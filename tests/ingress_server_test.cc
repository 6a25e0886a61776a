// IngressServer/IngressClient integration tests over real AF_UNIX
// sockets: submit/complete with checksum verification, no connection
// waiting for another's kernel build, rejects, credit flow (client
// blocks, server rejects), disconnect cancellation,
// per-tenant stats, protocol-error handling, the non-blocking JobTicket
// surface, and an out-of-process fork/exec case driving the tools
// binaries end to end.
#include "ingress/ingress_server.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ingress/ingress_client.h"
#include "platform/platform.h"
#include "serve/serve_node.h"
#include "workloads/serve_kernel.h"

namespace aid::ingress {
namespace {

using serve::JobStatus;
using serve::QosClass;

std::string test_socket_path(const char* tag) {
  return "/tmp/aid_ingress_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

/// A fixture owning a small symmetric node + ingress. Batch gets
/// max_inflight=1 so tests can pin jobs in the queue deterministically.
struct NodeAndServer {
  explicit NodeAndServer(const char* tag, u32 credits = 8)
      : node(platform::symmetric(4), node_config()),
        server(node, server_config(tag, credits)) {}

  static serve::ServeNode::Config node_config() {
    serve::ServeNode::Config c;
    c.dispatchers = 2;
    c.cls[serve::index_of(QosClass::kBatch)] = {4, 1, 1, 1.0};
    return c;
  }
  static IngressServer::Config server_config(const char* tag, u32 credits) {
    IngressServer::Config c;
    c.socket_path = test_socket_path(tag);
    c.credit_window = credits;
    return c;
  }

  IngressClient connect(const std::string& name) {
    std::string error;
    auto c = IngressClient::connect(server.socket_path(), name, &error);
    EXPECT_TRUE(c.has_value()) << error;
    return std::move(*c);
  }

  serve::ServeNode node;
  IngressServer server;
};

/// A trip count big enough that a job reliably outlives a few microseconds
/// of frame processing (EP at this size runs for milliseconds).
constexpr i64 kLongCount = workloads::kMaxServeCount;

double local_serial_checksum(const char* workload, i64 count) {
  std::string error;
  auto k = workloads::make_serve_kernel(workload, count, &error);
  EXPECT_TRUE(k.has_value()) << error;
  k->body(0, k->count, rt::WorkerInfo{});
  return k->checksum();
}

// ---------------------------------------------------------- ticket surface

TEST(JobTicketNonBlocking, PollTransitionsFromNullToResult) {
  serve::ServeNode node(platform::symmetric(4), NodeAndServer::node_config());
  std::atomic<bool> release{false};
  serve::JobSpec spec;
  spec.count = 64;
  spec.body = [&](i64, i64, const rt::WorkerInfo&) {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
  };
  serve::JobTicket t = node.submit(std::move(spec));
  EXPECT_EQ(t.poll(), nullptr);  // body is parked on `release`
  release.store(true, std::memory_order_release);
  const serve::JobResult& r = t.wait();
  EXPECT_EQ(r.status, JobStatus::kDone);
  ASSERT_NE(t.poll(), nullptr);
  EXPECT_EQ(t.poll()->status, JobStatus::kDone);
}

TEST(JobTicketNonBlocking, HookFiresOnResolutionWithoutAnyWaiter) {
  serve::ServeNode node(platform::symmetric(4), NodeAndServer::node_config());
  std::atomic<int> fired{0};
  serve::JobSpec spec;
  spec.count = 1024;
  spec.body = [](i64, i64, const rt::WorkerInfo&) {};
  serve::JobTicket t = node.submit(std::move(spec));
  t.on_resolve([&] { fired.fetch_add(1); });
  // Deadlines in this file are generous: they only bound how long a
  // FAILING run hangs, and sanitizer legs run 10-20x slower than native.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fired.load(), 1);
  // Re-registration after resolution runs inline, exactly once.
  t.on_resolve([&] { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 2);
}

// ------------------------------------------------------- happy-path submit

TEST(IngressServerTest, SubmitCompletesWithSerialChecksum) {
  NodeAndServer s("complete");
  IngressClient client = s.connect("checker");

  for (const char* workload : {"EP", "CG", "blackscholes"}) {
    IngressClient::Request req;
    req.workload = workload;
    req.count = 10'000;
    const u64 id = client.submit(req);
    ASSERT_NE(id, 0u) << client.last_error();
    const IngressClient::Result r = client.wait(id);
    ASSERT_TRUE(r.transport_ok) << r.message;
    ASSERT_EQ(r.status, JobStatus::kDone) << workload << ": " << r.message;
    // Schedule-invariant kernels: the pool run must equal a local serial
    // run bit for bit, whatever the chunking was.
    EXPECT_EQ(r.checksum, local_serial_checksum(workload, req.count))
        << workload;
    EXPECT_GE(r.service_ns, 0);
  }
}

TEST(IngressServerTest, DataParKernelsMatchAcrossTransports) {
  // The DataPar serve kernels (histogram's shared atomic bins included)
  // must produce one answer whichever way the job travels: over the
  // socket to the node's pool, or as a local serial run of the same kernel
  // factory. Bit-equality is the contract — slot writes and integer
  // atomics are schedule-independent by construction
  // (workloads/serve_kernel.cc).
  NodeAndServer s("datapar");
  IngressClient sock_client = s.connect("datapar-sock");

  for (const char* workload :
       {"histogram", "spmv", "scan", "transpose", "stencil2d"}) {
    IngressClient::Request req;
    req.workload = workload;
    req.count = 20'000;
    const double serial = local_serial_checksum(workload, req.count);

    const u64 sock_id = sock_client.submit(req);
    ASSERT_NE(sock_id, 0u) << sock_client.last_error();
    const IngressClient::Result sock_r = sock_client.wait(sock_id);
    ASSERT_TRUE(sock_r.transport_ok) << sock_r.message;
    ASSERT_EQ(sock_r.status, JobStatus::kDone)
        << workload << ": " << sock_r.message;
    EXPECT_EQ(sock_r.checksum, serial) << workload << " over socket";
  }
}

TEST(IngressServerTest, KernelBuildDoesNotHoldUpOtherConnections) {
  // Connection A asks for the costliest build a wire job can have, CG's
  // matrix at the count cap (~150 ms on a 4-CPU host). Connection B's small
  // EP job, sent right after, must not wait for it: the dispatcher that
  // runs a job builds its kernel, not the event loop that serves every
  // connection. Both jobs are normal-class on a 2-dispatcher node, so B
  // finds a free dispatcher while A's builds.
  NodeAndServer s("head_of_line");
  IngressClient a = s.connect("big-build");
  IngressClient b = s.connect("small-job");

  IngressClient::Request big;
  big.workload = "CG";
  big.count = workloads::kMaxServeCount;
  IngressClient::Request small;
  small.workload = "EP";
  small.count = 1024;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point a_sent = Clock::now();
  const u64 a_id = a.submit(big);
  ASSERT_NE(a_id, 0u) << a.last_error();
  const Clock::time_point b_sent = Clock::now();
  const u64 b_id = b.submit(small);
  ASSERT_NE(b_id, 0u) << b.last_error();
  const IngressClient::Result b_r = b.wait(b_id);
  const Clock::duration b_trip = Clock::now() - b_sent;
  const IngressClient::Result a_r = a.wait(a_id);
  const Clock::duration a_trip = Clock::now() - a_sent;

  ASSERT_EQ(a_r.status, JobStatus::kDone) << a_r.message;
  ASSERT_EQ(b_r.status, JobStatus::kDone) << b_r.message;
  const auto us = [](Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  };
  EXPECT_LT(4 * b_trip, a_trip) << "B's round trip " << us(b_trip)
                                << " us against A's " << us(a_trip) << " us";
}

TEST(IngressServerTest, UnknownWorkloadAndBadCountAreRejected) {
  NodeAndServer s("reject");
  IngressClient client = s.connect("rejecter");

  IngressClient::Request req;
  req.workload = "no-such-workload";
  req.count = 16;
  const u64 id = client.submit(req);
  ASSERT_NE(id, 0u);
  IngressClient::Result r = client.wait(id);
  ASSERT_TRUE(r.transport_ok);
  EXPECT_EQ(r.status, JobStatus::kRejected);
  EXPECT_NE(r.message.find("unknown workload"), std::string::npos)
      << r.message;

  req.workload = "BT";  // real workload, but not wire-servable
  const u64 id2 = client.submit(req);
  r = client.wait(id2);
  EXPECT_EQ(r.status, JobStatus::kRejected);
  EXPECT_NE(r.message.find("servable"), std::string::npos) << r.message;

  req.workload = "EP";
  req.count = workloads::kMaxServeCount + 1;  // over the per-job cap
  const u64 id3 = client.submit(req);
  r = client.wait(id3);
  EXPECT_EQ(r.status, JobStatus::kRejected);

  EXPECT_EQ(s.server.stats().invalid_rejects, 3u);
  // Validation rejects never touch the node.
  EXPECT_EQ(s.server.stats().submits, 0u);
}

TEST(IngressServerTest, AdmissionBackpressureSurfacesAsRejectedFrames) {
  // Batch: max_inflight 1, max_queue 4. Flooding 10 long batch jobs must
  // overflow admission — and overload comes back as REJECTED frames with
  // the admission reason, not as a stalled socket.
  NodeAndServer s("backpressure", /*credits=*/16);
  IngressClient client = s.connect("flooder");

  IngressClient::Request req;
  req.workload = "EP";
  req.count = kLongCount;
  req.qos = QosClass::kBatch;

  std::vector<u64> ids;
  for (int i = 0; i < 10; ++i) {
    const u64 id = client.submit(req);
    ASSERT_NE(id, 0u) << client.last_error();
    ids.push_back(id);
  }
  int done = 0;
  int rejected = 0;
  for (const u64 id : ids) {
    const IngressClient::Result r = client.wait(id);
    ASSERT_TRUE(r.transport_ok) << r.message;
    if (r.status == JobStatus::kDone) ++done;
    if (r.status == JobStatus::kRejected) {
      ++rejected;
      EXPECT_NE(r.message.find("queue"), std::string::npos) << r.message;
    }
  }
  EXPECT_GT(done, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(done + rejected, 10);
}

// ------------------------------------------------------------- credit flow

TEST(IngressServerTest, CreditExhaustionBlocksClientNotServer) {
  NodeAndServer s("credits", /*credits=*/2);
  IngressClient client = s.connect("windowed");
  ASSERT_EQ(client.credit_window(), 2u);

  IngressClient::Request req;
  req.workload = "EP";
  req.count = kLongCount;
  req.qos = QosClass::kBatch;

  // Two credits, two sends; the third try_submit fails CLIENT-SIDE — no
  // frame hits the wire, nothing blocks, the server never sees it.
  u64 a = 0;
  u64 b = 0;
  u64 c = 0;
  ASSERT_TRUE(client.try_submit(req, &a));
  ASSERT_TRUE(client.try_submit(req, &b));
  EXPECT_EQ(client.credits(), 0u);
  EXPECT_FALSE(client.try_submit(req, &c));

  // The blocking submit() path pumps until a terminal frame returns a
  // credit, then sends — the backpressure wait happens in the client.
  const u64 d = client.submit(req);
  ASSERT_NE(d, 0u) << client.last_error();

  for (const u64 id : {a, b, d}) {
    const IngressClient::Result r = client.wait(id);
    ASSERT_TRUE(r.transport_ok) << r.message;
    EXPECT_EQ(r.status, JobStatus::kDone) << r.message;
  }
  EXPECT_EQ(s.server.stats().no_credit_rejects, 0u);
  EXPECT_LE(s.server.stats().max_inflight, 2u);
}

/// A wire-speaking client that deliberately ignores the credit discipline.
class RawClient {
 public:
  bool connect(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// False when the server closed on us mid-write (EPIPE/ECONNRESET —
  /// MSG_NOSIGNAL keeps that an errno, not a test-killing SIGPIPE).
  bool send_frame(const Frame& f) { return send_bytes(encode(f)); }
  bool send_bytes(const std::vector<u8>& bytes) {
    usize off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0 && errno != EINTR) return false;  // peer closed
      if (n > 0) off += static_cast<usize>(n);
    }
    return true;
  }

  /// Next frame within `timeout_ms`; nullopt on timeout, EOF or bad data.
  std::optional<Frame> read_frame(int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      Decoded d = rx_.next();
      if (d.status == DecodeStatus::kOk) return std::move(d.frame);
      if (d.status == DecodeStatus::kBad) return std::nullopt;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return std::nullopt;
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) continue;
      u8 buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) return std::nullopt;
      rx_.append(buf, static_cast<usize>(n));
    }
  }

  /// True when the server closes the connection within `timeout_ms`.
  bool closed_within(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      u8 buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n == 0) return true;
      if (n < 0 && errno != EINTR && errno != EAGAIN) return true;
      if (n > 0) rx_.append(buf, static_cast<usize>(n));
    }
    return false;
  }

  int fd_ = -1;
  FrameBuffer rx_;
};

TEST(IngressServerTest, OverWindowSubmitsAreRejectedNotQueued) {
  // A misbehaving client blasts 5 SUBMITs into a window of 2. The server
  // must (a) keep at most 2 of its jobs in flight, (b) answer the excess
  // with REJECTED("credit window exceeded") frames, and (c) keep serving.
  NodeAndServer s("overwindow", /*credits=*/2);
  RawClient raw;
  ASSERT_TRUE(raw.connect(s.server.socket_path()));
  raw.send_frame(HelloFrame{kProtocolVersion, "rude"});
  const auto ack = raw.read_frame();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(type_of(*ack), FrameType::kHelloAck);
  ASSERT_EQ(std::get<HelloAckFrame>(*ack).credits, 2u);

  std::vector<u8> burst;
  for (u64 id = 1; id <= 5; ++id) {
    SubmitFrame m;
    m.req_id = id;
    m.qos = static_cast<u8>(QosClass::kBatch);
    m.count = kLongCount;
    m.workload = "EP";
    const std::vector<u8> bytes = encode(Frame{m});
    burst.insert(burst.end(), bytes.begin(), bytes.end());
  }
  raw.send_bytes(burst);  // one write: all 5 land before any completion

  int completed = 0;
  int credit_rejects = 0;
  while (completed + credit_rejects < 5) {
    const auto f = raw.read_frame();
    ASSERT_TRUE(f.has_value()) << "terminal frames so far: "
                               << (completed + credit_rejects);
    if (type_of(*f) == FrameType::kCredit) continue;
    if (type_of(*f) == FrameType::kCompleted) {
      ++completed;
    } else if (type_of(*f) == FrameType::kRejected) {
      const auto& r = std::get<RejectedFrame>(*f);
      EXPECT_NE(r.reason.find("credit window"), std::string::npos)
          << r.reason;
      ++credit_rejects;
    } else {
      FAIL() << "unexpected frame " << to_string(type_of(*f));
    }
  }
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(credit_rejects, 3);
  const IngressServer::Stats st = s.server.stats();
  EXPECT_EQ(st.no_credit_rejects, 3u);
  EXPECT_LE(st.max_inflight, 2u);

  // The server is unharmed: a well-behaved client still completes.
  IngressClient client = s.connect("polite");
  IngressClient::Request req;
  req.workload = "EP";
  req.count = 1024;
  const u64 id = client.submit(req);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(client.wait(id).status, JobStatus::kDone);
}

// --------------------------------------------------- disconnect and cancel

TEST(IngressServerTest, DisconnectCancelsInflightJobs) {
  NodeAndServer s("disconnect");
  const u64 before = s.server.stats().disconnect_cancels;
  {
    IngressClient client = s.connect("vanisher");
    IngressClient::Request req;
    req.workload = "EP";
    req.count = kLongCount;
    req.qos = QosClass::kBatch;  // inflight 1: later jobs pin in the queue
    for (int i = 0; i < 3; ++i) ASSERT_NE(client.submit(req), 0u);
    // Submits sit in the socket until the loop reads them — and a frame
    // the server hasn't decoded when the FIN arrives is forfeit, not a
    // job. Wait for all 3 to actually reach the node before vanishing.
    const auto seen =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (s.server.stats().submits < 3 &&
           std::chrono::steady_clock::now() < seen)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GE(s.server.stats().submits, 3u);
  }  // ~IngressClient closes the socket with jobs still in flight

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (s.server.stats().disconnect_cancels == before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(s.server.stats().disconnect_cancels, before);
  // The node drains cleanly: the cancelled jobs resolve (kDependency) and
  // nothing leaks into the next test.
  s.node.drain();

  // The loop thread survived the teardown; a fresh connection works.
  IngressClient next = s.connect("survivor");
  IngressClient::Request req;
  req.workload = "EP";
  req.count = 1024;
  const u64 id = next.submit(req);
  ASSERT_NE(id, 0u) << next.last_error();
  EXPECT_EQ(next.wait(id).status, JobStatus::kDone);
}

TEST(IngressServerTest, CancelFrameResolvesQueuedJobAsCancelled) {
  NodeAndServer s("cancel");
  IngressClient client = s.connect("canceller");
  IngressClient::Request req;
  req.workload = "EP";
  req.count = kLongCount;
  req.qos = QosClass::kBatch;  // inflight 1: the 3rd job sits queued

  const u64 a = client.submit(req);
  const u64 b = client.submit(req);
  const u64 victim = client.submit(req);
  ASSERT_NE(victim, 0u);
  client.cancel(victim);

  const IngressClient::Result r = client.wait(victim);
  ASSERT_TRUE(r.transport_ok) << r.message;
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  // The cancelled job still returned its credit and the others finish.
  EXPECT_EQ(client.wait(a).status, JobStatus::kDone);
  EXPECT_EQ(client.wait(b).status, JobStatus::kDone);
}

// ----------------------------------------------------------- tenant stats

TEST(IngressServerTest, ConcurrentClientsKeepSeparateTenantStats) {
  NodeAndServer s("tenants");
  std::thread ta([&] {
    IngressClient a = s.connect("tenant-a");
    IngressClient::Request req;
    req.workload = "EP";
    req.count = 4096;
    for (int i = 0; i < 4; ++i) {
      const u64 id = a.submit(req);
      ASSERT_NE(id, 0u);
      EXPECT_EQ(a.wait(id).status, JobStatus::kDone);
    }
  });
  std::thread tb([&] {
    IngressClient b = s.connect("tenant-b");
    IngressClient::Request req;
    req.workload = "no-such";
    req.count = 16;
    for (int i = 0; i < 3; ++i) {
      const u64 id = b.submit(req);
      ASSERT_NE(id, 0u);
      EXPECT_EQ(b.wait(id).status, JobStatus::kRejected);
    }
  });
  ta.join();
  tb.join();

  const TenantStats a = s.server.tenant_stats("tenant-a");
  const TenantStats b = s.server.tenant_stats("tenant-b");
  EXPECT_EQ(a.submits, 4u);
  EXPECT_EQ(a.completed, 4u);
  EXPECT_EQ(a.rejected, 0u);
  EXPECT_EQ(b.submits, 0u);  // validation rejects never reached the node
  EXPECT_EQ(b.completed, 0u);
  EXPECT_EQ(b.rejected, 3u);
}

// -------------------------------------------------------- protocol errors

TEST(IngressServerTest, VersionMismatchGetsStructuredErrorAndClose) {
  NodeAndServer s("version");
  RawClient raw;
  ASSERT_TRUE(raw.connect(s.server.socket_path()));
  raw.send_frame(HelloFrame{kProtocolVersion + 7, "from-the-future"});
  const auto f = raw.read_frame();
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(type_of(*f), FrameType::kError);
  const auto& e = std::get<ErrorFrame>(*f);
  EXPECT_EQ(e.req_id, 0u);  // connection-level
  EXPECT_NE(e.message.find("version"), std::string::npos) << e.message;
  EXPECT_TRUE(raw.closed_within(15000));
  EXPECT_GE(s.server.stats().protocol_errors, 1u);
}

TEST(IngressServerTest, GarbageBytesGetErrorCloseAndServerSurvives) {
  NodeAndServer s("garbage");
  {
    RawClient raw;
    ASSERT_TRUE(raw.connect(s.server.socket_path()));
    // A header declaring a 16 MiB payload followed by junk.
    std::vector<u8> evil(64, 0xAB);
    const u32 huge = 16u * 1024 * 1024;
    std::memcpy(evil.data(), &huge, sizeof huge);
    raw.send_bytes(evil);
    EXPECT_TRUE(raw.closed_within(15000));
  }
  {
    RawClient raw;  // SUBMIT before HELLO is a protocol error too
    ASSERT_TRUE(raw.connect(s.server.socket_path()));
    SubmitFrame m;
    m.req_id = 1;
    m.count = 4;
    m.workload = "EP";
    raw.send_frame(Frame{m});
    EXPECT_TRUE(raw.closed_within(15000));
  }
  {
    // Type bytes 9 and 10 are retired (they negotiated a deleted
    // shared-memory transport): after a good HELLO, a type-9 frame is an
    // unknown type like any other — ERROR{0} and a close for this client.
    RawClient raw;
    ASSERT_TRUE(raw.connect(s.server.socket_path()));
    ASSERT_TRUE(raw.send_frame(HelloFrame{kProtocolVersion, "retired"}));
    const auto ack = raw.read_frame();
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(type_of(*ack), FrameType::kHelloAck);
    // [u32 payload_len = 4][u8 type = 9][u32 0]
    ASSERT_TRUE(raw.send_bytes({4, 0, 0, 0, 9, 0, 0, 0, 0}));
    const auto err = raw.read_frame();
    ASSERT_TRUE(err.has_value());
    ASSERT_EQ(type_of(*err), FrameType::kError);
    EXPECT_EQ(std::get<ErrorFrame>(*err).req_id, 0u);
    EXPECT_NE(std::get<ErrorFrame>(*err).message.find("unknown frame type"),
              std::string::npos)
        << std::get<ErrorFrame>(*err).message;
    EXPECT_TRUE(raw.closed_within(15000));
  }
  EXPECT_GE(s.server.stats().protocol_errors, 3u);

  IngressClient client = s.connect("survivor");
  IngressClient::Request req;
  req.workload = "CG";
  req.count = 2048;
  const u64 id = client.submit(req);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(client.wait(id).status, JobStatus::kDone);
}

TEST(IngressServerTest, WriteToHungUpClientDoesNotKillServer) {
  // Regression: server writes once used ::write without MSG_NOSIGNAL, so
  // a peer that stopped receiving before its response was written made
  // the kernel raise SIGPIPE and terminate the whole serving process.
  NodeAndServer s("sigpipe");
  {
    RawClient raw;
    ASSERT_TRUE(raw.connect(s.server.socket_path()));
    // Shut down OUR receive side: from now on every server write to this
    // connection fails EPIPE (and, unfixed, SIGPIPE). Then provoke a
    // write — garbage bytes draw the connection-level ERROR frame.
    ASSERT_EQ(::shutdown(raw.fd_, SHUT_RD), 0);
    const std::vector<u8> junk(32, 0xEE);  // header claims a ~4GiB payload
    ASSERT_TRUE(raw.send_bytes(junk));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (s.server.stats().protocol_errors == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(s.server.stats().protocol_errors, 1u);
  }
  // The process is alive and the server still serves.
  IngressClient client = s.connect("alive");
  IngressClient::Request req;
  req.workload = "EP";
  req.count = 1024;
  const u64 id = client.submit(req);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(client.wait(id).status, JobStatus::kDone);
}

TEST(IngressServerTest, NonReadingFloodClientIsDroppedAtTxBacklogCap) {
  // Regression: REJECTED+CREDIT responses to over-window SUBMITs were
  // buffered in conn->tx without bound, so a client that floods submits
  // while never reading its socket grew server memory indefinitely. Now
  // the backlog is capped and the connection dropped at the cap.
  NodeAndServer s("txcap", /*credits=*/1);
  RawClient raw;
  ASSERT_TRUE(raw.connect(s.server.socket_path()));
  ASSERT_TRUE(raw.send_frame(HelloFrame{kProtocolVersion, "hoarder"}));
  const auto ack = raw.read_frame();
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(type_of(*ack), FrameType::kHelloAck);

  // Never read again; blast over-window SUBMITs (one long job pins the
  // window, the rest are rejected synchronously). Responses fill the
  // kernel socket buffer, then the server's capped tx backlog, then the
  // server drops us — observed here as a failed send.
  bool dropped = false;
  SubmitFrame m;
  m.qos = static_cast<u8>(QosClass::kBatch);
  m.count = kLongCount;
  m.workload = "EP";
  for (u64 id = 1; id <= 2'000'000 && !dropped; ++id) {
    m.req_id = id;
    dropped = !raw.send_frame(Frame{m});
  }
  EXPECT_TRUE(dropped);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (s.server.stats().tx_overflow_closes == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(s.server.stats().tx_overflow_closes, 1u);
  s.node.drain();  // the one admitted long job resolves before teardown

  // The server is unharmed and still serves well-behaved clients.
  IngressClient client = s.connect("post-flood");
  IngressClient::Request req;
  req.workload = "EP";
  req.count = 1024;
  const u64 id = client.submit(req);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(client.wait(id).status, JobStatus::kDone);
}

TEST(IngressClientTest, ZeroCreditGrantFailsHandshakeInsteadOfHanging) {
  // Regression: connect() used window_ == 0 as its "no ack yet" sentinel,
  // so a server granting zero credits left the client pumping forever. A
  // zero-credit window can never submit — it must fail the handshake.
  const std::string path = test_socket_path("zerocredit");
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);

  std::thread miser([&] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(cfd, 0);
    u8 buf[256];
    (void)::read(cfd, buf, sizeof buf);  // the client's HELLO
    const std::vector<u8> ack = encode(HelloAckFrame{kProtocolVersion, 0});
    (void)::send(cfd, ack.data(), ack.size(), MSG_NOSIGNAL);
    ::close(cfd);
  });

  std::string error;
  const auto client = IngressClient::connect(path, "strict", &error);
  EXPECT_FALSE(client.has_value());
  EXPECT_NE(error.find("zero credits"), std::string::npos) << error;

  miser.join();
  ::close(lfd);
  ::unlink(path.c_str());
}

// ------------------------------------------------------- out of process

/// Runs `cmd` through the shell: (exit status, stdout + stderr).
std::pair<int, std::string> run_command(const std::string& cmd) {
  FILE* out = ::popen((cmd + " 2>&1").c_str(), "r");
  if (out == nullptr) return {-1, "popen failed"};
  std::string output;
  char buf[512];
  while (std::fgets(buf, sizeof buf, out) != nullptr) output += buf;
  const int rc = ::pclose(out);
  return {WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, output};
}

/// An aid_node child process; it serves until `stdin_fd` is closed.
struct NodeProcess {
  pid_t pid = -1;
  int stdin_fd = -1;
  int stdout_fd = -1;  ///< kept open until the node exits: no SIGPIPE
  std::string ready;   ///< its first stdout line, "READY <socket>"
};

NodeProcess start_node(const char* node_bin, const std::string& sock) {
  int to_child[2];    // our write end keeps the node alive
  int from_child[2];  // the node's READY line
  NodeProcess node;
  if (::pipe(to_child) != 0) return node;
  if (::pipe(from_child) != 0) return node;
  node.pid = ::fork();
  if (node.pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execl(node_bin, node_bin, "--socket", sock.c_str(), "--platform",
            "symmetric:4", static_cast<char*>(nullptr));
    std::perror("execl aid_node");
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  node.stdin_fd = to_child[1];
  node.stdout_fd = from_child[0];
  char ch = 0;
  while (node.ready.find('\n') == std::string::npos &&
         ::read(from_child[0], &ch, 1) == 1)
    node.ready.push_back(ch);
  return node;
}

/// EOF on the node's stdin: clean shutdown. Returns its exit status.
int stop_node(NodeProcess& node) {
  ::close(node.stdin_fd);
  int status = 0;
  const bool reaped =
      node.pid > 0 && ::waitpid(node.pid, &status, 0) == node.pid;
  ::close(node.stdout_fd);
  return reaped && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(IngressServerTest, EndToEndOutOfProcessToolsRoundTrip) {
  const char* node_bin = std::getenv("AID_NODE_BIN");
  const char* submit_bin = std::getenv("AID_SUBMIT_BIN");
  if (node_bin == nullptr || submit_bin == nullptr)
    GTEST_SKIP() << "AID_NODE_BIN / AID_SUBMIT_BIN not set (run via ctest)";

  const std::string sock = test_socket_path("e2e");
  NodeProcess node = start_node(node_bin, sock);
  ASSERT_GT(node.pid, 0);
  ASSERT_NE(node.ready.find("READY"), std::string::npos) << node.ready;

  const auto [rc, output] =
      run_command(std::string(submit_bin) + " --socket " + sock +
                  " --workload EP --count 4096 --jobs 2");
  EXPECT_EQ(rc, 0) << output;
  // Two JSON lines, both COMPLETED(done), with the serial checksum.
  EXPECT_NE(output.find("\"job\":1"), std::string::npos) << output;
  EXPECT_NE(output.find("\"status\":\"done\""), std::string::npos) << output;
  char expect[64];
  std::snprintf(expect, sizeof expect, "\"checksum\":%.17g",
                local_serial_checksum("EP", 4096));
  EXPECT_NE(output.find(expect), std::string::npos)
      << output << "\nwanted " << expect;

  EXPECT_EQ(stop_node(node), 0);
  ::unlink(sock.c_str());
}

TEST(IngressServerTest, OutOfProcessToolsRejectMalformedNumbers) {
  const char* node_bin = std::getenv("AID_NODE_BIN");
  const char* submit_bin = std::getenv("AID_SUBMIT_BIN");
  if (node_bin == nullptr || submit_bin == nullptr)
    GTEST_SKIP() << "AID_NODE_BIN / AID_SUBMIT_BIN not set (run via ctest)";

  // A bad window is refused before the node binds: exit 2, no READY.
  const std::string unbound = test_socket_path("badcredits");
  const auto [node_rc, node_out] =
      run_command(std::string(node_bin) + " --socket " + unbound +
                  " --credits abc </dev/null");
  EXPECT_EQ(node_rc, 2) << node_out;
  EXPECT_EQ(node_out.find("READY"), std::string::npos) << node_out;
  EXPECT_NE(node_out.find("--credits"), std::string::npos) << node_out;
  ::unlink(unbound.c_str());

  // With a live node to reach, a bad number must still stop aid_submit
  // before it sends anything: not a job of count 0, not a deadline whose
  // nanoseconds overflow into a negative one.
  const std::string sock = test_socket_path("badflags");
  NodeProcess node = start_node(node_bin, sock);
  ASSERT_GT(node.pid, 0);
  ASSERT_NE(node.ready.find("READY"), std::string::npos) << node.ready;
  const std::pair<const char*, const char*> cases[] = {
      {"--count", "--count abc"},
      {"--deadline-ms", "--count 4096 --deadline-ms 10000000000000"},
  };
  for (const auto& [flag, args] : cases) {
    const auto [rc, output] =
        run_command(std::string(submit_bin) + " --socket " + sock +
                    " --workload EP " + args);
    EXPECT_EQ(rc, 2) << args << '\n' << output;
    EXPECT_EQ(output.find("\"job\""), std::string::npos) << output;
    EXPECT_NE(output.find(flag), std::string::npos) << output;
  }
  EXPECT_EQ(stop_node(node), 0);
  ::unlink(sock.c_str());
}

}  // namespace
}  // namespace aid::ingress
