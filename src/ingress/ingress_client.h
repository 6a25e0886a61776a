// IngressClient — blocking client library for the socket ingress.
//
// The well-behaved counterpart of IngressServer's credit discipline: the
// client tracks its credit balance (HELLO_ACK grant + CREDIT returns) and
// submit() BLOCKS THE CLIENT — pumping the socket for terminal frames —
// when the window is exhausted, so backpressure lands here, never on the
// server's event loop. try_submit() is the non-blocking probe tests use
// to show exactly that ("credit-window exhaustion blocks the client, not
// the server").
//
// Concurrency model: one connection, one pumping thread. All methods must
// be called from a single thread (or externally serialized); results for
// OTHER requests arriving while wait()ing for one are parked and handed
// out when their wait() is called. Ticket-style: submit() returns a
// req_id handle, wait(req_id) blocks until that request's terminal frame.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ingress/wire.h"
#include "sched/schedule_spec.h"
#include "serve/job.h"
#include "serve/qos.h"

namespace aid::ingress {

class IngressClient {
 public:
  struct Request {
    std::string workload;  ///< registry name (see aid_submit --list)
    i64 count = 1;
    serve::QosClass qos = serve::QosClass::kNormal;
    i64 deadline_ns = 0;  ///< whole-life relative deadline (0 = none)
    sched::ScheduleKind sched = sched::ScheduleKind::kDynamic;
    i64 chunk = 0;
  };

  /// Terminal outcome of one request. `transport_ok` false means the
  /// CONNECTION died before the terminal frame arrived (status stays
  /// kPending and `message` holds the transport error); everything else
  /// mirrors the server's terminal frame.
  struct Result {
    bool transport_ok = true;
    serve::JobStatus status = serve::JobStatus::kPending;
    double checksum = 0.0;
    std::string message;  ///< reject reason / error text
    i64 queue_wait_ns = 0;
    i64 service_ns = 0;
  };

  /// Connect + HELLO/HELLO_ACK handshake (blocking). Returns nullopt and
  /// sets `error` on failure. `client_name` is the connection's tenant id
  /// in the server's per-tenant stats.
  [[nodiscard]] static std::optional<IngressClient> connect(
      const std::string& socket_path, const std::string& client_name,
      std::string* error);

  IngressClient(IngressClient&& other) noexcept;
  IngressClient& operator=(IngressClient&& other) noexcept;
  IngressClient(const IngressClient&) = delete;
  IngressClient& operator=(const IngressClient&) = delete;
  ~IngressClient();

  [[nodiscard]] bool ok() const { return fd_ >= 0 && alive_; }
  [[nodiscard]] const std::string& last_error() const { return error_; }

  /// The window granted at HELLO_ACK and the credits currently held.
  [[nodiscard]] u32 credit_window() const { return window_; }
  [[nodiscard]] u32 credits() const { return credits_; }

  /// Submit, blocking (pumping frames) while no credit is available.
  /// Returns the req_id handle, or 0 when the connection died.
  [[nodiscard]] u64 submit(const Request& req);

  /// Non-blocking submit: false (no frame sent) when no credit is held
  /// or the connection is dead.
  [[nodiscard]] bool try_submit(const Request& req, u64* req_id);

  /// Block until `req_id`'s terminal frame (pumping other completions
  /// into the parked set as they arrive).
  [[nodiscard]] Result wait(u64 req_id);

  /// Non-blocking: take req_id's result if its terminal frame already
  /// arrived (reads whatever is buffered on the socket first).
  [[nodiscard]] std::optional<Result> try_take(u64 req_id);

  /// Fire a CANCEL frame (cooperative; the terminal frame still arrives).
  void cancel(u64 req_id);

 private:
  IngressClient() = default;

  [[nodiscard]] bool send_bytes(const std::vector<u8>& bytes);
  /// Read + process frames until `block` would; false on transport death.
  [[nodiscard]] bool pump(bool block);
  void process(Frame&& frame);
  void die(std::string why);

  int fd_ = -1;
  bool alive_ = false;
  bool saw_hello_ack_ = false;  ///< HELLO_ACK received (window_ is valid)
  u32 window_ = 0;
  u32 credits_ = 0;
  u64 next_req_ = 1;
  FrameBuffer rx_;
  std::map<u64, Result> done_;  ///< parked terminal results
  std::string error_;
};

}  // namespace aid::ingress
