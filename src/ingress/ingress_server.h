// IngressServer — the Unix-domain-socket front end of a ServeNode.
//
// One listener + event-loop thread (poll(2)) owns every connection: it
// accepts clients, decodes length-prefixed wire frames (src/ingress/wire.h),
// maps each SUBMIT onto ServeNode::submit with OnFull::kReject — the
// socket NEVER blocks a dispatcher or parks a thread per job — and writes
// terminal frames back. Completions flow through the non-blocking
// JobTicket hook: the resolving thread (a dispatcher, possibly under the
// admission mutex) only pushes {conn, req_id, ticket} onto a completion
// queue and writes one byte to the loop's wake pipe; the LOOP thread
// harvests the result, computes the workload checksum and encodes the
// frame — so delivery holds neither the admission mutex nor the
// connection lock while doing real work.
//
// Deferred build: the loop only validates a SUBMIT
// (workloads::validate_serve_kernel); the dispatcher that runs the job
// builds its kernel (serve::JobSpec::make_body). So no connection waits
// for another's kernel build, and a queued job holds no kernel inputs or
// output slots. Per job, the server keeps the ticket and the checksum
// closure over the output slots (empty until the build) until its
// COMPLETED frame is written. COMPLETED's service_ns includes the build.
//
// Credit flow control (per connection): HELLO_ACK grants a window of N
// credits; every SUBMIT consumes one; every terminal frame (COMPLETED /
// REJECTED / per-request ERROR) is followed by an explicit CREDIT{1}
// grant returning it. The server enforces the window — at most N of a
// connection's jobs exist server-side at once; a SUBMIT beyond the window
// never reaches the ServeNode and comes back REJECTED("credit window
// exceeded"), so a flooding client bounds its own memory and overload
// surfaces as frames, not socket stalls. Response bytes are bounded too:
// a connection's pending tx backlog is capped (the credit window's worth
// of terminal frames plus slack) and a peer that provokes responses while
// never reading its socket is dropped when the cap is exceeded — the
// kernel socket buffer, not server heap, is the only queue a non-reading
// client gets. A disconnect cancels the
// connection's in-flight jobs through the jobs' CancelTokens with
// CancelReason::kDependency (the client this work depended on is gone).
//
// Trust boundary: every byte a client sends is untrusted. Malformed or
// unknown-version input is answered with a structured connection-level
// ERROR frame and a close — never a crash, never an assert; a SUBMIT the
// validator refuses is answered REJECTED (see src/ingress/README.md).
//
// Lifetime: construct AFTER the ServeNode and destroy BEFORE it (the
// server borrows the node). The destructor stops the loop, cancels every
// in-flight job and closes all sockets; late completion hooks for jobs
// the node is still winding down only touch state owned by a shared core
// block, so they stay safe even after the server object itself is gone.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ingress/wire.h"
#include "serve/serve_node.h"

namespace aid::ingress {

/// Per-tenant (per-HELLO-name) terminal-frame accounting. Two concurrent
/// clients submitting under different names observe disjoint counters.
struct TenantStats {
  u64 submits = 0;    ///< SUBMIT frames accepted into the ServeNode
  u64 completed = 0;  ///< COMPLETED(done) frames
  u64 rejected = 0;   ///< REJECTED frames (admission, credit, validation)
  u64 cancelled = 0;  ///< COMPLETED(cancelled/expired) frames
  u64 failed = 0;     ///< per-request ERROR frames (body threw)
};

class IngressServer {
 public:
  struct Config {
    std::string socket_path;  ///< AF_UNIX path (unlinked + rebound)
    u32 credit_window = 8;    ///< per-connection in-flight job grant (>= 1)
    int listen_backlog = 16;
  };

  struct Stats {
    u64 connections_accepted = 0;
    u64 connections_closed = 0;
    u64 frames_decoded = 0;
    u64 protocol_errors = 0;     ///< bad frames / version mismatches
    u64 submits = 0;             ///< SUBMITs forwarded to the ServeNode
    u64 no_credit_rejects = 0;   ///< SUBMITs beyond the credit window
    u64 invalid_rejects = 0;     ///< unknown workload / bad params
    u64 disconnect_cancels = 0;  ///< jobs cancelled by a client vanishing
    u64 tx_overflow_closes = 0;  ///< conns dropped for not reading responses
    u64 max_inflight = 0;        ///< high-water in-flight jobs of any conn
  };

  /// Binds and starts serving immediately. Throws std::runtime_error when
  /// the socket cannot be bound (the path is unlinked first — the server
  /// owns its socket path).
  IngressServer(serve::ServeNode& node, Config config);
  ~IngressServer();

  IngressServer(const IngressServer&) = delete;
  IngressServer& operator=(const IngressServer&) = delete;

  [[nodiscard]] const std::string& socket_path() const {
    return config_.socket_path;
  }
  [[nodiscard]] const Config& config() const { return config_; }

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] TenantStats tenant_stats(const std::string& tenant) const;

 private:
  struct Conn;
  struct Core;

  void loop();
  void accept_ready();
  void conn_readable(const std::shared_ptr<Conn>& conn);
  /// False => the connection was closed (protocol error / tx overflow).
  bool handle_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  bool handle_submit(const std::shared_ptr<Conn>& conn, SubmitFrame&& m);
  /// Queue a terminal frame plus its folded CREDIT{1} and flush. False =>
  /// the connection was closed (tx backlog cap).
  bool respond(const std::shared_ptr<Conn>& conn, const Frame& terminal);
  void drain_completions();
  /// Max bytes of undelivered server->client frames one connection may
  /// buffer before it counts as not reading (see append_tx).
  [[nodiscard]] usize tx_cap() const;
  /// Queue bytes for delivery, honouring tx_cap(). False: the backlog cap
  /// would be exceeded — the caller must drop the connection
  /// (overflow_close); nothing was queued.
  [[nodiscard]] bool append_tx(const std::shared_ptr<Conn>& conn,
                               const std::vector<u8>& bytes);
  void overflow_close(const std::shared_ptr<Conn>& conn);
  void flush(const std::shared_ptr<Conn>& conn);
  void protocol_error(const std::shared_ptr<Conn>& conn, std::string why);
  void close_conn(const std::shared_ptr<Conn>& conn);

  serve::ServeNode& node_;
  Config config_;
  std::shared_ptr<Core> core_;  ///< outlives late completion hooks
  int listen_fd_ = -1;
  int wake_rd_ = -1;  ///< read end of the wake pipe (write end in Core)
  std::vector<std::shared_ptr<Conn>> conns_;  ///< loop-thread owned
  std::thread thread_;
};

}  // namespace aid::ingress
