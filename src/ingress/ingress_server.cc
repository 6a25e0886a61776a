#include "ingress/ingress_server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "workloads/serve_kernel.h"

namespace aid::ingress {

namespace {

/// Truncate an exception's what() for the wire (ERROR frames carry a
/// diagnostic, not a payload).
std::string truncated_what(const std::exception_ptr& e) {
  if (e == nullptr) return "unknown error";
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    std::string what = ex.what();
    if (what.size() > wire::kWireMaxString)
      what.resize(wire::kWireMaxString);
    return what;
  } catch (...) {
    return "non-std::exception thrown by workload body";
  }
}

void append_bytes(std::vector<u8>& dst, const std::vector<u8>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace

// ---------------------------------------------------------------- plumbing

/// A wire job's checksum closure: empty until the dispatcher that runs
/// the job builds its kernel (workloads::serve_kernel_builder), read by
/// the loop thread once the ticket resolved.
using Checksum = std::shared_ptr<std::function<double()>>;

struct IngressServer::Conn {
  int fd = -1;
  bool hello_done = false;
  std::string tenant = "?";
  FrameBuffer rx;  ///< loop-thread only

  // Everything below is shared between the loop thread and completion
  // hooks firing on dispatcher threads.
  std::mutex mu;
  bool closed = false;
  std::vector<u8> tx;
  std::unordered_map<u64, serve::JobTicket> jobs;  ///< in flight, by req_id
};

/// State shared with completion hooks. Hooks capture shared_ptr<Core> and
/// shared_ptr<Conn> — never the IngressServer itself — so a hook firing
/// after ~IngressServer (the node resolving a cancelled straggler) only
/// touches memory that lives until the last hook releases it.
struct IngressServer::Core {
  struct Completion {
    std::shared_ptr<Conn> conn;
    u64 req_id = 0;
    serve::JobTicket ticket;
    Checksum checksum;
  };

  std::mutex mu;  ///< guards completions + stats + tenants
  std::vector<Completion> completions;
  Stats stats;
  std::map<std::string, TenantStats> tenants;
  int wake_wr = -1;  ///< write end of the wake pipe; owned by Core
  bool loop_alive = true;

  ~Core() {
    if (wake_wr >= 0) ::close(wake_wr);
  }

  void wake() {
    const std::scoped_lock lock(mu);
    if (!loop_alive) return;  // nobody to wake; completions drain in dtor
    const u8 byte = 1;
    // Non-blocking pipe: EAGAIN (already signalled) is success here.
    (void)::write(wake_wr, &byte, 1);
  }

  void push_completion(Completion c) {
    {
      const std::scoped_lock lock(mu);
      completions.push_back(std::move(c));
    }
    wake();
  }
};

// ------------------------------------------------------------------ setup

IngressServer::IngressServer(serve::ServeNode& node, Config config)
    : node_(node), config_(std::move(config)), core_(std::make_shared<Core>()) {
  config_.credit_window = std::max<u32>(config_.credit_window, 1);
  if (config_.socket_path.empty())
    throw std::runtime_error("ingress: empty socket path");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("ingress: socket path too long: " +
                             config_.socket_path);
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0)
    throw std::runtime_error("ingress: socket(): " +
                             std::string(std::strerror(errno)));
  // The server owns its path: a stale socket file from a crashed
  // predecessor is removed, a live one is replaced (single-owner model).
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, config_.listen_backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("ingress: bind/listen " + config_.socket_path +
                             ": " + err);
  }

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("ingress: pipe2(): " +
                             std::string(std::strerror(errno)));
  }
  wake_rd_ = pipe_fds[0];
  core_->wake_wr = pipe_fds[1];

  thread_ = std::thread([this] { loop(); });
}

IngressServer::~IngressServer() {
  {
    const std::scoped_lock lock(core_->mu);
    core_->loop_alive = false;
  }
  // loop_alive is checked under core_->mu inside the loop as its stop
  // flag; one direct write wakes a loop parked in poll().
  const u8 byte = 1;
  (void)::write(core_->wake_wr, &byte, 1);
  thread_.join();

  // Cancel whatever is still in flight and close every socket. The jobs
  // resolve inside the node (possibly after this destructor returns);
  // their hooks only touch Core/Conn, both kept alive by the hooks'
  // own shared_ptrs.
  for (const auto& conn : conns_) close_conn(conn);
  conns_.clear();
  ::close(listen_fd_);
  ::close(wake_rd_);
  ::unlink(config_.socket_path.c_str());
}

IngressServer::Stats IngressServer::stats() const {
  const std::scoped_lock lock(core_->mu);
  return core_->stats;
}

TenantStats IngressServer::tenant_stats(const std::string& tenant) const {
  const std::scoped_lock lock(core_->mu);
  const auto it = core_->tenants.find(tenant);
  return it != core_->tenants.end() ? it->second : TenantStats{};
}

// ------------------------------------------------------------- event loop

void IngressServer::loop() {
  std::vector<pollfd> fds;
  while (true) {
    {
      const std::scoped_lock lock(core_->mu);
      if (!core_->loop_alive) return;
    }

    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_rd_, POLLIN, 0});
    for (const auto& conn : conns_) {
      short events = POLLIN;
      {
        const std::scoped_lock lock(conn->mu);
        if (!conn->tx.empty()) events |= POLLOUT;
      }
      fds.push_back({conn->fd, events, 0});
    }

    // Finite timeout as a backstop for a lost wake.
    if (::poll(fds.data(), fds.size(), 250) < 0 && errno != EINTR) return;

    if ((fds[1].revents & POLLIN) != 0) {
      u8 drain[64];
      while (::read(wake_rd_, drain, sizeof drain) > 0) {
      }
    }
    if ((fds[0].revents & POLLIN) != 0) accept_ready();

    // fds[i] pairs with conns_[i - 2]: accept_ready only appends, and
    // close_conn only marks — conns_ shrinks at the reap step below.
    for (usize i = 2; i < fds.size(); ++i) {
      const auto& conn = conns_[i - 2];
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
        conn_readable(conn);
      if ((fds[i].revents & POLLOUT) != 0) flush(conn);
    }

    drain_completions();

    // Reap connections closed this iteration.
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::shared_ptr<Conn>& c) {
                                  const std::scoped_lock lock(c->mu);
                                  return c->closed;
                                }),
                 conns_.end());
  }
}

void IngressServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: next poll round
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns_.push_back(conn);
    const std::scoped_lock lock(core_->mu);
    ++core_->stats.connections_accepted;
  }
}

void IngressServer::conn_readable(const std::shared_ptr<Conn>& conn) {
  // Bounded read per poll round: a client streaming bytes continuously
  // must not pin the single loop thread here (or grow conn->rx without
  // bound) while every other connection starves. Leftover kernel-buffer
  // data re-arms POLLIN on the next round (level-triggered), after the
  // frames below have been processed and other connections served.
  u8 buf[4096];
  usize budget = 2 * sizeof buf;
  while (budget > 0) {
    const ssize_t n =
        ::read(conn->fd, buf, std::min<usize>(budget, sizeof buf));
    if (n > 0) {
      conn->rx.append(buf, static_cast<usize>(n));
      budget -= static_cast<usize>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn(conn);  // EOF or hard error: the client is gone
    return;
  }

  while (true) {
    Decoded d = conn->rx.next();
    if (d.status == DecodeStatus::kNeedMore) break;
    if (d.status == DecodeStatus::kBad) {
      protocol_error(conn, std::move(d.error));
      return;
    }
    {
      const std::scoped_lock lock(core_->mu);
      ++core_->stats.frames_decoded;
    }
    if (!handle_frame(conn, std::move(d.frame))) return;
  }
}

bool IngressServer::handle_frame(const std::shared_ptr<Conn>& conn,
                                 Frame&& frame) {
  switch (type_of(frame)) {
    case FrameType::kHello: {
      auto& m = std::get<HelloFrame>(frame);
      if (conn->hello_done) {
        protocol_error(conn, "duplicate HELLO");
        return false;
      }
      if (m.version != kProtocolVersion) {
        protocol_error(conn, "unsupported protocol version " +
                                 std::to_string(m.version) +
                                 " (server speaks " +
                                 std::to_string(kProtocolVersion) + ")");
        return false;
      }
      conn->hello_done = true;
      conn->tenant = m.client_name.empty() ? "anonymous" : m.client_name;
      {
        const std::scoped_lock lock(core_->mu);
        core_->tenants.try_emplace(conn->tenant);
      }
      const std::vector<u8> ack = encode(
          HelloAckFrame{kProtocolVersion, config_.credit_window});
      if (!append_tx(conn, ack)) {
        overflow_close(conn);
        return false;
      }
      flush(conn);
      return true;
    }
    case FrameType::kSubmit: {
      if (!conn->hello_done) {
        protocol_error(conn, "SUBMIT before HELLO");
        return false;
      }
      return handle_submit(conn, std::move(std::get<SubmitFrame>(frame)));
    }
    case FrameType::kCancel: {
      if (!conn->hello_done) {
        protocol_error(conn, "CANCEL before HELLO");
        return false;
      }
      const u64 req_id = std::get<CancelFrame>(frame).req_id;
      serve::JobTicket ticket;
      {
        const std::scoped_lock lock(conn->mu);
        const auto it = conn->jobs.find(req_id);
        if (it != conn->jobs.end()) ticket = it->second;
      }
      // Unknown req_id: legal race with the terminal frame — ignore.
      if (ticket.valid()) ticket.cancel(CancelReason::kUser);
      return true;
    }
    default:
      // Server->client frame types arriving at the server.
      protocol_error(conn, std::string("unexpected frame type ") +
                               to_string(type_of(frame)) + " from client");
      return false;
  }
}

bool IngressServer::handle_submit(const std::shared_ptr<Conn>& conn,
                                  SubmitFrame&& m) {
  // Terminal-without-admission paths: the reject frame plus the folded
  // CREDIT{1} that balances the credit this SUBMIT consumed. False: the
  // connection was dropped (tx backlog cap — the peer is not reading its
  // responses).
  const auto reject = [&](std::string reason, bool no_credit) {
    {
      const std::scoped_lock lock(core_->mu);
      ++(no_credit ? core_->stats.no_credit_rejects
                   : core_->stats.invalid_rejects);
      ++core_->tenants[conn->tenant].rejected;
    }
    return respond(conn, RejectedFrame{m.req_id, std::move(reason)});
  };

  bool duplicate = false;
  bool over_window = false;
  {
    const std::scoped_lock lock(conn->mu);
    duplicate = conn->jobs.count(m.req_id) != 0;
    over_window = !duplicate && conn->jobs.size() >= config_.credit_window;
  }
  if (duplicate) {
    // Ambiguous accounting — unlike an unknown CANCEL this cannot be a
    // benign race, so it is connection-fatal.
    protocol_error(conn,
                   "duplicate in-flight req_id " + std::to_string(m.req_id));
    return false;
  }
  if (over_window) {
    // Enforced window: this SUBMIT never reaches the ServeNode, so a
    // client ignoring its credits cannot hold more than `window` jobs of
    // server memory. Surfaced as a frame, not a stall.
    return reject("credit window exceeded (" +
                      std::to_string(config_.credit_window) + " in flight)",
                  /*no_credit=*/true);
  }

  std::string error;
  if (!workloads::validate_serve_kernel(m.workload, m.count, &error))
    return reject(std::move(error), /*no_credit=*/false);

  // Validated here, built by the dispatcher that runs the job: this loop
  // runs no kernel build, and a queued job holds no inputs or slots.
  const Checksum checksum = std::make_shared<std::function<double()>>();
  serve::JobSpec spec;
  spec.qos = static_cast<serve::QosClass>(m.qos);
  spec.count = m.count;
  spec.sched = sched::ScheduleSpec::make(
      to_schedule_kind(static_cast<WireSched>(m.sched_kind)), m.chunk);
  spec.deadline_ns = m.deadline_ns;
  spec.make_body =
      workloads::serve_kernel_builder(std::move(m.workload), m.count, checksum);

  // The socket never blocks a dispatcher: admission overload resolves the
  // ticket kRejected immediately (no queue wait, no lease) and surfaces
  // below as a REJECTED frame.
  serve::SubmitOptions opts;
  opts.on_full = serve::SubmitOptions::OnFull::kReject;
  serve::JobTicket ticket = node_.submit(std::move(spec), opts);

  {
    const std::scoped_lock lock(conn->mu);
    conn->jobs.emplace(m.req_id, ticket);
    const std::scoped_lock core_lock(core_->mu);
    ++core_->stats.submits;
    ++core_->tenants[conn->tenant].submits;
    core_->stats.max_inflight =
        std::max<u64>(core_->stats.max_inflight, conn->jobs.size());
  }

  // Registered AFTER the jobs-map insert so a hook firing immediately
  // (inline reject) finds consistent state. The hook may run under the
  // admission mutex: push + one pipe write, nothing else.
  ticket.on_resolve(
      [core = core_, conn, req_id = m.req_id, ticket, checksum]() mutable {
        core->push_completion(
            {conn, req_id, std::move(ticket), std::move(checksum)});
      });
  return true;
}

void IngressServer::drain_completions() {
  std::vector<Core::Completion> batch;
  {
    const std::scoped_lock lock(core_->mu);
    batch.swap(core_->completions);
  }
  for (Core::Completion& c : batch) {
    // Harvest on the loop thread, no locks held: result, checksum (an
    // O(count) reduction) and frame encode all happen here.
    const serve::JobResult* r = c.ticket.poll();
    if (r == nullptr) continue;  // unreachable: hooks fire at resolve

    Frame terminal;
    u64 TenantStats::* bucket;
    switch (r->status) {
      case serve::JobStatus::kDone:
        terminal = CompletedFrame{c.req_id, static_cast<u8>(r->status),
                                  (*c.checksum)(), r->queue_wait_ns,
                                  r->service_ns};
        bucket = &TenantStats::completed;
        break;
      case serve::JobStatus::kExpired:
      case serve::JobStatus::kCancelled:
        terminal = CompletedFrame{c.req_id, static_cast<u8>(r->status), 0.0,
                                  r->queue_wait_ns, r->service_ns};
        bucket = &TenantStats::cancelled;
        break;
      case serve::JobStatus::kRejected:
        terminal = RejectedFrame{c.req_id, r->reject_reason};
        bucket = &TenantStats::rejected;
        break;
      case serve::JobStatus::kFailed:
        terminal = ErrorFrame{c.req_id, truncated_what(r->error)};
        bucket = &TenantStats::failed;
        break;
      case serve::JobStatus::kPending:
      default:
        continue;  // resolve() never leaves kPending
    }

    {
      const std::scoped_lock lock(c.conn->mu);
      c.conn->jobs.erase(c.req_id);
    }
    {
      const std::scoped_lock lock(core_->mu);
      ++(core_->tenants[c.conn->tenant].*bucket);
    }
    respond(c.conn, terminal);
  }
}

bool IngressServer::respond(const std::shared_ptr<Conn>& conn,
                            const Frame& terminal) {
  std::vector<u8> bytes = encode(terminal);
  append_bytes(bytes, encode(CreditFrame{1}));
  if (!append_tx(conn, bytes)) {
    overflow_close(conn);
    return false;
  }
  flush(conn);
  return true;
}

usize IngressServer::tx_cap() const {
  // Room for the window's worth of terminal-frame+CREDIT pairs (the
  // largest response is a REJECTED/ERROR with a kWireMaxString reason)
  // plus generous slack. A well-behaved flow never comes near this: tx
  // only backs up once the kernel socket buffer is full, and the window
  // bounds pending completions. Only a client that provokes responses
  // (e.g. streams over-window SUBMITs) while never reading accumulates a
  // backlog — and it is dropped at the cap instead of growing server
  // memory without bound.
  return (config_.credit_window + 16) * (wire::kWireMaxString + 96);
}

bool IngressServer::append_tx(const std::shared_ptr<Conn>& conn,
                              const std::vector<u8>& bytes) {
  const std::scoped_lock lock(conn->mu);
  if (conn->closed) return true;  // late completion: nothing to deliver
  if (conn->tx.size() + bytes.size() > tx_cap()) return false;
  append_bytes(conn->tx, bytes);
  return true;
}

void IngressServer::overflow_close(const std::shared_ptr<Conn>& conn) {
  {
    const std::scoped_lock lock(core_->mu);
    ++core_->stats.tx_overflow_closes;
  }
  close_conn(conn);
}

void IngressServer::flush(const std::shared_ptr<Conn>& conn) {
  const std::scoped_lock lock(conn->mu);
  if (conn->closed) return;
  while (!conn->tx.empty()) {
    // MSG_NOSIGNAL: a peer that hung up before its frames were written
    // must surface as EPIPE on the hard-error path below, not as a
    // process-killing SIGPIPE.
    const ssize_t n =
        ::send(conn->fd, conn->tx.data(), conn->tx.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->tx.erase(conn->tx.begin(), conn->tx.begin() + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    return;  // hard write error (EPIPE, ...): the read side closes the conn
  }
}

void IngressServer::protocol_error(const std::shared_ptr<Conn>& conn,
                                   std::string why) {
  {
    const std::scoped_lock lock(core_->mu);
    ++core_->stats.protocol_errors;
  }
  // Best-effort structured goodbye (req_id 0 = connection-level), then
  // close. The flush is one non-blocking write attempt; a client that
  // already vanished simply misses its diagnostic.
  const std::vector<u8> err = encode(ErrorFrame{0, std::move(why)});
  {
    const std::scoped_lock lock(conn->mu);
    if (!conn->closed) append_bytes(conn->tx, err);
  }
  flush(conn);
  close_conn(conn);
}

void IngressServer::close_conn(const std::shared_ptr<Conn>& conn) {
  std::vector<serve::JobTicket> orphans;
  {
    const std::scoped_lock lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    orphans.reserve(conn->jobs.size());
    for (auto& [id, ticket] : conn->jobs) orphans.push_back(ticket);
    conn->jobs.clear();
    conn->tx.clear();
    ::close(conn->fd);
    conn->fd = -1;
  }
  {
    const std::scoped_lock lock(core_->mu);
    ++core_->stats.connections_closed;
    core_->stats.disconnect_cancels += orphans.size();
  }
  // Tenant-scoped cleanup through the existing CancelToken path: nobody
  // is waiting for these results anymore. kDependency (not kUser) — the
  // peer this work was for is gone, the client didn't ask.
  for (serve::JobTicket& t : orphans) t.cancel(CancelReason::kDependency);
}

}  // namespace aid::ingress
