#include "ingress/ingress_client.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace aid::ingress {

std::optional<IngressClient> IngressClient::connect(
    const std::string& socket_path, const std::string& client_name,
    std::string* error) {
  const auto fail = [&](std::string why) -> std::optional<IngressClient> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path)
    return fail("socket path too long: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return fail(std::string("socket(): ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string why =
        "connect " + socket_path + ": " + std::strerror(errno);
    ::close(fd);
    return fail(why);
  }

  IngressClient c;
  c.fd_ = fd;
  c.alive_ = true;
  if (!c.send_bytes(encode(HelloFrame{kProtocolVersion, client_name})))
    return fail("handshake send: " + c.error_);
  // Pump until HELLO_ACK lands (the server may interleave nothing else
  // before it; ERROR means version rejection). The ack is tracked with an
  // explicit flag — a zero-credit grant is a handshake failure inside
  // process(), not a sentinel value this loop could spin on forever.
  while (!c.saw_hello_ack_ && c.alive_)
    if (!c.pump(/*block=*/true)) break;
  if (!c.saw_hello_ack_ || !c.alive_)
    return fail(c.error_.empty() ? "handshake failed" : c.error_);
  return c;
}

IngressClient::IngressClient(IngressClient&& other) noexcept {
  *this = std::move(other);
}

IngressClient& IngressClient::operator=(IngressClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    alive_ = std::exchange(other.alive_, false);
    saw_hello_ack_ = other.saw_hello_ack_;
    window_ = other.window_;
    credits_ = other.credits_;
    next_req_ = other.next_req_;
    rx_ = std::move(other.rx_);
    done_ = std::move(other.done_);
    error_ = std::move(other.error_);
  }
  return *this;
}

IngressClient::~IngressClient() {
  if (fd_ >= 0) ::close(fd_);
}

u64 IngressClient::submit(const Request& req) {
  // Credit backpressure lands HERE: pump terminal frames (each returns a
  // CREDIT) until a credit frees. The server's loop is never stalled by
  // this client being over its window.
  while (alive_ && credits_ == 0)
    if (!pump(/*block=*/true)) return 0;
  u64 id = 0;
  return try_submit(req, &id) ? id : 0;
}

bool IngressClient::try_submit(const Request& req, u64* req_id) {
  if (!ok() || credits_ == 0) return false;
  SubmitFrame m;
  m.req_id = next_req_;
  m.qos = static_cast<u8>(req.qos);
  m.deadline_ns = req.deadline_ns;
  m.count = req.count;
  m.sched_kind = static_cast<u8>(to_wire_sched(req.sched));
  m.chunk = req.chunk;
  m.workload = req.workload;
  if (!send_bytes(encode(m))) return false;
  ++next_req_;
  --credits_;
  *req_id = m.req_id;
  return true;
}

IngressClient::Result IngressClient::wait(u64 req_id) {
  while (true) {
    const auto it = done_.find(req_id);
    if (it != done_.end()) {
      Result r = std::move(it->second);
      done_.erase(it);
      return r;
    }
    if (!alive_) {
      Result r;
      r.transport_ok = false;
      r.message = error_.empty() ? "connection closed" : error_;
      return r;
    }
    // A frame for req_id that rode in with the close is still found
    // above before death is reported.
    (void)pump(/*block=*/true);
  }
}

std::optional<IngressClient::Result> IngressClient::try_take(u64 req_id) {
  if (alive_) (void)pump(/*block=*/false);
  const auto it = done_.find(req_id);
  if (it == done_.end()) return std::nullopt;
  Result r = std::move(it->second);
  done_.erase(it);
  return r;
}

void IngressClient::cancel(u64 req_id) {
  if (ok()) (void)send_bytes(encode(CancelFrame{req_id}));
}

bool IngressClient::send_bytes(const std::vector<u8>& bytes) {
  usize off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a server that closed on us must surface as EPIPE on
    // the die() path below, not kill the client process with SIGPIPE.
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<usize>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    die(std::string("write: ") + std::strerror(errno));
    return false;
  }
  return true;
}

bool IngressClient::pump(bool block) {
  // Drain already-buffered frames first; only hit the socket when the
  // buffer holds no complete frame.
  while (true) {
    Decoded d = rx_.next();
    if (d.status == DecodeStatus::kOk) {
      process(std::move(d.frame));
      if (!alive_) return false;
      continue;
    }
    if (d.status == DecodeStatus::kBad) {
      die("malformed frame from server: " + d.error);
      return false;
    }
    break;  // kNeedMore
  }

  pollfd p{fd_, POLLIN, 0};
  const int rc = ::poll(&p, 1, block ? -1 : 0);
  if (rc < 0 && errno != EINTR) {
    die(std::string("poll: ") + std::strerror(errno));
    return false;
  }
  if (rc <= 0) return true;  // timeout (non-blocking probe) or EINTR

  u8 buf[4096];
  const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
  if (n == 0) {
    die("server closed the connection");
    return false;
  }
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return true;
    die(std::string("read: ") + std::strerror(errno));
    return false;
  }
  rx_.append(buf, static_cast<usize>(n));

  while (true) {
    Decoded d = rx_.next();
    if (d.status == DecodeStatus::kNeedMore) return true;
    if (d.status == DecodeStatus::kBad) {
      die("malformed frame from server: " + d.error);
      return false;
    }
    process(std::move(d.frame));
    if (!alive_) return false;
  }
}

void IngressClient::process(Frame&& frame) {
  switch (type_of(frame)) {
    case FrameType::kHelloAck: {
      const auto& m = std::get<HelloAckFrame>(frame);
      if (saw_hello_ack_) {
        die("duplicate HELLO_ACK from server");
        return;
      }
      if (m.credits == 0) {
        // A zero-credit window could never submit anything; treat it as
        // the handshake failure it is instead of hanging in connect().
        die("server granted zero credits");
        return;
      }
      saw_hello_ack_ = true;
      window_ = m.credits;
      credits_ = m.credits;
      return;
    }
    case FrameType::kCredit:
      credits_ += std::get<CreditFrame>(frame).credits;
      return;
    case FrameType::kCompleted: {
      const auto& m = std::get<CompletedFrame>(frame);
      Result r;
      r.status = static_cast<serve::JobStatus>(m.status);
      r.checksum = m.checksum;
      r.queue_wait_ns = m.queue_wait_ns;
      r.service_ns = m.service_ns;
      done_[m.req_id] = std::move(r);
      return;
    }
    case FrameType::kRejected: {
      auto& m = std::get<RejectedFrame>(frame);
      Result r;
      r.status = serve::JobStatus::kRejected;
      r.message = std::move(m.reason);
      done_[m.req_id] = std::move(r);
      return;
    }
    case FrameType::kError: {
      auto& m = std::get<ErrorFrame>(frame);
      if (m.req_id == 0) {
        // Connection-level: the server is about to close on us.
        die("server error: " + m.message);
        return;
      }
      Result r;
      r.status = serve::JobStatus::kFailed;
      r.message = std::move(m.message);
      done_[m.req_id] = std::move(r);
      return;
    }
    default:
      die(std::string("unexpected frame type ") + to_string(type_of(frame)) +
          " from server");
      return;
  }
}

void IngressClient::die(std::string why) {
  alive_ = false;
  if (error_.empty()) error_ = std::move(why);
}

}  // namespace aid::ingress
