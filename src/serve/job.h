// The serving tier's unit of work: one loop (or loop chain) a client asks
// the shared pool to run, plus the ticket the client waits on.
//
// A Job travels: submit → (admission) → queued → dispatched (a deferred
// body is built here) → run on a class lease → finished; or it
// short-circuits at admission (rejected by
// backpressure) or in the queue (deadline expired / user-cancelled before
// dispatch — the PR 6 CancelToken is the single cancellation channel for
// both the queued and the running phase, so "cancel" means the same thing
// whether the job has started or not). Every path resolves the ticket
// exactly once; tickets never block the serving tier itself.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/cancel.h"
#include "common/types.h"
#include "pipeline/loop_chain.h"
#include "rt/team.h"
#include "sched/schedule_spec.h"
#include "serve/qos.h"

namespace aid::serve {

/// What a client submits. Either a canonical-range loop (`count` plus
/// exactly one of `body` and `make_body`) or, when `chain` is set, a
/// pipeline::LoopChain (copied into the job; the chain's bodies must stay
/// valid until the ticket resolves).
struct JobSpec {
  QosClass qos = QosClass::kNormal;
  i64 count = 0;
  sched::ScheduleSpec sched;
  rt::RangeBody body;
  /// A deferred body: the dispatcher that dequeues the job calls it and
  /// stores the result in `body` before taking a lease, so a queued job
  /// holds none of the body's state. A throw resolves the job kFailed with
  /// that exception, and no lease is taken. The build counts as service.
  std::function<rt::RangeBody()> make_body;
  std::optional<pipeline::LoopChain> chain;
  /// Relative deadline from submission (0 = none). Covers the job's WHOLE
  /// life — queue wait plus service — through one CancelToken: expiry in
  /// the queue drops the job before it ever takes a lease; expiry mid-run
  /// cancels cooperatively at the next chunk-take boundary.
  i64 deadline_ns = 0;
};

/// Terminal state of a job.
enum class JobStatus : u8 {
  kPending = 0,   ///< not yet resolved (tickets only; never in a result)
  kDone,          ///< every iteration executed
  kRejected,      ///< admission backpressure — never queued, never run
  kExpired,       ///< deadline fired before completion (in queue or mid-run)
  kCancelled,     ///< user cancel before completion (in queue or mid-run)
  kFailed,        ///< the body threw; `error` holds the exception
};

[[nodiscard]] constexpr const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kPending: return "pending";
    case JobStatus::kDone: return "done";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kExpired: return "expired";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kFailed: return "failed";
  }
  return "?";
}

struct JobResult {
  JobStatus status = JobStatus::kPending;
  /// Why admission refused (kRejected only): "queue full", "timed out
  /// waiting for queue space", "node shutting down".
  std::string reject_reason;
  /// The body's exception (kFailed only). Never rethrown by the tier.
  std::exception_ptr error;
  /// True when the job was resolved without ever being dispatched (its
  /// body never ran and no lease was touched on its behalf).
  bool never_dispatched = false;
  Nanos queue_wait_ns = 0;  ///< submit → dispatch (or terminal drop)
  Nanos service_ns = 0;     ///< dispatch → finish (0 when never dispatched)
};

/// How submit() behaves when the class queue is at its depth limit.
struct SubmitOptions {
  enum class OnFull : u8 {
    kReject,  ///< fail fast with JobStatus::kRejected (open-loop clients)
    kBlock,   ///< wait up to `block_timeout_ns` for space, then reject
  };
  OnFull on_full = OnFull::kReject;
  i64 block_timeout_ns = 100'000'000;  // 100 ms
};

/// Shared state behind a JobTicket. The serving tier resolves it exactly
/// once; the client may wait, poll, or cancel from any thread.
class JobState {
 public:
  explicit JobState(JobSpec spec) : spec(std::move(spec)) {}

  JobSpec spec;
  CancelToken token;         ///< the job's one cancellation channel
  u64 id = 0;                ///< ServeNode-assigned, for diagnostics
  Nanos submit_ns = 0;       ///< steady-clock stamp at admission
  Nanos dispatch_ns = 0;     ///< steady-clock stamp at dequeue (0 = never)
  Nanos deadline_abs_ns = 0; ///< submit_ns + spec.deadline_ns (0 = none)
  u64 watchdog_id = 0;       ///< in-queue deadline arm (0 = none)

  void resolve(JobResult r) {
    std::function<void()> hook;
    {
      const std::scoped_lock lock(mu_);
      result_ = std::move(r);
      done_ = true;
      hook = std::move(hook_);
      hook_ = nullptr;
    }
    cv_.notify_all();
    if (hook) hook();
  }

  [[nodiscard]] bool done() const {
    const std::scoped_lock lock(mu_);
    return done_;
  }

  [[nodiscard]] const JobResult& wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    return result_;
  }

  /// Non-blocking probe: the result once resolved, nullptr while pending.
  /// The pointer stays valid for the state's lifetime (resolve happens
  /// exactly once; the result is never rewritten).
  [[nodiscard]] const JobResult* try_result() const {
    const std::scoped_lock lock(mu_);
    return done_ ? &result_ : nullptr;
  }

  /// Register a one-shot completion hook, so an event loop can multiplex
  /// many tickets without parking a thread per job. Runs exactly once:
  /// inline if the job already resolved, otherwise on the RESOLVING
  /// thread — which may hold the admission mutex (see admission.cc
  /// finish_run) — so the hook must only hand off (enqueue + wake) and
  /// must never block or call back into the serving tier. At most one
  /// hook per job; a second registration replaces an unfired first.
  void on_resolve(std::function<void()> hook) {
    {
      const std::scoped_lock lock(mu_);
      if (!done_) {
        hook_ = std::move(hook);
        return;
      }
    }
    hook();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  JobResult result_;
  std::function<void()> hook_;
};

/// The client's handle on a submitted job. Cheap to copy; outliving the
/// ServeNode is safe (the node resolves every admitted job before its
/// destructor returns).
class JobTicket {
 public:
  JobTicket() = default;
  explicit JobTicket(std::shared_ptr<JobState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool done() const { return state_->done(); }

  /// Block until the job resolves; the reference stays valid while the
  /// ticket (or any copy) lives.
  [[nodiscard]] const JobResult& wait() { return state_->wait(); }

  /// Non-blocking harvest: the result once resolved, nullptr while
  /// pending. Event-loop clients (the socket ingress) poll or hook
  /// instead of parking a thread in wait().
  [[nodiscard]] const JobResult* poll() const { return state_->try_result(); }

  /// One-shot completion hook (see JobState::on_resolve for the contract:
  /// may fire under the admission mutex — enqueue-and-wake only).
  void on_resolve(std::function<void()> hook) {
    state_->on_resolve(std::move(hook));
  }

  /// Cooperative cancel: a queued job is dropped at dequeue without taking
  /// a lease; a running job stops at the next chunk-take boundary. The
  /// reason defaults to kUser; infrastructure cleanup (e.g. the ingress
  /// cancelling a dead connection's jobs) passes kDependency so stats and
  /// dumps distinguish "the client asked" from "the client vanished".
  void cancel(CancelReason reason = CancelReason::kUser) {
    state_->token.cancel(reason);
  }

 private:
  std::shared_ptr<JobState> state_;
};

}  // namespace aid::serve
