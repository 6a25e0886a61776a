// Serving tier: queue discipline, admission backpressure, in-queue
// deadline expiry, deferred bodies built by the dispatcher, and per-class
// stats exactness.
//
// The backpressure tests run on a 1S+1B machine with one dispatcher and
// per-class depth/in-flight limits of 1, so dispatch order is fully
// deterministic; the reject path's no-pool-resources guarantee is
// asserted as a delta on the pool's observability counters
// (registered_apps / spawned_workers unchanged across a rejection) and
// as zero lease activity for classes whose jobs never dispatched.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/env.h"
#include "platform/platform.h"
#include "serve/serve_node.h"

namespace aid::serve {
namespace {

using sched::ScheduleSpec;

/// A manually opened gate a job body can park on (count-1 jobs run the
/// body exactly once, so the dispatcher blocks until open()).
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;

  void open_now() {
    {
      const std::scoped_lock lock(m);
      open = true;
    }
    cv.notify_all();
  }
  void wait_open() {
    std::unique_lock lock(m);
    cv.wait(lock, [this] { return open; });
  }
};

JobSpec gated_job(QosClass cls, Gate& gate, std::atomic<int>* ran = nullptr) {
  JobSpec spec;
  spec.qos = cls;
  spec.count = 1;
  spec.sched = ScheduleSpec::dynamic(1);
  spec.body = [&gate, ran](i64, i64, const rt::WorkerInfo&) {
    if (ran != nullptr) ran->fetch_add(1, std::memory_order_relaxed);
    gate.wait_open();
  };
  return spec;
}

JobSpec counting_job(QosClass cls, i64 count, std::atomic<i64>& hits) {
  JobSpec spec;
  spec.qos = cls;
  spec.count = count;
  spec.sched = ScheduleSpec::dynamic(8);
  spec.body = [&hits](i64 b, i64 e, const rt::WorkerInfo&) {
    hits.fetch_add(e - b, std::memory_order_relaxed);
  };
  return spec;
}

std::shared_ptr<JobState> queued(QosClass cls) {
  JobSpec spec;
  spec.qos = cls;
  spec.count = 1;
  spec.body = [](i64, i64, const rt::WorkerInfo&) {};
  return std::make_shared<JobState>(std::move(spec));
}

// --- JobQueue: the discipline, deterministic and threadless ----------------

constexpr std::array<bool, kNumQosClasses> kAllEligible = {true, true, true};

TEST(JobQueue, FifoWithinClass) {
  JobQueue q({8, 4, 1}, /*preempt_burst=*/4);
  auto a = queued(QosClass::kNormal);
  auto b = queued(QosClass::kNormal);
  auto c = queued(QosClass::kNormal);
  q.push(a);
  q.push(b);
  q.push(c);
  EXPECT_EQ(q.pop(kAllEligible), a);
  EXPECT_EQ(q.pop(kAllEligible), b);
  EXPECT_EQ(q.pop(kAllEligible), c);
  EXPECT_EQ(q.pop(kAllEligible), nullptr);
}

TEST(JobQueue, PriorityClassPreemptsQueuedWork) {
  JobQueue q({8, 4, 1}, /*preempt_burst=*/4);
  auto batch = queued(QosClass::kBatch);
  q.push(batch);  // arrived first
  auto lat = queued(QosClass::kLatency);
  q.push(lat);
  // The latency job jumps the earlier batch job (queued-work preemption).
  EXPECT_EQ(q.pop(kAllEligible), lat);
  EXPECT_EQ(q.pop(kAllEligible), batch);
}

TEST(JobQueue, BurstCapForcesWeightedFairRound) {
  // Equal weights, burst 2: with latency and batch both backlogged the
  // stride credits tie (ties go to the higher class), so the discipline
  // is exactly periodic — batch lands every sixth pop: two preemptive
  // latency picks, a fair round latency wins (tie), two more preemptive,
  // then a fair round batch has strictly more credit.
  JobQueue q({1, 1, 1}, /*preempt_burst=*/2);
  for (int i = 0; i < 4; ++i) q.push(queued(QosClass::kLatency));
  for (int i = 0; i < 4; ++i) q.push(queued(QosClass::kBatch));
  std::vector<QosClass> order;
  for (int i = 0; i < 6; ++i) {
    auto j = q.pop(kAllEligible);
    ASSERT_NE(j, nullptr);
    order.push_back(j->spec.qos);
  }
  const std::vector<QosClass> want = {
      QosClass::kLatency, QosClass::kLatency, QosClass::kLatency,
      QosClass::kLatency, QosClass::kBatch,   QosClass::kLatency};
  // Pops 1-2 preempt, pop 3 fair (tie -> latency), pop 4 preempt... the
  // exact slot batch wins depends only on the credits, so pin the prefix:
  EXPECT_EQ(std::vector<QosClass>(order.begin(), order.begin() + 4),
            std::vector<QosClass>(want.begin(), want.begin() + 4));
  EXPECT_TRUE(order[4] == QosClass::kBatch || order[5] == QosClass::kBatch)
      << "batch must win a fair round within one burst+round cycle";
}

TEST(JobQueue, PureWeightedFairConvergesToWeights) {
  // burst 0 disables preemption: pure stride scheduling. With weights
  // 2:1 and both classes backlogged, every 3 pops are 2 latency + 1
  // batch exactly (the stride cycle), so 30 pops split 20/10.
  JobQueue q({2, 4, 1}, /*preempt_burst=*/0);  // normal unused
  for (int i = 0; i < 30; ++i) q.push(queued(QosClass::kLatency));
  for (int i = 0; i < 30; ++i) q.push(queued(QosClass::kBatch));
  int lat = 0;
  int bat = 0;
  for (int i = 0; i < 30; ++i) {
    auto j = q.pop(kAllEligible);
    ASSERT_NE(j, nullptr);
    (j->spec.qos == QosClass::kLatency ? lat : bat)++;
  }
  EXPECT_EQ(lat, 20);
  EXPECT_EQ(bat, 10);
}

TEST(JobQueue, EligibilityMaskSkipsCappedClass) {
  JobQueue q({8, 4, 1}, /*preempt_burst=*/4);
  q.push(queued(QosClass::kLatency));
  auto batch = queued(QosClass::kBatch);
  q.push(batch);
  // Latency is at its in-flight cap: masked out, batch pops despite rank.
  EXPECT_EQ(q.pop({false, true, true}), batch);
  // Nothing eligible at all -> nullptr even though the queue is non-empty.
  EXPECT_EQ(q.pop({false, true, true}), nullptr);
  EXPECT_EQ(q.depth(QosClass::kLatency), 1u);
}

TEST(JobQueue, LoneCandidateDoesNotBurnBurstBudget) {
  JobQueue q({1, 1, 1}, /*preempt_burst=*/2);
  for (int i = 0; i < 10; ++i) q.push(queued(QosClass::kLatency));
  // Draining a lone class is not preemption (nobody is being jumped).
  for (int i = 0; i < 5; ++i) ASSERT_NE(q.pop(kAllEligible), nullptr);
  q.push(queued(QosClass::kBatch));
  // The full burst budget is still available against the newcomer.
  EXPECT_EQ(q.pop(kAllEligible)->spec.qos, QosClass::kLatency);
  EXPECT_EQ(q.pop(kAllEligible)->spec.qos, QosClass::kLatency);
}

// --- ServeNode: end-to-end -------------------------------------------------

ServeNode::Config serial_config() {
  // One dispatcher, tight limits: fully deterministic dispatch order, and
  // on a 1S+1B machine every lease is master-only (zero spawned workers).
  ServeNode::Config cfg;
  cfg.dispatchers = 1;
  for (auto& cls : cfg.cls) {
    cls.max_queue = 1;
    cls.max_inflight = 1;
  }
  return cfg;
}

TEST(ServeNode, CompletesJobsAcrossClasses) {
  ServeNode node(platform::generic_amp(2, 2, 2.0), ServeNode::Config{});
  std::array<std::atomic<i64>, kNumQosClasses> hits{};
  std::vector<JobTicket> tickets;
  for (int c = 0; c < kNumQosClasses; ++c)
    tickets.push_back(node.submit(
        counting_job(qos_of(c), 500, hits[static_cast<usize>(c)])));
  for (auto& t : tickets) {
    const JobResult& r = t.wait();
    EXPECT_EQ(r.status, JobStatus::kDone);
    EXPECT_FALSE(r.never_dispatched);
    EXPECT_GE(r.service_ns, 0);
  }
  for (int c = 0; c < kNumQosClasses; ++c) {
    EXPECT_EQ(hits[static_cast<usize>(c)].load(), 500);
    const ClassStats s = node.class_stats(qos_of(c));
    EXPECT_EQ(s.submitted, 1u);
    EXPECT_EQ(s.admitted, 1u);
    EXPECT_EQ(s.dispatched, 1u);
    EXPECT_EQ(s.completed, 1u);
  }
}

TEST(ServeNode, RejectAtDepthTakesNoPoolResources) {
  Gate gate;
  {
    ServeNode node(platform::generic_amp(1, 1, 2.0), serial_config());
    auto running = node.submit(gated_job(QosClass::kLatency, gate));
    // Wait until the dispatcher pops `running` (it then blocks on the
    // gate) so `waiting` fills the class queue (depth limit 1) rather
    // than racing `running` for the one slot.
    while (node.class_stats(QosClass::kLatency).dispatched != 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::atomic<i64> hits{0};
    auto waiting = node.submit(counting_job(QosClass::kLatency, 8, hits));

    const int apps_before = node.pool().registered_apps();
    const int workers_before = node.pool().spawned_workers();
    std::atomic<i64> unused{0};
    auto rejected = node.submit(counting_job(QosClass::kLatency, 8, unused));
    const JobResult& r = rejected.wait();  // resolved synchronously
    EXPECT_EQ(r.status, JobStatus::kRejected);
    EXPECT_EQ(r.reject_reason, "queue full");
    EXPECT_TRUE(r.never_dispatched);
    // The reject took nothing from the pool: no new lease, no new worker.
    EXPECT_EQ(node.pool().registered_apps(), apps_before);
    EXPECT_EQ(node.pool().spawned_workers(), workers_before);

    gate.open_now();
    EXPECT_EQ(running.wait().status, JobStatus::kDone);
    EXPECT_EQ(waiting.wait().status, JobStatus::kDone);
    EXPECT_EQ(hits.load(), 8);
    EXPECT_EQ(unused.load(), 0);  // the rejected body never ran

    const ClassStats s = node.class_stats(QosClass::kLatency);
    EXPECT_EQ(s.submitted, 3u);
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.admitted, 2u);
    EXPECT_EQ(s.dispatched, 2u);
  }
}

TEST(ServeNode, BoundedBlockTimesOutThenSucceeds) {
  Gate gate;
  ServeNode node(platform::generic_amp(1, 1, 2.0), serial_config());
  auto running = node.submit(gated_job(QosClass::kNormal, gate));
  while (node.class_stats(QosClass::kNormal).dispatched != 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::atomic<i64> hits{0};
  auto waiting = node.submit(counting_job(QosClass::kNormal, 8, hits));

  // Queue full and nobody will drain it: the bounded block must give up.
  SubmitOptions block;
  block.on_full = SubmitOptions::OnFull::kBlock;
  block.block_timeout_ns = 20'000'000;  // 20 ms
  std::atomic<i64> unused{0};
  auto timed_out =
      node.submit(counting_job(QosClass::kNormal, 8, unused), block);
  EXPECT_EQ(timed_out.wait().status, JobStatus::kRejected);
  EXPECT_EQ(timed_out.wait().reject_reason,
            "timed out waiting for queue space");

  // Now with a draining queue the same call blocks briefly and succeeds:
  // open the gate shortly after the submit starts waiting.
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    gate.open_now();
  });
  block.block_timeout_ns = 5'000'000'000;  // 5 s — must not be needed
  std::atomic<i64> hits2{0};
  auto blocked =
      node.submit(counting_job(QosClass::kNormal, 8, hits2), block);
  opener.join();
  EXPECT_EQ(blocked.wait().status, JobStatus::kDone);
  EXPECT_EQ(hits2.load(), 8);
  EXPECT_EQ(waiting.wait().status, JobStatus::kDone);
  EXPECT_EQ(running.wait().status, JobStatus::kDone);
}

TEST(ServeNode, ExpiredInQueueNeverReachesDispatch) {
  Gate gate;
  ServeNode node(platform::generic_amp(1, 1, 2.0), serial_config());
  std::atomic<int> gated_ran{0};
  auto running = node.submit(gated_job(QosClass::kLatency, gate, &gated_ran));

  // A queued job whose whole-life deadline expires behind the blocked
  // dispatcher: it must be dropped at dequeue, pre-lease, body never run.
  JobSpec doomed;
  doomed.qos = QosClass::kNormal;
  doomed.count = 4;
  std::atomic<int> doomed_ran{0};
  doomed.body = [&doomed_ran](i64, i64, const rt::WorkerInfo&) {
    doomed_ran.fetch_add(1, std::memory_order_relaxed);
  };
  doomed.deadline_ns = 5'000'000;  // 5 ms; the gate stays shut far longer
  auto ticket = node.submit(std::move(doomed));

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  gate.open_now();
  const JobResult& r = ticket.wait();
  EXPECT_EQ(r.status, JobStatus::kExpired);
  EXPECT_TRUE(r.never_dispatched);
  EXPECT_EQ(r.service_ns, 0);
  EXPECT_EQ(doomed_ran.load(), 0) << "expired job's body must never run";
  EXPECT_EQ(running.wait().status, JobStatus::kDone);

  const ClassStats s = node.class_stats(QosClass::kNormal);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.expired_in_queue, 1u);
  EXPECT_EQ(s.dispatched, 0u) << "in-queue expiry must not count a dispatch";
  // No pool state was ever touched on the expired job's behalf.
  EXPECT_EQ(s.lease_registered + s.lease_reused, 0u);
}

TEST(ServeNode, CancelledInQueueNeverReachesDispatch) {
  Gate gate;
  ServeNode node(platform::generic_amp(1, 1, 2.0), serial_config());
  auto running = node.submit(gated_job(QosClass::kLatency, gate));
  std::atomic<i64> hits{0};
  auto ticket = node.submit(counting_job(QosClass::kBatch, 8, hits));
  while (node.queue_depth(QosClass::kBatch) != 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ticket.cancel();
  gate.open_now();
  const JobResult& r = ticket.wait();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_TRUE(r.never_dispatched);
  EXPECT_EQ(hits.load(), 0);
  EXPECT_EQ(running.wait().status, JobStatus::kDone);
  const ClassStats s = node.class_stats(QosClass::kBatch);
  EXPECT_EQ(s.cancelled_in_queue, 1u);
  EXPECT_EQ(s.dispatched, 0u);
}

TEST(ServeNode, DeadlineMidRunExpiresCooperatively) {
  ServeNode node(platform::generic_amp(1, 1, 2.0), serial_config());
  JobSpec slow;
  slow.qos = QosClass::kNormal;
  slow.count = 10'000;
  slow.sched = ScheduleSpec::dynamic(1);
  slow.body = [](i64, i64, const rt::WorkerInfo&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  slow.deadline_ns = 30'000'000;  // 30 ms: expires mid-run, not in queue
  auto ticket = node.submit(std::move(slow));
  const JobResult& r = ticket.wait();
  EXPECT_EQ(r.status, JobStatus::kExpired);
  EXPECT_FALSE(r.never_dispatched);
  const ClassStats s = node.class_stats(QosClass::kNormal);
  EXPECT_EQ(s.dispatched, 1u);
  EXPECT_EQ(s.expired_running, 1u);
  EXPECT_EQ(s.expired_in_queue, 0u);
}

TEST(ServeNode, LeaseRecycledAcrossBackToBackJobs) {
  Gate gate;
  ServeNode::Config cfg = serial_config();
  cfg.cls[static_cast<usize>(index_of(QosClass::kBatch))].max_queue = 3;
  ServeNode node(platform::generic_amp(1, 1, 2.0), cfg);
  std::vector<JobTicket> tickets;
  tickets.push_back(node.submit(gated_job(QosClass::kBatch, gate)));
  // Wait until the gated job is RUNNING (it left the queue) so the three
  // follow-ups all sit queued behind it: every recycle except the last
  // then sees a backlogged class and parks the lease.
  while (node.class_stats(QosClass::kBatch).dispatched != 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::atomic<i64> hits{0};
  for (int i = 0; i < 3; ++i)
    tickets.push_back(node.submit(counting_job(QosClass::kBatch, 8, hits)));
  ASSERT_EQ(node.queue_depth(QosClass::kBatch), 3u);
  gate.open_now();
  for (auto& t : tickets) EXPECT_EQ(t.wait().status, JobStatus::kDone);
  EXPECT_EQ(hits.load(), 24);
  const ClassStats s = node.class_stats(QosClass::kBatch);
  EXPECT_EQ(s.completed, 4u);
  // One fresh lease for the first job; while the class stayed backlogged
  // the lease was parked and reused, released only when the queue dried.
  EXPECT_EQ(s.lease_registered, 1u);
  EXPECT_EQ(s.lease_reused, 3u);
}

TEST(ServeNode, FailedJobCapturesExceptionAndNodeSurvives) {
  ServeNode node(platform::generic_amp(2, 2, 2.0), ServeNode::Config{});
  JobSpec bad;
  bad.qos = QosClass::kNormal;
  bad.count = 32;
  bad.body = [](i64 b, i64, const rt::WorkerInfo&) {
    if (b == 0) throw std::runtime_error("boom");
  };
  auto ticket = node.submit(std::move(bad));
  const JobResult& r = ticket.wait();
  EXPECT_EQ(r.status, JobStatus::kFailed);
  ASSERT_TRUE(r.error != nullptr);
  EXPECT_THROW(std::rethrow_exception(r.error), std::runtime_error);

  // The tier keeps serving after a tenant's body threw.
  std::atomic<i64> hits{0};
  auto next = node.submit(counting_job(QosClass::kNormal, 100, hits));
  EXPECT_EQ(next.wait().status, JobStatus::kDone);
  EXPECT_EQ(hits.load(), 100);
  const ClassStats s = node.class_stats(QosClass::kNormal);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(ServeNode, DeferredBodyIsBuiltOnceByItsDispatcher) {
  // One dispatcher, held by a gated job: the deferred jobs behind it stay
  // queued, so none may be built yet.
  Gate gate;
  ServeNode::Config cfg = serial_config();
  cfg.cls[static_cast<usize>(index_of(QosClass::kNormal))].max_queue = 8;
  ServeNode node(platform::generic_amp(1, 1, 2.0), cfg);
  auto running = node.submit(gated_job(QosClass::kLatency, gate));
  while (node.class_stats(QosClass::kLatency).dispatched != 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  struct Build {
    std::atomic<int> builds{0};
    std::atomic<i64> hits{0};
    std::thread::id on;  ///< the building thread; read after the ticket
  };
  constexpr i64 kCount = 64;
  std::array<Build, 4> jobs;
  std::vector<JobTicket> tickets;
  for (Build& b : jobs) {
    JobSpec spec;
    spec.qos = QosClass::kNormal;
    spec.count = kCount;
    spec.sched = ScheduleSpec::dynamic(8);
    spec.make_body = [&b] {
      b.builds.fetch_add(1, std::memory_order_relaxed);
      b.on = std::this_thread::get_id();
      return rt::RangeBody([&b](i64 lo, i64 hi, const rt::WorkerInfo&) {
        b.hits.fetch_add(hi - lo, std::memory_order_relaxed);
      });
    };
    tickets.push_back(node.submit(std::move(spec)));
  }
  ASSERT_EQ(node.queue_depth(QosClass::kNormal), jobs.size());
  constexpr usize kCancelled = 1;
  tickets[kCancelled].cancel();
  for (const Build& b : jobs) EXPECT_EQ(b.builds.load(), 0);

  gate.open_now();
  EXPECT_EQ(running.wait().status, JobStatus::kDone);
  for (usize i = 0; i < jobs.size(); ++i) {
    const JobResult& r = tickets[i].wait();
    if (i == kCancelled) {
      EXPECT_EQ(r.status, JobStatus::kCancelled);
      EXPECT_TRUE(r.never_dispatched);
      EXPECT_EQ(jobs[i].builds.load(), 0) << "cancelled in the queue";
      continue;
    }
    EXPECT_EQ(r.status, JobStatus::kDone) << "job " << i;
    EXPECT_EQ(jobs[i].builds.load(), 1) << "job " << i;
    EXPECT_NE(jobs[i].on, std::this_thread::get_id()) << "job " << i;
    EXPECT_EQ(jobs[i].hits.load(), kCount) << "job " << i;
  }

  // A builder that throws fails its job with that exception, before any
  // lease is taken. A lease taken and handed back would leave
  // registered_apps as it was, so the class's lease counters are checked
  // too.
  node.drain();
  const int apps_before = node.pool().registered_apps();
  const ClassStats before = node.class_stats(QosClass::kNormal);
  JobSpec bad;
  bad.qos = QosClass::kNormal;
  bad.count = kCount;
  bad.make_body = []() -> rt::RangeBody {
    throw std::runtime_error("inputs unavailable");
  };
  auto failed = node.submit(std::move(bad));
  const JobResult& r = failed.wait();
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_FALSE(r.never_dispatched);
  ASSERT_TRUE(r.error != nullptr);
  try {
    std::rethrow_exception(r.error);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inputs unavailable");
  }
  EXPECT_EQ(node.pool().registered_apps(), apps_before);
  const ClassStats after = node.class_stats(QosClass::kNormal);
  EXPECT_EQ(after.lease_registered, before.lease_registered);
  EXPECT_EQ(after.lease_reused, before.lease_reused);
  EXPECT_EQ(after.failed, before.failed + 1);
}

TEST(ServeNode, ChainJobRunsThroughTheTier) {
  ServeNode node(platform::generic_amp(2, 2, 2.0), ServeNode::Config{});
  constexpr i64 kN = 256;
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  pipeline::LoopChain chain;
  const int first = chain.add(kN, ScheduleSpec::dynamic(16),
                              [&a](i64 lo, i64 hi, const rt::WorkerInfo&) {
                                for (i64 i = lo; i < hi; ++i)
                                  a[static_cast<usize>(i)].store(1);
                              });
  chain.add_after(first, kN, ScheduleSpec::dynamic(16),
                  [&a, &b](i64 lo, i64 hi, const rt::WorkerInfo&) {
                    for (i64 i = lo; i < hi; ++i)
                      b[static_cast<usize>(i)].store(
                          a[static_cast<usize>(i)].load() + 1);
                  });
  JobSpec spec;
  spec.qos = QosClass::kLatency;
  spec.chain = std::move(chain);
  auto ticket = node.submit(std::move(spec));
  EXPECT_EQ(ticket.wait().status, JobStatus::kDone);
  for (i64 i = 0; i < kN; ++i)
    ASSERT_EQ(b[static_cast<usize>(i)].load(), 2) << "index " << i;
}

TEST(ServeNode, DrainWaitsForQueueAndInflight) {
  ServeNode node(platform::generic_amp(2, 2, 2.0), ServeNode::Config{});
  std::atomic<i64> hits{0};
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 12; ++i)
    tickets.push_back(
        node.submit(counting_job(qos_of(i % kNumQosClasses), 200, hits)));
  node.drain();
  EXPECT_EQ(hits.load(), 12 * 200);
  for (auto& t : tickets) EXPECT_TRUE(t.done());
}

TEST(ServeNodeConfig, FromEnvParsesAndFallsBack) {
  env::reset_warnings();
  {
    const env::ScopedSet p("AID_SERVE_POLICY", "equal-share");
    const env::ScopedSet d("AID_SERVE_QUEUE_DEPTH", "7");
    const env::ScopedSet i("AID_SERVE_INFLIGHT", "3");
    const env::ScopedSet n("AID_SERVE_DISPATCHERS", "5");
    const auto cfg = ServeNode::Config::from_env();
    EXPECT_EQ(cfg.policy, pool::Policy::kEqualShare);
    EXPECT_EQ(cfg.dispatchers, 5);
    for (const auto& cls : cfg.cls) {
      EXPECT_EQ(cls.max_queue, 7);
      EXPECT_EQ(cls.max_inflight, 3);
    }
  }
  {
    // Malformed values warn once and leave the defaults standing.
    const env::ScopedSet p("AID_SERVE_POLICY", "fastest-please");
    const env::ScopedSet d("AID_SERVE_QUEUE_DEPTH", "zero");
    const env::ScopedSet n("AID_SERVE_DISPATCHERS", "-3");
    const auto cfg = ServeNode::Config::from_env();
    const ServeNode::Config def;
    EXPECT_EQ(cfg.policy, def.policy);
    EXPECT_EQ(cfg.dispatchers, def.dispatchers);
    for (int c = 0; c < kNumQosClasses; ++c)
      EXPECT_EQ(cfg.cls[static_cast<usize>(c)].max_queue,
                def.cls[static_cast<usize>(c)].max_queue);
  }
  env::reset_warnings();
}

TEST(ServeNode, StatsInvariantsExactAfterDrain) {
  Gate gate;
  ServeNode node(platform::generic_amp(1, 1, 2.0), serial_config());
  std::vector<JobTicket> tickets;
  tickets.push_back(node.submit(gated_job(QosClass::kLatency, gate)));
  while (node.class_stats(QosClass::kLatency).dispatched != 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // One queued-then-cancelled, one rejected (depth 1 full), per class.
  std::atomic<i64> hits{0};
  for (int c = 0; c < kNumQosClasses; ++c) {
    auto q = node.submit(counting_job(qos_of(c), 8, hits));
    if (c != 0) {  // latency's slot is the gated job's class queue
      while (node.queue_depth(qos_of(c)) != 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto rej = node.submit(counting_job(qos_of(c), 8, hits));
    if (c == 0) q.cancel();
    tickets.push_back(std::move(q));
    tickets.push_back(std::move(rej));
  }
  gate.open_now();
  for (auto& t : tickets) (void)t.wait();
  node.drain();

  for (int c = 0; c < kNumQosClasses; ++c) {
    const ClassStats s = node.class_stats(qos_of(c));
    EXPECT_EQ(s.submitted, s.admitted + s.rejected) << to_string(qos_of(c));
    EXPECT_EQ(s.admitted,
              s.expired_in_queue + s.cancelled_in_queue + s.dispatched)
        << to_string(qos_of(c));
    EXPECT_EQ(s.dispatched, s.completed + s.failed + s.expired_running +
                                s.cancelled_running)
        << to_string(qos_of(c));
    EXPECT_GE(s.rejected, 1u) << to_string(qos_of(c));
  }
}

}  // namespace
}  // namespace aid::serve
