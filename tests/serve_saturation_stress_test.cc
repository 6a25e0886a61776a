// Serving-tier stress: many concurrent clients, policy churn, and the
// exactly-once-or-cancelled contract.
//
// 1. Sixteen clients submit mixed-class jobs (some with tight deadlines,
//    some cancelled right after submit, mixed reject/block backpressure)
//    while a churn thread flips the pool's arbitration policy a few
//    hundred times. Every ticket must resolve; a kDone job must have run
//    every iteration exactly once; NO job may ever run an iteration
//    twice; and the per-class stats must satisfy their closed-form
//    invariants after drain.
// 2. A batch tenant floods a tiny batch queue while latency clients keep
//    submitting modest work: the flood must be absorbed as rejections
//    (backpressure), and every latency job must still complete.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "platform/platform.h"
#include "serve/serve_node.h"

namespace aid::serve {
namespace {

using sched::ScheduleSpec;

constexpr int kClients = 16;
constexpr int kJobsPerClient = 25;

struct JobProbe {
  std::atomic<i64> hits{0};
  i64 count = 0;
  JobTicket ticket;
};

TEST(ServeSaturationStress, ClientsChurningPoliciesExactlyOnceOrCancelled) {
  ServeNode::Config cfg;
  for (auto& cls : cfg.cls) cls.max_queue = 64;
  ServeNode node(platform::generic_amp(2, 2, 2.0), cfg);

  std::vector<JobProbe> probes(kClients * kJobsPerClient);
  std::atomic<bool> churning{true};
  std::thread churn([&] {
    const pool::Policy policies[] = {pool::Policy::kEqualShare,
                                     pool::Policy::kBigCorePriority,
                                     pool::Policy::kProportional};
    int i = 0;
    while (churning.load(std::memory_order_relaxed)) {
      node.set_policy(policies[i++ % 3]);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int j = 0; j < kJobsPerClient; ++j) {
        const int slot = c * kJobsPerClient + j;
        JobProbe& probe = probes[static_cast<usize>(slot)];
        JobSpec spec;
        spec.qos = qos_of(slot % kNumQosClasses);
        spec.sched = ScheduleSpec::dynamic(8);
        if (slot % 8 == 3) {
          // A job too slow for its deadline: expires queued or mid-run.
          spec.count = 64;
          spec.sched = ScheduleSpec::dynamic(1);
          spec.deadline_ns = 2'000'000;  // 2 ms
          spec.body = [&probe](i64 b, i64 e, const rt::WorkerInfo&) {
            probe.hits.fetch_add(e - b, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          };
        } else {
          spec.count = 128;
          spec.body = [&probe](i64 b, i64 e, const rt::WorkerInfo&) {
            probe.hits.fetch_add(e - b, std::memory_order_relaxed);
          };
        }
        probe.count = spec.count;
        SubmitOptions opts;
        if (c % 2 == 0) {
          opts.on_full = SubmitOptions::OnFull::kBlock;
          opts.block_timeout_ns = 2'000'000'000;
        }
        probe.ticket = node.submit(std::move(spec), opts);
        if (slot % 7 == 5) probe.ticket.cancel();
      }
    });
  }
  for (auto& t : clients) t.join();

  u64 done = 0;
  u64 not_done = 0;
  for (JobProbe& probe : probes) {
    const JobResult& r = probe.ticket.wait();
    const i64 hits = probe.hits.load();
    ASSERT_LE(hits, probe.count) << "an iteration ran twice";
    switch (r.status) {
      case JobStatus::kDone:
        EXPECT_EQ(hits, probe.count) << "kDone job missing iterations";
        ++done;
        break;
      case JobStatus::kRejected:
      case JobStatus::kExpired:
      case JobStatus::kCancelled:
        if (r.never_dispatched) {
          EXPECT_EQ(hits, 0) << "undispatched job ran a body";
        }
        ++not_done;
        break;
      case JobStatus::kPending:
      case JobStatus::kFailed:
        FAIL() << "unexpected status " << to_string(r.status);
    }
  }
  churning.store(false);
  churn.join();
  node.drain();
  EXPECT_GT(done, 0u);
  EXPECT_EQ(done + not_done,
            static_cast<u64>(kClients) * kJobsPerClient);

  for (int c = 0; c < kNumQosClasses; ++c) {
    const ClassStats s = node.class_stats(qos_of(c));
    EXPECT_EQ(s.submitted, s.admitted + s.rejected) << to_string(qos_of(c));
    EXPECT_EQ(s.admitted,
              s.expired_in_queue + s.cancelled_in_queue + s.dispatched)
        << to_string(qos_of(c));
    EXPECT_EQ(s.dispatched, s.completed + s.failed + s.expired_running +
                                s.cancelled_running)
        << to_string(qos_of(c));
    EXPECT_EQ(s.failed, 0u) << to_string(qos_of(c));
  }
}

TEST(ServeSaturationStress, BatchFloodIsAbsorbedAndLatencySurvives) {
  ServeNode::Config cfg;
  cfg.cls[static_cast<usize>(index_of(QosClass::kBatch))].max_queue = 4;
  ServeNode node(platform::generic_amp(2, 2, 2.0), cfg);

  std::atomic<bool> flooding{true};
  std::atomic<i64> batch_sink{0};
  std::thread flooder([&] {
    // Open-loop flood far beyond the batch queue's depth: most submits
    // must bounce off admission as "queue full" — and that is the point.
    std::vector<JobTicket> tickets;
    for (int i = 0; i < 400 && flooding.load(std::memory_order_relaxed);
         ++i) {
      JobSpec spec;
      spec.qos = QosClass::kBatch;
      spec.count = 64;
      spec.body = [&batch_sink](i64 b, i64 e, const rt::WorkerInfo&) {
        batch_sink.fetch_add(e - b, std::memory_order_relaxed);
      };
      tickets.push_back(node.submit(std::move(spec)));
    }
    for (auto& t : tickets) (void)t.wait();
  });

  // Co-tenant: latency clients with modest load and patient backpressure.
  constexpr int kLatClients = 4;
  constexpr int kLatJobs = 20;
  std::array<std::atomic<i64>, kLatClients> hits{};
  std::vector<std::thread> clients;
  for (int c = 0; c < kLatClients; ++c) {
    clients.emplace_back([&, c] {
      SubmitOptions opts;
      opts.on_full = SubmitOptions::OnFull::kBlock;
      opts.block_timeout_ns = 5'000'000'000;
      for (int j = 0; j < kLatJobs; ++j) {
        JobSpec spec;
        spec.qos = QosClass::kLatency;
        spec.count = 256;
        spec.sched = ScheduleSpec::dynamic(16);
        spec.body = [&hits, c](i64 b, i64 e, const rt::WorkerInfo&) {
          hits[static_cast<usize>(c)].fetch_add(e - b,
                                                std::memory_order_relaxed);
        };
        auto ticket = node.submit(std::move(spec), opts);
        // Closed-loop latency client: every single job must complete.
        ASSERT_EQ(ticket.wait().status, JobStatus::kDone)
            << "latency job starved by the batch flood";
      }
    });
  }
  for (auto& t : clients) t.join();
  flooding.store(false);
  flooder.join();
  node.drain();

  for (int c = 0; c < kLatClients; ++c)
    EXPECT_EQ(hits[static_cast<usize>(c)].load(), 256 * kLatJobs);
  const ClassStats lat = node.class_stats(QosClass::kLatency);
  EXPECT_EQ(lat.completed, static_cast<u64>(kLatClients) * kLatJobs);
  EXPECT_EQ(lat.rejected, 0u);
  const ClassStats bat = node.class_stats(QosClass::kBatch);
  EXPECT_GT(bat.rejected, 0u) << "the flood never hit backpressure";
  EXPECT_EQ(bat.admitted,
            bat.expired_in_queue + bat.cancelled_in_queue + bat.dispatched);
}

}  // namespace
}  // namespace aid::serve
