// serve-mix: an open loop from one client thread over two socket
// connections into an in-process IngressServer + ServeNode on the
// emulated 2B+2S AMP.
//
// Latency class: Poisson arrivals (independent users) at 200 jobs/s of
// EP/CG/stencil2d/particlefilter at count 16384, the schedule rotating over
// the paper's five. Batch class: one job every 100 ms from a seeded phase
// (a periodic batch feeder) of blackscholes/spmv/histogram/streamcluster at
// count 2^16 under aid-hybrid. The node is busy about a fifth of the time,
// so a host that slows down 2-3x for a while still leaves most arrivals an
// idle node; at count 2^18 the batch jobs alone took a seventh, and on a
// slowed host they queued up. A Poisson batch stream queued them even on a
// steady host, hence the periodic feeder. Kernel picks and the schedule
// rotation cycle through seeded permutations, so every (schedule, kernel)
// pair gets the same share of the jobs and a seed changes only the order.
//
// The warmup starts by filling every credit window at once. Peak memory is
// then that of the most jobs the ingress admits together; left to the
// traffic, it was set by how many jobs the host's speed let pile up, and
// spread by 0.07-0.10 between runs.
//
// Latency is timed from each job's due time, so a stalled generator shows
// up as latency, and the generator's own lag is reported beside it. The
// open loop runs in 1-s segments of due times; between segments the
// generator waits for every job and times the reference (reference.h) of
// each latency-class kernel while the node is idle. The gated vs_ref.<s>
// divides each latency-class job's time by its kernel's reference and
// takes the 10th percentile: the jobs that found the node idle, whose time
// is the serving path itself. Queueing behind other jobs grows faster than
// linearly when the host slows, which no reference divides out, so the
// median and the tails are printed but not gated.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "e2e.h"
#include "ingress/ingress_client.h"
#include "ingress/ingress_server.h"
#include "platform/platform.h"
#include "reference.h"
#include "serve/serve_node.h"
#include "workloads/serve_kernel.h"

namespace aid::e2e {
namespace {

constexpr int kLatency = 0;
constexpr int kBatch = 1;
constexpr std::array<const char*, 2> kClassName = {"latency", "batch"};
constexpr std::array<double, 2> kRate = {200.0, 10.0};  // jobs/s
constexpr std::array<i64, 2> kCount = {16384, i64{1} << 16};
constexpr std::array<std::array<const char*, 4>, 2> kKernels = {{
    {"EP", "CG", "stencil2d", "particlefilter"},
    {"blackscholes", "spmv", "histogram", "streamcluster"},
}};
constexpr std::array<serve::QosClass, 2> kQos = {serve::QosClass::kLatency,
                                                 serve::QosClass::kBatch};
constexpr int kBatchSchedule = 3;  // aid-hybrid
constexpr u32 kCreditWindow = 16;
constexpr double kLatencyLimitMs = 50.0;
/// The percentile of latency-class jobs the gated vs_ref.<s> reports.
constexpr double kFastJobs = 0.10;
/// How long the generator waits for stragglers after a segment.
constexpr i64 kDrainNs = 10'000'000'000;
constexpr i64 kSegmentNs = 1'000'000'000;
/// Reference runs of each latency-class kernel after every segment.
constexpr int kRefRuns = 3;

struct Arrival {
  i64 due = 0;  ///< ns after the window start
  int cls = kLatency;
  int kernel = 0;
  int schedule = kBatchSchedule;
};

/// Cycles through seeded permutations of [0, n): balanced picks, seeded
/// order.
class Cycle {
 public:
  Cycle(int n, Rng rng) : rng_(rng) {
    for (int i = 0; i < n; ++i) perm_.push_back(i);
  }
  int next() {
    if (pos_ == 0) shuffle(perm_, rng_);
    const int v = perm_[pos_];
    pos_ = (pos_ + 1) % perm_.size();
    return v;
  }

 private:
  Rng rng_;
  std::vector<int> perm_;
  usize pos_ = 0;
};

/// Both classes' arrivals over [0, seconds), merged by due time.
std::vector<Arrival> arrivals(u64 seed, u64 salt, double seconds) {
  std::vector<Arrival> out;
  Cycle schedule(kNumSchedules, stream(seed, salt + 1));
  for (const int cls : {kLatency, kBatch}) {
    const double rate = kRate[static_cast<usize>(cls)];
    Rng gaps = stream(seed, salt + 2 + static_cast<u64>(cls));
    Cycle kernel(4, stream(seed, salt + 4 + static_cast<u64>(cls)));
    double t = cls == kLatency ? 0.0 : gaps.next_double() / rate;
    for (;;) {
      if (cls == kLatency) t += -std::log(1.0 - gaps.next_double()) / rate;
      if (t >= seconds) break;
      Arrival a;
      a.due = static_cast<i64>(t * 1e9);
      a.cls = cls;
      a.kernel = kernel.next();
      a.schedule = cls == kLatency ? schedule.next() : kBatchSchedule;
      out.push_back(a);
      if (cls == kBatch) t += 1.0 / rate;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Arrival& a, const Arrival& b) { return a.due < b.due; });
  return out;
}

/// Both connections' credit windows filled at once, all due at the start.
std::vector<Arrival> full_windows() {
  std::vector<Arrival> out;
  for (u32 i = 0; i < kCreditWindow; ++i)
    for (const int cls : {kLatency, kBatch}) {
      Arrival a;
      a.cls = cls;
      a.kernel = static_cast<int>(i % 4);
      a.schedule = cls == kLatency ? static_cast<int>(i % kNumSchedules)
                                   : kBatchSchedule;
      out.push_back(a);
    }
  return out;
}

const char* kernel_name(const Arrival& a) {
  return kKernels[static_cast<usize>(a.cls)][static_cast<usize>(a.kernel)];
}

struct Record {
  Arrival a;
  u64 req = 0;
  i64 due = 0;   ///< absolute
  i64 send = 0;  ///< try_submit call
  i64 sent = 0;  ///< try_submit return
  i64 recv = 0;  ///< COMPLETED taken by the client
  bool received = false;
  bool credit_wait = false;  ///< the connection had no credit at due time
  ingress::IngressClient::Result res;

  [[nodiscard]] double e2e_ms() const {
    return static_cast<double>(recv - due) / 1e6;
  }
};

/// Node, ingress and the client's two connections. Members are destroyed
/// in reverse: connections, then the server, then the node it borrows.
struct Stack {
  std::unique_ptr<serve::ServeNode> node;
  std::unique_ptr<ingress::IngressServer> server;
  std::array<std::optional<ingress::IngressClient>, 2> conn;
  /// Serial checksum per kernel name (serial_checksums), filled after the
  /// timed set-up.
  std::map<std::string, double> checksum;
};

Stack set_up(const std::string& socket_path) {
  Stack s;
  serve::ServeNode::Config cfg;
  cfg.emulate_amp = true;
  cfg.bind_threads = true;  // as for the loop workloads' Team (loops.cc)
  s.node = std::make_unique<serve::ServeNode>(platform::generic_amp(2, 2, 2.0),
                                              cfg);
  ingress::IngressServer::Config icfg;
  icfg.socket_path = socket_path;
  icfg.credit_window = kCreditWindow;
  s.server = std::make_unique<ingress::IngressServer>(*s.node, icfg);
  for (const int cls : {kLatency, kBatch}) {
    std::string error;
    auto& conn = s.conn[static_cast<usize>(cls)];
    conn = ingress::IngressClient::connect(socket_path,
                                           kClassName[static_cast<usize>(cls)],
                                           &error);
    if (!conn) throw std::runtime_error("connect: " + error);
  }
  return s;
}

/// The verification oracle, outside the timed set-up: the client builds
/// the kernels the server builds by name and runs each serially once. Slot
/// kernels' checksums are schedule-invariant bit for bit.
std::map<std::string, double> serial_checksums(double* build_ms) {
  std::vector<std::pair<std::string, workloads::ServeKernel>> built;
  const i64 t0 = now_ns();
  for (const int cls : {kLatency, kBatch}) {
    for (const char* name : kKernels[static_cast<usize>(cls)]) {
      std::string error;
      auto k = workloads::make_serve_kernel(name, kCount[static_cast<usize>(cls)],
                                            &error);
      if (!k) throw std::runtime_error(error);
      built.emplace_back(name, std::move(*k));
    }
  }
  *build_ms = static_cast<double>(now_ns() - t0) / 1e6;
  std::map<std::string, double> ref;
  for (auto& [name, k] : built) {
    k.body(0, k.count, rt::WorkerInfo{});
    ref[name] = k.checksum();
  }
  return ref;
}

/// What one open-loop window produced: every job's record, and kRefRuns
/// per segment of the reference times of each latency-class kernel.
struct Window {
  std::vector<Record> recs;
  std::vector<std::array<Reference::Times, 4>> refs;

  /// Per latency-class kernel: the median over the window of its reference
  /// time under `kind`.
  [[nodiscard]] std::array<double, 4> ref_ns(RefKind kind) const {
    std::array<double, 4> out{};
    for (usize k = 0; k < out.size(); ++k) {
      std::vector<double> v;
      for (const auto& seg : refs) v.push_back(seg[k].of(kind));
      out[k] = median(std::move(v));
    }
    return out;
  }

  /// Latency-class jobs under schedule `s`: each one's end-to-end time ÷
  /// the reference time of its kernel under s's policy.
  [[nodiscard]] std::vector<double> vs_ref(usize s) const {
    const std::array<double, 4> ref = ref_ns(schedules()[s].ref);
    std::vector<double> v;
    for (const Record& r : recs)
      if (r.received && r.a.cls == kLatency &&
          r.a.schedule == static_cast<int>(s))
        v.push_back(static_cast<double>(r.recv - r.due) /
                    ref[static_cast<usize>(r.a.kernel)]);
    return v;
  }
};

/// Drive `arr` open-loop, segment by segment: submit each job at its due
/// time, harvest completions between arrivals, drain, time the references,
/// call `after_segment`. Every record ends received, or counted as a failed
/// operation.
Window drive(Stack& s, Reference& ref, const std::vector<Arrival>& arr,
             const std::function<void()>& after_segment, Result& result) {
  Window w;
  std::vector<Record>& recs = w.recs;
  recs.resize(arr.size());
  std::array<std::vector<usize>, 2> outstanding;
  const auto harvest = [&] {
    for (usize c = 0; c < 2; ++c) {
      std::vector<usize>& out = outstanding[c];
      for (usize i = 0; i < out.size();) {
        Record& r = recs[out[i]];
        auto got = s.conn[c]->try_take(r.req);
        if (!got) {
          ++i;
          continue;
        }
        r.recv = now_ns();
        r.received = true;
        r.res = std::move(*got);
        out[i] = out.back();
        out.pop_back();
      }
    }
  };
  const auto idle = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  const auto drain = [&] {
    const i64 give_up = now_ns() + kDrainNs;
    while ((!outstanding[0].empty() || !outstanding[1].empty()) &&
           now_ns() < give_up) {
      harvest();
      idle();
    }
  };
  // After a segment: every job is back and the node's workers sleep, so
  // the reference threads have the cores to themselves. The server builds
  // a fresh kernel for every job; so does the reference, so that no one
  // allocation's cache placement sets a whole run's reference.
  const auto time_references = [&] {
    drain();
    for (int run = 0; run < kRefRuns; ++run) {
      std::array<Reference::Times, 4> t;
      for (usize k = 0; k < t.size(); ++k) {
        std::string error;
        const auto fresh = workloads::make_serve_kernel(
            kKernels[kLatency][k], kCount[kLatency], &error);
        if (!fresh) throw std::runtime_error(error);
        t[k] = ref.run({&*fresh});
      }
      w.refs.push_back(t);
    }
    after_segment();
  };

  i64 segments = 0;
  i64 start = now_ns();  // of the current segment, minus its offset
  for (usize i = 0; i < arr.size(); ++i) {
    Record& r = recs[i];
    r.a = arr[i];
    while (r.a.due >= (segments + 1) * kSegmentNs) {
      time_references();
      ++segments;
      start = now_ns() - segments * kSegmentNs;
    }
    r.due = start + r.a.due;
    for (;;) {
      harvest();
      const i64 left = r.due - now_ns();
      if (left <= 0) break;
      if (left > 100'000) idle();
    }
    const usize c = static_cast<usize>(r.a.cls);
    ingress::IngressClient::Request req;
    req.workload = kernel_name(r.a);
    req.count = kCount[c];
    req.qos = kQos[c];
    const sched::ScheduleSpec& spec =
        schedules()[static_cast<usize>(r.a.schedule)].spec;
    req.sched = spec.kind;
    req.chunk = spec.chunk;
    // Out of credit, a client waits for a completion to return one (the
    // IngressClient::submit contract): a stall shows as generator lag and
    // latency, not as a refused job.
    ingress::IngressClient& conn = *s.conn[c];
    const i64 give_up = now_ns() + kDrainNs;
    r.credit_wait = conn.credits() == 0;
    while (conn.credits() == 0 && conn.ok() && now_ns() < give_up) {
      harvest();
      idle();
    }
    r.send = now_ns();
    const bool ok = conn.try_submit(req, &r.req);
    r.sent = now_ns();
    if (ok) outstanding[c].push_back(i);
  }
  time_references();

  for (Record& r : recs) {
    const usize c = static_cast<usize>(r.a.cls);
    const std::string what =
        std::string(kernel_name(r.a)) + " (" + kClassName[c] + ")";
    if (r.req == 0) {
      result.attempt(false, what + ": not submitted (no credit or transport)");
    } else if (!r.received) {
      result.attempt(false, what + ": no terminal frame");
    } else if (!r.res.transport_ok || r.res.status != serve::JobStatus::kDone) {
      result.attempt(false, what + ": " + serve::to_string(r.res.status) +
                                " " + r.res.message);
    } else {
      const double want = s.checksum.at(kernel_name(r.a));
      result.attempt(r.res.checksum == want,
                     what + ": checksum " + std::to_string(r.res.checksum) +
                         " != serial " + std::to_string(want));
      // Exactly once: a second take of a delivered request finds nothing.
      if (s.conn[c]->try_take(r.req))
        result.fail(what + ": request delivered twice");
    }
  }
  return w;
}

/// f(r) over the received records of class `cls`, optionally only those
/// run under `schedule`.
template <typename F>
std::vector<double> collect(const std::vector<Record>& recs, int cls, F&& f,
                            int schedule = -1) {
  std::vector<double> v;
  for (const Record& r : recs)
    if (r.received && r.a.cls == cls &&
        (schedule < 0 || r.a.schedule == schedule))
      v.push_back(f(r));
  return v;
}

double ns_ms(i64 ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

void run_serve_mix(const Options& opts, Result& result) {
  // The generator sleeps between arrivals; a tight timer slack keeps its
  // wake-ups (and so send and receipt stamps) within tens of µs.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const std::string socket_path =
      opts.out_dir + "/aidbench-" + std::to_string(::getpid()) + ".sock";

  SetupTimes setups;
  Stack stack = setups.first([&] { return set_up(socket_path); });
  // Between segments, while the node idles: a second stack beside it.
  const auto set_up_again = [&] {
    setups.in_window([&] { return set_up(socket_path + ".2"); });
  };
  double build_ms = 0.0;
  stack.checksum = serial_checksums(&build_ms);

  // The node's pool covers the platform's cores, big first as in the
  // loop workloads' Team; the reference threads take the same cores.
  const platform::TeamLayout cores(platform::generic_amp(2, 2, 2.0), 4,
                                   platform::Mapping::kBigFirst);
  Reference ref(cores, /*emulate=*/true);

  // Warmup: full credit windows, then the same traffic as the window.
  // Every job is verified, nothing recorded.
  (void)drive(stack, ref, full_windows(), [] {}, result);
  (void)drive(stack, ref, arrivals(opts.seed, 100, opts.warmup), [] {},
              result);

  // One window either way: every record already carries the stamps the
  // per-layer split needs, so a traced run adds no stamping of its own.
  const Window window = drive(stack, ref, arrivals(opts.seed, 0, opts.seconds),
                              set_up_again, result);
  const std::vector<Record>& recs = window.recs;

  const auto e2e = [](const Record& r) { return r.e2e_ms(); };
  if (!opts.trace) {
    result.value("setup_s", "s", setups.median_s());
    result.value("peak_rss_mb", "MB", peak_rss_mb());
    for (usize s = 0; s < kNumSchedules; ++s) {
      const std::string n = schedules()[s].name;
      result.ratio("vs_ref." + n, "x", window.vs_ref(s), kFastJobs);
      const std::vector<double> ms =
          collect(recs, kLatency, e2e, static_cast<int>(s));
      result.timing("job_ms." + n, "ms", ms);
      if (s != 0)
        result.value("vs_static." + n, "x",
                     median(ms) / median(collect(recs, kLatency, e2e, 0)));
    }
    const std::vector<double> lat = collect(recs, kLatency, e2e);
    result.timing("lat_ms.latency", "ms", lat);
    result.timing("lat_ms.batch", "ms", collect(recs, kBatch, e2e));
    const Summary l = summarize(lat);
    result.value("lat_p99_within_50ms", "bool",
                 l.tail_pct == 99 && l.tail <= kLatencyLimitMs ? 1.0 : 0.0);
    return;
  }

  // Per-layer: the per-request stamps plus the node's and the ingress' own
  // counters, and the records as JSON lines.
  std::ofstream out(opts.out_dir + "/trace-serve-mix-" +
                    std::to_string(opts.seed) + ".jsonl");
  for (const Record& r : recs) {
    out << "{\"request\": " << r.req << ", \"class\": \""
        << kClassName[static_cast<usize>(r.a.cls)] << "\", \"kernel\": \""
        << kernel_name(r.a) << "\", \"schedule\": \""
        << schedules()[static_cast<usize>(r.a.schedule)].name
        << "\", \"due_ns\": " << r.due << ", \"send_ns\": " << r.send
        << ", \"sent_ns\": " << r.sent << ", \"recv_ns\": " << r.recv
        << ", \"queue_wait_ns\": " << r.res.queue_wait_ns
        << ", \"service_ns\": " << r.res.service_ns << ", \"status\": \""
        << serve::to_string(r.res.status) << "\"}\n";
  }

  // The end-to-end split: lag + ingress + queue wait + service. Only the
  // ingress part is a difference, and it must not go negative.
  const auto ingress_ns = [](const Record& r) {
    return (r.recv - r.send) - r.res.queue_wait_ns - r.res.service_ns;
  };
  for (const Record& r : recs)
    if (r.received && (ingress_ns(r) < 0 || r.send < r.due))
      result.fail("request " + std::to_string(r.req) +
                  ": negative part in the end-to-end split");

  serve::ServeNode& node = *stack.node;
  const serve::ClassStats lat = node.class_stats(serve::QosClass::kLatency);
  const serve::ClassStats bat = node.class_stats(serve::QosClass::kBatch);
  const ingress::IngressServer::Stats is = stack.server->stats();
  std::vector<double> lag_ms;
  std::vector<double> submit_us;
  for (const Record& r : recs) {
    lag_ms.push_back(ns_ms(r.send - r.due));
    submit_us.push_back(static_cast<double>(r.sent - r.send) / 1e3);
  }

  result.layer("workloads.build_ms", "ms", build_ms);
  result.layer("pool.lease_reuse_share", "share",
               static_cast<double>(lat.lease_reused + bat.lease_reused) /
                   static_cast<double>(
                       std::max<u64>(1, lat.dispatched + bat.dispatched)));
  result.layer("pool.spawned_workers", "count", node.pool().spawned_workers());
  // The end-to-end split as shares of each job's time from its due time.
  const auto share = [](i64 part, const Record& r) {
    return static_cast<double>(part) / static_cast<double>(r.recv - r.due);
  };
  for (const int cls : {kLatency, kBatch}) {
    const std::string c = kClassName[static_cast<usize>(cls)];
    result.layer("serve.queue_share." + c, "share",
                 median(collect(recs, cls, [&](const Record& r) {
                   return share(r.res.queue_wait_ns, r);
                 })));
    result.layer("serve.service_share." + c, "share",
                 median(collect(recs, cls, [&](const Record& r) {
                   return share(r.res.service_ns, r);
                 })));
  }
  result.layer("ingress.overhead_share.latency", "share",
               median(collect(recs, kLatency, [&](const Record& r) {
                 return share(ingress_ns(r), r);
               })));
  // Times, for the table: host speed moves them between runs.
  for (const int cls : {kLatency, kBatch}) {
    const std::string c = kClassName[static_cast<usize>(cls)];
    result.layer("serve.queue_wait_ms." + c, "ms",
                 median(collect(recs, cls, [](const Record& r) {
                   return ns_ms(r.res.queue_wait_ns);
                 })));
    result.layer("serve.service_ms." + c, "ms",
                 median(collect(recs, cls, [](const Record& r) {
                   return ns_ms(r.res.service_ns);
                 })));
  }
  result.layer("serve.rejected", "count",
               static_cast<double>(lat.rejected + bat.rejected));
  result.layer("serve.expired", "count",
               static_cast<double>(lat.expired_in_queue + lat.expired_running +
                                   bat.expired_in_queue + bat.expired_running));
  result.layer("ingress.overhead_ms.latency", "ms",
               median(collect(recs, kLatency, [&](const Record& r) {
                 return ns_ms(ingress_ns(r));
               })));
  result.layer("ingress.submit_us", "us", median(submit_us));
  result.layer("ingress.max_inflight", "count",
               static_cast<double>(is.max_inflight));
  result.layer("ingress.no_credit_rejects", "count",
               static_cast<double>(is.no_credit_rejects));
  result.layer("ingress.protocol_errors", "count",
               static_cast<double>(is.protocol_errors));
  result.layer("loadgen.lag_p99_ms", "ms", percentile(lag_ms, 0.99));
  result.layer("loadgen.credit_waits", "count",
               static_cast<double>(std::count_if(
                   recs.begin(), recs.end(),
                   [](const Record& r) { return r.credit_wait; })));
  // No stamping beyond the untraced run's, so no overhead to measure.
  result.layer("trace_overhead", "share", 0.0);
}

}  // namespace aid::e2e
