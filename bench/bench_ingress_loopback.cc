// Ingress loopback overhead: the same jobs submitted (a) directly
// through ServeNode::submit and (b) through the full socket wire path —
// encode, Unix socket, IngressServer event loop, completion hook,
// decode — both on the SAME node in the SAME process. The two legs are
// interleaved run by run so machine noise hits them alike, and the
// overhead family is percentiles of the PER-RUN PAIRED DIFFERENCES
// (socket_ns[i] - direct_ns[i]) — differencing each leg's percentiles
// would subtract unrelated runs and can even invert the tail order.
// BENCH_ingress_loopback.json records all series so bench_diff tracks
// the trajectory.
//
//   AID_BENCH_RUNS  — round-trips per configuration (default 5; CI uses
//                     more for stable tails)
//   AID_BENCH_SCALE — trip-count scale
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ingress/ingress_client.h"
#include "ingress/ingress_server.h"
#include "platform/platform.h"
#include "serve/serve_node.h"
#include "workloads/serve_kernel.h"

namespace {

using namespace aid;
using clock_type = std::chrono::steady_clock;

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock_type::now().time_since_epoch())
          .count());
}

/// One timed round-trip through an IngressClient; returns false (with a
/// message on stderr) when the trip did not end COMPLETED(done).
bool wire_trip(ingress::IngressClient& client, i64 count, double* out_ns) {
  ingress::IngressClient::Request req;
  req.workload = "EP";
  req.count = count;
  req.sched = sched::ScheduleKind::kStatic;
  const double t0 = now_ns();
  const u64 id = client.submit(req);
  if (id == 0) {
    std::fprintf(stderr, "submit: %s\n", client.last_error().c_str());
    return false;
  }
  const ingress::IngressClient::Result res = client.wait(id);
  const double t1 = now_ns();
  if (!res.transport_ok || res.status != serve::JobStatus::kDone) {
    std::fprintf(stderr, "wire submit failed: %s\n", res.message.c_str());
    return false;
  }
  *out_ns = t1 - t0;
  return true;
}

/// Element-wise paired differences wire[i] - direct[i].
std::vector<double> paired_diff(const std::vector<double>& wire,
                                const std::vector<double>& direct) {
  std::vector<double> d(wire.size());
  for (usize i = 0; i < wire.size(); ++i) d[i] = wire[i] - direct[i];
  return d;
}

void print_row(const std::string& config, const char* path,
               const bench::SampleSummary& s) {
  std::printf("%-28s %10s %10.1f %10.1f %10.1f\n", config.c_str(), path,
              s.median / 1e3, s.p95 / 1e3, s.p99 / 1e3);
}

}  // namespace

int main() {
  const platform::Platform platform = platform::symmetric(
      std::max(2u, std::thread::hardware_concurrency()));
  bench::print_header(
      "Ingress loopback overhead (socket vs direct submit)",
      platform);

  serve::ServeNode::Config node_cfg;
  node_cfg.bind_threads = true;  // as serve-mix binds its node (bench/e2e)
  serve::ServeNode node(platform, node_cfg);

  ingress::IngressServer::Config icfg;
  icfg.socket_path =
      "/tmp/aid_bench_loopback_" + std::to_string(::getpid()) + ".sock";
  icfg.credit_window = 8;
  ingress::IngressServer server(node, icfg);

  std::string error;
  auto socket_client = ingress::IngressClient::connect(
      icfg.socket_path, "bench-socket", &error);
  if (!socket_client) {
    std::fprintf(stderr, "connect: %s\n", error.c_str());
    return 1;
  }

  const auto params = bench::params_for(platform);
  const int warmup = 3;
  const int runs = std::max(5, params.runs * 8);  // tails need samples

  bench::BenchJsonWriter json("ingress_loopback");
  std::printf("%-28s %10s %10s %10s %10s\n", "config", "path", "p50_us",
              "p95_us", "p99_us");

  for (const i64 base_count : {i64{1} << 10, i64{1} << 16}) {
    const i64 count = std::max<i64>(
        1, static_cast<i64>(static_cast<double>(base_count) * params.scale));
    const std::string config =
        "workload=EP/count=" + std::to_string(count);
    std::vector<double> direct_ns;
    std::vector<double> socket_ns;

    // Interleave the two paths so machine noise hits both alike.
    for (int r = -warmup; r < runs; ++r) {
      {
        // The direct leg does the same work a SUBMIT frame triggers —
        // validation, and the kernel build on the dispatcher — so the
        // delta isolates the wire: encode, transport hop, event loop,
        // completion hook, checksum, decode.
        const double t0 = now_ns();
        std::string kerr;
        if (!workloads::validate_serve_kernel("EP", count, &kerr)) {
          std::fprintf(stderr, "kernel: %s\n", kerr.c_str());
          return 1;
        }
        serve::JobSpec spec;
        spec.count = count;
        spec.make_body = workloads::serve_kernel_builder(
            "EP", count, std::make_shared<std::function<double()>>());
        // Same schedule on both legs — the delta must be the wire, not a
        // static-vs-dynamic chunking difference.
        spec.sched = sched::ScheduleSpec::static_even();
        serve::JobTicket t = node.submit(std::move(spec));
        const serve::JobResult& jr = t.wait();
        const double t1 = now_ns();
        if (jr.status != serve::JobStatus::kDone) {
          std::fprintf(stderr, "direct submit: %s\n", to_string(jr.status));
          return 1;
        }
        if (r >= 0) direct_ns.push_back(t1 - t0);
      }
      {
        double ns = 0.0;
        if (!wire_trip(*socket_client, count, &ns)) return 1;
        if (r >= 0) socket_ns.push_back(ns);
      }
    }

    const bench::SampleSummary direct = bench::summarize(direct_ns);
    const bench::SampleSummary socket = bench::summarize(socket_ns);
    json.add(config, "direct_roundtrip_ns", direct);
    json.add(config, "socket_roundtrip_ns", socket);
    // The headline number: percentiles of the per-run paired difference
    // against the interleaved direct leg. (NOT the difference of each
    // leg's percentiles — the runs backing socket.p99 and direct.p99 are
    // unrelated, and subtracting them produced impossible tails like
    // p99 < p95 and negative medians in earlier snapshots.)
    const bench::SampleSummary socket_over =
        bench::summarize(paired_diff(socket_ns, direct_ns));
    json.add(config, "ingress_overhead_ns", socket_over);

    print_row(config, "direct", direct);
    print_row(config, "socket", socket);
    print_row(config, "sock-over", socket_over);
    std::printf("\n");
  }

  std::printf("wrote BENCH_ingress_loopback.json\n");
  return 0;
}
