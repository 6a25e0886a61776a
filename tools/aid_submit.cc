// aid_submit — submit named workloads to a running aid_node over the
// socket ingress and print one JSON object per job:
//
//   aid_submit --socket /tmp/aid.sock --workload CG --count 4096 --jobs 3
//   aid_submit --list
//
// Exit status is 0 iff every job came back COMPLETED(done); any reject,
// expiry, failure or transport error exits 1. Connect/usage errors exit 2.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"
#include "ingress/ingress_client.h"
#include "workloads/serve_kernel.h"
#include "workloads/workload.h"

namespace {

using namespace aid;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH --workload NAME [--count N] "
               "[--qos latency|normal|batch] [--deadline-ms N]\n"
               "       [--schedule SPEC] [--chunk N] [--jobs N] "
               "[--name TENANT]\n"
               "       %s --list\n",
               argv0, argv0);
  return 2;
}

/// `text` as an integer in [lo, hi], or nullopt after naming `flag` on
/// stderr: a typo must not reach the wire as 0, nor a huge deadline as a
/// wrapped negative one.
std::optional<i64> int_flag(std::string_view flag, const char* text, i64 lo,
                            i64 hi) {
  const std::optional<i64> v = env::parse_int(text);
  if (v && *v >= lo && *v <= hi) return v;
  std::fprintf(stderr, "aid_submit: bad %.*s '%s' (want an integer in "
               "[%lld, %lld])\n", static_cast<int>(flag.size()), flag.data(),
               text, static_cast<long long>(lo), static_cast<long long>(hi));
  return std::nullopt;
}

/// Minimal JSON string escaping for the few fields we echo back.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

int list_workloads() {
  std::printf("workload        servable\n");
  for (const std::string& name : workloads::workload_names()) {
    bool servable = false;
    for (const std::string& s : workloads::serve_kernel_names())
      if (name == s) servable = true;
    std::printf("%-15s %s\n", name.c_str(), servable ? "yes" : "-");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string tenant = "aid_submit";
  ingress::IngressClient::Request req;
  int jobs = 1;
  constexpr i64 kMaxI64 = std::numeric_limits<i64>::max();

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") return list_workloads();
    const char* v = next();
    if (v == nullptr) return usage(argv[0]);
    if (arg == "--socket") {
      socket_path = v;
    } else if (arg == "--workload") {
      req.workload = v;
    } else if (arg == "--count") {
      const auto n = int_flag(arg, v, 1, workloads::kMaxServeCount);
      if (!n) return 2;
      req.count = *n;
    } else if (arg == "--qos") {
      if (!serve::parse_qos(v, req.qos)) {
        std::fprintf(stderr, "aid_submit: unknown qos '%s'\n", v);
        return 2;
      }
    } else if (arg == "--deadline-ms") {
      const auto ms = int_flag(arg, v, 0, kMaxI64 / 1'000'000);
      if (!ms) return 2;
      req.deadline_ns = *ms * 1'000'000;
    } else if (arg == "--schedule") {
      const auto spec = sched::parse_schedule(v);
      if (!spec) {
        std::fprintf(stderr, "aid_submit: bad schedule '%s'\n", v);
        return 2;
      }
      req.sched = spec->kind;
      if (req.chunk == 0) req.chunk = spec->chunk;
    } else if (arg == "--chunk") {
      const auto n = int_flag(arg, v, 0, kMaxI64);
      if (!n) return 2;
      req.chunk = *n;
    } else if (arg == "--jobs") {
      const auto n = int_flag(arg, v, 1, std::numeric_limits<int>::max());
      if (!n) return 2;
      jobs = static_cast<int>(*n);
    } else if (arg == "--name") {
      tenant = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() || req.workload.empty()) return usage(argv[0]);

  std::string error;
  auto client = ingress::IngressClient::connect(socket_path, tenant, &error);
  if (!client) {
    std::fprintf(stderr, "aid_submit: %s\n", error.c_str());
    return 2;
  }

  using clock = std::chrono::steady_clock;
  bool all_done = true;
  for (int j = 0; j < jobs; ++j) {
    const auto t0 = clock::now();
    const u64 id = client->submit(req);
    ingress::IngressClient::Result r;
    if (id == 0) {
      r.transport_ok = false;
      r.message = client->last_error();
    } else {
      r = client->wait(id);
    }
    const i64 wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            clock::now() - t0)
                            .count();

    const char* status =
        r.transport_ok ? serve::to_string(r.status) : "transport-error";
    const bool done = r.transport_ok && r.status == serve::JobStatus::kDone;
    all_done = all_done && done;
    std::printf(
        "{\"job\":%d,\"req_id\":%llu,\"workload\":\"%s\",\"count\":%lld,"
        "\"status\":\"%s\",\"checksum\":%.17g,\"queue_wait_ns\":%lld,"
        "\"service_ns\":%lld,\"wall_ns\":%lld,\"message\":\"%s\"}\n",
        j, static_cast<unsigned long long>(id),
        json_escape(req.workload).c_str(), static_cast<long long>(req.count),
        status, r.checksum, static_cast<long long>(r.queue_wait_ns),
        static_cast<long long>(r.service_ns), static_cast<long long>(wall_ns),
        json_escape(r.message).c_str());
    std::fflush(stdout);
    if (!r.transport_ok) break;  // connection is gone; stop submitting
  }
  return all_done ? 0 : 1;
}
