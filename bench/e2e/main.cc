// aidbench — one workload of the end-to-end benchmark per process.
//
//   aidbench --workload amp-loops|sym-loops|fine-chains|serve-mix
//            --seed N [--seconds S] [--warmup W] [--trace 0|1]
//            [--out-dir DIR]
//
// Prints one JSON line: correctness, attempted/failed operations, every
// metric with its unit and summary, and the host snapshot. Exit status is
// 0 only when every output checked out. bench/e2e/run.py builds and drives
// this binary; see bench/e2e/README.md for the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "common/spin_work.h"
#include "e2e.h"
#include "harness/sysinfo.h"

extern char** environ;

namespace aid::e2e {

const std::array<NamedSchedule, kNumSchedules>& schedules() {
  static const std::array<NamedSchedule, kNumSchedules> kAll = {{
      {"static", sched::ScheduleSpec::static_even(), RefKind::kEqual},
      {"dynamic", sched::ScheduleSpec::dynamic(1), RefKind::kDynamic},
      {"aid-static", sched::ScheduleSpec::aid_static(1), RefKind::kBalanced},
      {"aid-hybrid", sched::ScheduleSpec::aid_hybrid(1, 80.0),
       RefKind::kBalanced},
      {"aid-dynamic", sched::ScheduleSpec::aid_dynamic(1, 5),
       RefKind::kDynamic},
  }};
  return kAll;
}

namespace {

double percentile_sorted(const std::vector<double>& s, double q) {
  if (s.empty()) return 0.0;
  const double pos = q * static_cast<double>(s.size() - 1);
  const usize lo = static_cast<usize>(pos);
  const usize hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Summary summarize(std::vector<double> samples) {
  Summary out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.value = percentile_sorted(samples, 0.5);
  out.tail = out.value;
  for (const int pct : {99, 95, 90, 75}) {
    const double beyond =
        static_cast<double>(samples.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0) {
      out.tail_pct = pct;
      out.tail = percentile_sorted(samples, pct / 100.0);
      break;
    }
  }
  return out;
}

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

void Result::timing(const std::string& name, const char* unit,
                    std::vector<double> samples) {
  if (samples.empty()) fail("no samples for " + name);
  e2e_.push_back({name, unit, summarize(std::move(samples)), true, true});
}

void Result::ratio(const std::string& name, const char* unit,
                   std::vector<double> samples, double q) {
  if (samples.empty()) fail("no samples for " + name);
  Summary s;
  s.n = samples.size();
  s.value = s.tail = percentile(std::move(samples), q);
  e2e_.push_back({name, unit, s, false, true});
}

void Result::value(const std::string& name, const char* unit, double v) {
  Summary s;
  s.value = s.tail = v;
  s.n = 1;
  e2e_.push_back({name, unit, s, false, false});
}

void Result::layer(const std::string& name, const char* unit, double v) {
  Summary s;
  s.value = s.tail = v;
  s.n = 1;
  layer_.push_back({name, unit, s, false, false});
}

void Result::attempt(bool ok, const std::string& what_failed) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what_failed);
}

void Result::fail(const std::string& why) {
  broken_ = true;
  if (failures_.size() < 8) failures_.push_back(why);
}

std::string Result::json(const Options& opts,
                         const std::string& sysinfo) const {
  std::ostringstream o;
  const auto metrics = [&o](const std::vector<Metric>& ms) {
    o << '{';
    for (usize i = 0; i < ms.size(); ++i) {
      const Metric& m = ms[i];
      o << (i == 0 ? "" : ", ") << '"' << json_escape(m.name)
        << "\": {\"value\": " << num(m.s.value) << ", \"unit\": \""
        << json_escape(m.unit) << '"';
      if (m.tail)
        o << ", \"tail\": " << num(m.s.tail) << ", \"tail_pct\": " << m.s.tail_pct;
      if (m.n) o << ", \"n\": " << m.s.n;
      o << '}';
    }
    o << '}';
  };
  o << "{\"workload\": \"" << json_escape(opts.workload)
    << "\", \"seed\": " << opts.seed << ", \"seconds\": " << num(opts.seconds)
    << ", \"trace\": " << (opts.trace ? 1 : 0)
    << ", \"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
    << ", \"failures\": [";
  for (usize i = 0; i < failures_.size(); ++i)
    o << (i == 0 ? "" : ", ") << '"' << json_escape(failures_[i]) << '"';
  o << "], \"e2e\": ";
  metrics(e2e_);
  o << ", \"layer\": ";
  metrics(layer_);
  o << ", \"sysinfo\": " << sysinfo << '}';
  return o.str();
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace aid::e2e

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "aidbench: %s\nusage: aidbench --workload W --seed N "
               "[--seconds S] [--warmup W] [--trace 0|1] "
               "[--out-dir DIR]\n",
               why);
  std::exit(2);
}

double parse_double(const char* s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < 0.0) usage(what);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aid::e2e;
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") {
      opts.workload = v;
    } else if (arg == "--seed") {
      char* end = nullptr;
      opts.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = parse_double(v, "bad --seconds");
    } else if (arg == "--warmup") {
      opts.warmup = parse_double(v, "bad --warmup");
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--out-dir") {
      opts.out_dir = v;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");

  // Isolation: runtime knobs change what a number means, and the host must
  // hold the 4 team threads (or the node's 4-core pool) without sharing.
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "AID_", 4) == 0) {
      std::fprintf(stderr, "aidbench: refusing to run with %s set\n", *e);
      return 2;
    }
  const aid::harness::SysInfo info = aid::harness::collect_sysinfo();
  if (info.nproc < 4 || std::thread::hardware_concurrency() < 4) {
    std::fprintf(stderr, "aidbench: needs >= 4 CPUs, host has %d\n",
                 info.nproc);
    return 2;
  }

  // The small-core emulation spins for a calibrated count of work units;
  // calibrate now, before any worker thread runs, so every run emulates
  // the same 2x speed ratio instead of one skewed by start-up contention.
  (void)aid::spin_units_per_second();

  Result result;
  try {
    if (opts.workload == "serve-mix") {
      run_serve_mix(opts, result);
    } else if (opts.workload == "amp-loops" || opts.workload == "sym-loops" ||
               opts.workload == "fine-chains") {
      run_loop_workload(opts, result);
    } else {
      usage(("unknown workload '" + opts.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  std::printf("%s\n",
              result.json(opts, aid::harness::sysinfo_json(info)).c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
