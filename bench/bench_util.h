// Shared setup for the figure/table bench binaries.
//
// Every binary regenerates one table or figure from the paper and prints
// the same rows/series. Scale and repetitions can be tuned via:
//   AID_BENCH_SCALE — trip-count scale (default 1.0; smaller = faster)
//   AID_BENCH_RUNS  — repetitions per measurement (default 5, paper value)
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.h"
#include "harness/experiment.h"
#include "harness/figure_printer.h"
#include "harness/sysinfo.h"
#include "workloads/workload.h"

namespace aid::bench {

inline harness::ExperimentParams params_for(
    const platform::Platform& platform) {
  harness::ExperimentParams params;
  params.overhead = harness::overhead_for(platform);
  params.scale = env::get_double("AID_BENCH_SCALE", 1.0);
  params.runs = static_cast<int>(env::get_int("AID_BENCH_RUNS", 5));
  return params;
}

/// The paper's 21 benchmarks only: the figure/table reproduction drivers
/// must keep matching the paper even as the registry grows (the DataPar
/// suite is timed end to end by bench/e2e, not by the figure benches).
inline std::vector<const workloads::Workload*> all_apps() {
  std::vector<const workloads::Workload*> apps;
  for (const auto& w : workloads::all_workloads())
    if (w.suite() == "NPB" || w.suite() == "PARSEC" || w.suite() == "Rodinia")
      apps.push_back(&w);
  return apps;
}

inline std::vector<const workloads::Workload*> apps_by_name(
    const std::vector<std::string>& names) {
  std::vector<const workloads::Workload*> apps;
  for (const auto& n : names) {
    std::string error;
    const auto* w = workloads::find_workload_or_error(n, &error);
    if (w == nullptr) {
      // A bench naming a missing workload is a programming error, but die
      // with the registry listing instead of a bare assert.
      std::cerr << "bench: " << error << '\n';
      std::abort();
    }
    apps.push_back(w);
  }
  return apps;
}

inline void print_header(const std::string& what,
                         const platform::Platform& platform) {
  std::cout << "=====================================================\n"
            << what << '\n'
            << platform.describe()
            << "=====================================================\n\n";
}

// --- machine-readable results (perf-trajectory tracking) -------------------
//
// Benches append {config, metric, median, p95, runs} records to a
// BenchJsonWriter which serializes them as BENCH_<name>.json (an array of
// objects, one per measured configuration, preceded by one snapshot record
// carrying the host/environment provenance — see harness/sysinfo.h).
// bench_diff.py keys baselines by the snapshot's host_id so numbers from a
// different runner class demote gating to report-only. The output directory
// defaults to the working directory and can be redirected with
// AID_BENCH_JSON_DIR; setting AID_BENCH_JSON_DIR=- disables writing.

/// Robust order statistics of one measurement series, in the series' unit.
struct SampleSummary {
  double median = 0.0;  ///< p50
  double p95 = 0.0;
  double p99 = 0.0;
  int runs = 0;
};

/// Linear-interpolated percentile of an ASCENDING-sorted series;
/// `q` in [0,1] (0.5 = median). The single shared implementation behind
/// every bench's p50/p95/p99 — tail metrics must mean the same thing in
/// every JSON record.
[[nodiscard]] inline double percentile_of_sorted(
    const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const usize lo = static_cast<usize>(pos);
  const usize hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Summarize by sorting a copy; `samples` may arrive in any order.
inline SampleSummary summarize(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  return {percentile_of_sorted(samples, 0.5),
          percentile_of_sorted(samples, 0.95),
          percentile_of_sorted(samples, 0.99),
          static_cast<int>(samples.size())};
}

/// Jain fairness index of per-tenant allocations: (Σx)² / (n·Σx²).
/// 1.0 = perfectly even; 1/n = one tenant got everything. The standard
/// single-number answer to "did the co-tenants share?".
[[nodiscard]] inline double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  double sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq == 0.0) return 1.0;  // all-zero allocations are (vacuously) even
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

class BenchJsonWriter {
 public:
  /// `bench_name` names the output file: BENCH_<bench_name>.json.
  explicit BenchJsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  BenchJsonWriter(const BenchJsonWriter&) = delete;
  BenchJsonWriter& operator=(const BenchJsonWriter&) = delete;

  ~BenchJsonWriter() { flush(); }

  /// Record one (config, metric) measurement series, e.g.
  /// add("threads=8/count=0", "roundtrip_ns", summarize(samples)).
  void add(const std::string& config, const std::string& metric,
           const SampleSummary& s) {
    records_.push_back({config, metric, s});
  }

  /// Write BENCH_<name>.json. Called automatically on destruction; safe to
  /// call early (subsequent flushes rewrite the full record set).
  void flush() {
    const std::string dir = env::get_string("AID_BENCH_JSON_DIR", ".");
    if (dir == "-" || records_.empty()) return;
    const std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      // Say why the file is absent: bench_diff's gate fails closed on it.
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    out << "[\n";
    // Provenance first: one record whose "snapshot" field holds the
    // host/environment capture. Readers that predate snapshots skip it
    // (no "metric" key); bench_diff keys baselines by its host_id.
    out << "  {\"bench\": \"" << json_str(bench_name_) << "\", \"snapshot\": "
        << harness::sysinfo_json(harness::collect_sysinfo()) << "},\n";
    for (usize i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "  {\"bench\": \"" << json_str(bench_name_)
          << "\", \"config\": \"" << json_str(r.config)
          << "\", \"metric\": \"" << json_str(r.metric)
          << "\", \"median\": " << json_num(r.summary.median)
          << ", \"p95\": " << json_num(r.summary.p95)
          << ", \"p99\": " << json_num(r.summary.p99)
          << ", \"runs\": " << r.summary.runs << '}'
          << (i + 1 < records_.size() ? "," : "") << '\n';
    }
    out << "]\n";
  }

 private:
  struct Record {
    std::string config;
    std::string metric;
    SampleSummary summary;
  };

  // JSON has no NaN/Inf literals; degenerate samples serialize as 0.
  static double json_num(double v) { return std::isfinite(v) ? v : 0.0; }

  // Escape the characters that would break a JSON string literal.
  static std::string json_str(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

  std::string bench_name_;
  std::vector<Record> records_;
};

}  // namespace aid::bench
