// Shared pieces of the end-to-end benchmark binary (aidbench): options,
// the paper's five schedules, seeded input helpers, percentile summaries
// and the result record every workload fills.
//
// aidbench runs ONE workload per process (run.py starts a fresh process
// per workload with the AID_* environment cleared) and prints one JSON
// line; run.py turns it into the human table and the final result line.
#pragma once

#include <array>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sched/schedule_spec.h"

namespace aid::e2e {

[[nodiscard]] inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 20.0;  ///< measured window
  double warmup = 2.0;    ///< untimed warmup (verification runs inside it)
  bool trace = false;     ///< per-layer run (loops: half untraced, half traced)
  std::string out_dir = ".bench_build";  ///< trace file + ingress socket
};

/// Which bare reference pass (reference.h) a schedule is timed against:
/// the one that implements its policy.
enum class RefKind { kEqual, kBalanced, kDynamic };

/// The paper's five schedules with its parameters (Sec. 5A).
struct NamedSchedule {
  const char* name;
  sched::ScheduleSpec spec;
  RefKind ref;
};
inline constexpr int kNumSchedules = 5;
[[nodiscard]] const std::array<NamedSchedule, kNumSchedules>& schedules();

/// Seeded Fisher-Yates over the repo's portable generator, so a seed
/// yields the same order under any standard library.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (usize i = v.size(); i > 1; --i)
    std::swap(v[i - 1],
              v[static_cast<usize>(rng.uniform_int(0, static_cast<i64>(i) - 1))]);
}

/// Independent generator per input stream (kernel order, schedule order,
/// arrivals, picks): adding draws to one stream never shifts another.
[[nodiscard]] inline Rng stream(u64 seed, u64 salt) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL ^ salt);
}

/// The reported value (summarize: the p50), the highest of {99, 95, 90, 75,
/// 50} with at least ten samples beyond it, and the sample count.
struct Summary {
  double value = 0.0;
  double tail = 0.0;
  int tail_pct = 50;
  usize n = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);
/// The q-quantile (0..1), interpolated between order statistics.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// What one run reports. End-to-end timings keep their full summary; the
/// gating value is the p50. Layer metrics are single numbers.
class Result {
 public:
  void timing(const std::string& name, const char* unit,
              std::vector<double> samples);
  /// A ratio sampled once per round or job: its q-quantile (the median by
  /// default) and the sample count.
  void ratio(const std::string& name, const char* unit,
             std::vector<double> samples, double q = 0.5);
  void value(const std::string& name, const char* unit, double v);
  void layer(const std::string& name, const char* unit, double v);

  /// One attempted operation; a failed one is counted and (the first few)
  /// described.
  void attempt(bool ok, const std::string& what_failed = {});
  /// A failed check that is not an operation (coverage, split, setup).
  void fail(const std::string& why);

  [[nodiscard]] bool correct() const { return failed_ == 0 && !broken_; }
  [[nodiscard]] std::string json(const Options& opts,
                                 const std::string& sysinfo) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    Summary s;
    bool tail = false;  ///< report the tail percentile
    bool n = false;     ///< report the sample count
  };
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  bool broken_ = false;
  std::vector<std::string> failures_;
};

/// Set-up times of one run: the set-up at process start, whose state the
/// run keeps, and one more every kEverySeconds of the measured window,
/// between units of work, whose state is torn down untimed. setup_s, their
/// median, so follows the host over the whole run as the other metrics do.
/// Repeated at process start only, it spread by 0.14-0.35 between runs.
class SetupTimes {
 public:
  static constexpr double kEverySeconds = 0.5;

  template <typename Make>
  auto first(Make&& make) {
    auto state = timed(make);
    next_ = now_ns();
    return state;
  }

  /// Between units of work: one more set-up if kEverySeconds have passed
  /// since the last.
  template <typename Make>
  void in_window(Make&& make) {
    if (now_ns() < next_) return;
    (void)timed(make);
    next_ = now_ns() + static_cast<i64>(kEverySeconds * 1e9);
  }

  [[nodiscard]] double median_s() const { return median(took_); }

 private:
  template <typename Make>
  auto timed(Make& make) {
    const i64 t0 = now_ns();
    auto state = make();
    took_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return state;
  }

  std::vector<double> took_;
  i64 next_ = 0;
};

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Workload entry points (loops.cc, serve_mix.cc).
void run_loop_workload(const Options& opts, Result& result);
void run_serve_mix(const Options& opts, Result& result);

}  // namespace aid::e2e
