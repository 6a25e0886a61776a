// Ablation study of AID's design choices — compares AID against the
// related-work baselines the paper cites (Sec. 3) and against crippled
// variants of itself, on Platform A:
//
//   trapezoid (Tzen & Ni '93 [46])      — decreasing chunks, asymmetry-blind
//   weighted-factoring (Hummel '96 [21]) — fixed nominal weights, no
//                                          per-loop sampling
//   AID-static(nominal)                  — AID's distribution driven by the
//                                          platform's nominal ratio instead
//                                          of the sampled per-loop SF
//   AID-dynamic(no endgame)              — Fig. 5 caption optimization off
//
// Expected outcomes:
//   * AID-static(nominal) trails AID-static wherever per-loop SF departs
//     from the platform's nominal ratio (the Fig. 2 spread is the whole
//     point of online estimation);
//   * disabling the endgame re-introduces dynamic's large-chunk tail
//     imbalance at large M;
//   * the decaying-chunk baselines (trapezoid, weighted factoring) are
//     competitive in the simulator: self-scheduling with decaying chunks is
//     genuinely robust, at the cost of O(T log N) removals and oversized
//     early chunks — effects the overhead model prices modestly. The paper
//     does not evaluate them; this is an extension.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"

int main() {
  using namespace aid;
  const auto platform = platform::odroid_xu4();
  bench::print_header("Ablation — AID vs related work and crippled variants",
                      platform);
  const auto params = bench::params_for(platform);

  const double nominal = platform.nominal_asymmetry();
  const std::vector<harness::SchedConfig> configs = {
      {"static(BS)", sched::ScheduleSpec::static_even(),
       platform::Mapping::kBigFirst},
      {"dynamic(BS)", sched::ScheduleSpec::dynamic(1),
       platform::Mapping::kBigFirst},
      {"trapezoid", sched::ScheduleSpec::trapezoid(),
       platform::Mapping::kBigFirst},
      {"w-factoring", sched::ScheduleSpec::weighted_factoring(),
       platform::Mapping::kBigFirst},
      {"AID-static", sched::ScheduleSpec::aid_static(1),
       platform::Mapping::kBigFirst},
      {"AID-static(nominal)",
       sched::ScheduleSpec::aid_static_offline(nominal, 1),
       platform::Mapping::kBigFirst},
      {"AID-dynamic", sched::ScheduleSpec::aid_dynamic(1, 5),
       platform::Mapping::kBigFirst},
      {"AID-dyn(no-endgame,M=30)",
       sched::ScheduleSpec::aid_dynamic_no_endgame(1, 30),
       platform::Mapping::kBigFirst},
      {"AID-dyn(M=30)", sched::ScheduleSpec::aid_dynamic(1, 30),
       platform::Mapping::kBigFirst},
  };

  const auto data = harness::run_figure(bench::all_apps(), platform, configs,
                                        params, /*baseline=*/0);
  harness::print_figure(std::cout, data, "Ablation (normalized to static(BS))");

  const auto gm = [&](const char* label) {
    return harness::column_geomean(data, harness::config_index(data, label));
  };
  std::cout << "design-choice checks:\n"
            << "  online sampling vs nominal ratio: AID-static "
            << format_double(gm("AID-static"), 3) << " vs AID-static(nominal) "
            << format_double(gm("AID-static(nominal)"), 3)
            << "  (sampling should win: per-loop SF varies, Fig. 2)\n"
            << "  vs weighted factoring: " << format_double(gm("w-factoring"), 3)
            << "  (fixed weights + O(T log N) removals)\n"
            << "  vs trapezoid: " << format_double(gm("trapezoid"), 3)
            << "  (asymmetry-blind decreasing chunks)\n"
            << "  endgame value at M=30: with "
            << format_double(gm("AID-dyn(M=30)"), 3) << " vs without "
            << format_double(gm("AID-dyn(no-endgame,M=30)"), 3)
            << "  (Fig. 5 caption: the switch removes tail imbalance)\n";
  return 0;
}
