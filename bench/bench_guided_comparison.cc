// Reproduces the Sec. 5 guided-schedule finding: "guided increases
// completion time by 44% and 65% on average relative to static and dynamic,
// and never outperforms both of these two approaches for any program."
//
// Mechanism (see sched/guided_sched.h): guided's first removals hand each
// thread ~NI/T iterations regardless of core speed; a small core stuck with
// such a block strands the loop while the shrinking tail cannot rebalance.
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"

int main() {
  using namespace aid;
  for (const auto& platform :
       {platform::odroid_xu4(), platform::xeon_emulated_amp()}) {
    bench::print_header("guided vs static/dynamic", platform);
    const auto params = bench::params_for(platform);

    const std::vector<harness::SchedConfig> configs = {
        {"static(BS)", sched::ScheduleSpec::static_even(),
         platform::Mapping::kBigFirst},
        {"dynamic(BS)", sched::ScheduleSpec::dynamic(1),
         platform::Mapping::kBigFirst},
        {"guided(BS)", sched::ScheduleSpec::guided(1),
         platform::Mapping::kBigFirst},
    };
    const auto data =
        harness::run_figure(bench::all_apps(), platform, configs, params);

    TextTable table({"benchmark", "T(guided)/T(static)", "T(guided)/T(dynamic)",
                     "beats both?"});
    std::vector<double> vs_static;
    std::vector<double> vs_dynamic;
    int wins = 0;
    for (usize a = 0; a < data.app_names.size(); ++a) {
      const double g_vs_s = data.time_ns[a][2] / data.time_ns[a][0];
      const double g_vs_d = data.time_ns[a][2] / data.time_ns[a][1];
      vs_static.push_back(g_vs_s);
      vs_dynamic.push_back(g_vs_d);
      const bool beats_both = g_vs_s < 1.0 && g_vs_d < 1.0;
      wins += beats_both ? 1 : 0;
      table.row()
          .cell(data.app_names[a])
          .cell(g_vs_s, 3)
          .cell(g_vs_d, 3)
          .cell(std::string(beats_both ? "YES" : "no"));
    }
    table.print(std::cout);
    std::cout << "average completion-time increase: vs static "
              << format_double((stats::mean(vs_static) - 1.0) * 100.0, 1)
              << "%, vs dynamic "
              << format_double((stats::mean(vs_dynamic) - 1.0) * 100.0, 1)
              << "%; programs where guided beats both: " << wins
              << "\n(paper: +44% vs static, +65% vs dynamic, never beats "
                 "both)\n\n";
  }
  std::cout
      << "KNOWN DEVIATION: this reproduction does NOT recover the paper's "
         "guided collapse.\nWith decaying chunks a small core can never "
         "accumulate more than an even share of a loop,\nso first-principles "
         "stranding cannot produce a 44% loss against static.\n";
  return 0;
}
