// Whole-application execution under the virtual-time engine.
//
// Applies one ScheduleSpec to every loop phase — exactly the paper's setup,
// where the modified compiler routes all schedule-less loops through the
// runtime and OMP_SCHEDULE picks the method for the whole program (Sec. 4.1:
// ">95% of the loops in the programs we used" have no schedule clause).
//
// Each loop phase gets one scheduler instance, reset() between invocations,
// mirroring libgomp's per-work-share state reuse.
#pragma once

#include <string>
#include <vector>

#include "platform/team_layout.h"
#include "sched/schedule_spec.h"
#include "sim/app_model.h"
#include "sim/loop_simulator.h"
#include "sim/overhead_model.h"
#include "trace/trace.h"

namespace aid::sim {

struct PhaseResult {
  std::string name;
  bool is_loop = false;
  Nanos total_ns = 0;       ///< wall time spent in this phase (all invocations)
  int invocations = 0;      ///< loop phases only
  i64 pool_removals = 0;    ///< loop phases only, summed over invocations
  double estimated_sf = 0.0;  ///< AID: SF estimate from the last invocation
  i64 aid_phases = 0;         ///< AID-dynamic: recomputes of R, last invocation
};

struct AppResult {
  std::string app;
  Nanos total_ns = 0;
  Nanos serial_ns = 0;   ///< time in serial phases (master-executed)
  Nanos parallel_ns = 0; ///< time in loop phases
  i64 pool_removals = 0;
  std::vector<PhaseResult> phases;
};

class AppSimulator {
 public:
  /// `layout` must outlive the simulator. `spec` is applied to every loop.
  AppSimulator(const platform::Platform& platform,
               const platform::TeamLayout& layout, sched::ScheduleSpec spec,
               OverheadModel overhead);

  /// Fig. 9's AID-static(offline-SF) variant: per-loop-phase SF values (in
  /// loop-phase order) that replace the sampling phase. Only honoured when
  /// the schedule kind is kAidStatic.
  void set_offline_sf_per_loop(std::vector<double> sf) {
    offline_sf_per_loop_ = std::move(sf);
  }

  /// Execute the application once; optionally record a trace.
  AppResult run(const AppModel& app, trace::Trace* trace = nullptr);

 private:
  [[nodiscard]] double serial_speedup(const AppModel& app,
                                      const SerialPhase* phase) const;

  const platform::Platform& platform_;
  const platform::TeamLayout& layout_;
  sched::ScheduleSpec spec_;
  LoopSimulator loop_sim_;
  std::vector<double> offline_sf_per_loop_;
};

}  // namespace aid::sim
