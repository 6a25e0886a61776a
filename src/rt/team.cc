#include "rt/team.h"

#include <exception>

#include "common/check.h"

namespace aid::rt {

Team::Team(const platform::Platform& platform, int nthreads,
           platform::Mapping mapping, bool emulate_amp, bool bind_threads)
    : layout_(platform, nthreads > 0 ? nthreads : platform.num_cores(),
              mapping),
      pool_(platform, {emulate_amp, bind_threads},
            rt::wait_budgets(layout_.nthreads())) {
  // The team's one window: binds the master and spawns the workers now, so
  // no construct pays either.
  pool_.open_window(layout_, job_);
}

void Team::run_loop(i64 count, const sched::ScheduleSpec& spec,
                    const RangeBody& body) {
  AID_CHECK_MSG(!in_loop_.exchange(true),
                "nested/concurrent run_loop is not supported");
  const std::exception_ptr error =
      pool_.run_loop(owner_, count, spec, body, last_stats_);
  // Cleanup FIRST, rethrow LAST: the reentrancy guard clears whether or
  // not the construct failed, so the team stays usable after a thrown body.
  in_loop_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void Team::run_chain(const pipeline::LoopChain& chain) {
  AID_CHECK_MSG(!in_loop_.exchange(true),
                "nested/concurrent run_chain is not supported");
  const std::exception_ptr error =
      pool_.run_chain(owner_, chain, /*hook=*/nullptr, last_stats_);
  in_loop_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

}  // namespace aid::rt
