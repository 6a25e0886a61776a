// The schedule-invariance contract: every workload kernel must produce the
// same checksum under every loop schedule (and equal to the 1-thread run).
// This is the end-to-end integration test of schedulers + runtime + kernels:
// a lost, duplicated or misordered-with-dependency iteration shows up here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "rt/team.h"
#include "workloads/workload.h"

namespace aid::workloads {
namespace {

class KernelInvariance : public ::testing::TestWithParam<int> {};

TEST_P(KernelInvariance, SameChecksumUnderEverySchedule) {
  const auto& workload =
      all_workloads()[static_cast<usize>(GetParam())];
  ASSERT_TRUE(workload.has_kernel()) << workload.name();

  constexpr double kScale = 0.02;  // keep CI time low
  rt::Team serial(platform::generic_amp(1, 1, 2.0), 1,
                  platform::Mapping::kBigFirst, /*emulate_amp=*/false);
  const double reference =
      workload.run_kernel(serial, sched::ScheduleSpec::static_even(), kScale);
  ASSERT_TRUE(std::isfinite(reference)) << workload.name();

  rt::Team team(platform::generic_amp(2, 2, 2.0), 4,
                platform::Mapping::kBigFirst, /*emulate_amp=*/false);
  const sched::ScheduleSpec specs[] = {
      sched::ScheduleSpec::static_even(),
      sched::ScheduleSpec::dynamic(1),
      sched::ScheduleSpec::guided(1),
      sched::ScheduleSpec::aid_static(1),
      sched::ScheduleSpec::aid_hybrid(1, 80.0),
      sched::ScheduleSpec::aid_dynamic(1, 5),
  };
  for (const auto& spec : specs) {
    const double value = workload.run_kernel(team, spec, kScale);
    // Checksums are plain floating-point sums whose accumulation order for
    // per-thread partials can differ; allow a relative tolerance.
    const double tol =
        1e-6 * std::max(1.0, std::fabs(reference));
    EXPECT_NEAR(value, reference, tol)
        << workload.name() << " under " << spec.display();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, KernelInvariance, ::testing::Range(0, 26),
    [](const ::testing::TestParamInfo<int>& param_info) {
      return all_workloads()[static_cast<usize>(param_info.param)].name();
    });

// The DataPar kernels also sweep the shard dimension, which a Team's
// schedulers take from the schedule kind (sched::make_sharded_scheduler):
// dynamic, aid-static and aid-dynamic arm one shard per thread on every
// team of two or more threads, and dynamic(16) puts the pool's grain-16
// seams between those shards; guided holds a plain WorkShare on every
// team. The whole-suite ×
// pool-mode coverage comes from the CI legs running this binary plainly
// and under AID_POOL=1.
TEST(DataParShardInvariance, SameChecksumUnderShardSettings) {
  constexpr double kScale = 0.02;
  rt::Team serial(platform::generic_amp(1, 1, 2.0), 1,
                  platform::Mapping::kBigFirst, /*emulate_amp=*/false);
  const sched::ScheduleSpec specs[] = {
      sched::ScheduleSpec::static_even(),
      sched::ScheduleSpec::dynamic(1),
      sched::ScheduleSpec::dynamic(16),
      sched::ScheduleSpec::aid_static(1),
      sched::ScheduleSpec::aid_dynamic(1, 5),
      sched::ScheduleSpec::guided(1),
  };
  for (const auto* workload : workloads_of_suite("DataPar")) {
    ASSERT_TRUE(workload->has_kernel()) << workload->name();
    const double reference = workload->run_kernel(
        serial, sched::ScheduleSpec::static_even(), kScale);
    ASSERT_TRUE(std::isfinite(reference)) << workload->name();
    const double tol = 1e-6 * std::max(1.0, std::fabs(reference));
    // Uniform, 2 + 2 and 1 + 1 layouts.
    for (const auto& [plat, nthreads] :
         {std::pair{platform::symmetric(4), 4},
          std::pair{platform::generic_amp(2, 2, 2.0), 4},
          std::pair{platform::generic_amp(1, 1, 2.0), 2}}) {
      rt::Team team(plat, nthreads, platform::Mapping::kBigFirst,
                    /*emulate_amp=*/false);
      for (const auto& spec : specs) {
        EXPECT_NEAR(workload->run_kernel(team, spec, kScale), reference, tol)
            << workload->name() << " under " << spec.display() << " on "
            << plat.name();
      }
    }
  }
}

}  // namespace
}  // namespace aid::workloads
