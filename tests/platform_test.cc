// platform/: descriptors, presets, mappings, the two-component speed model.
#include <gtest/gtest.h>

#include "platform/platform.h"
#include "platform/team_layout.h"

namespace aid::platform {
namespace {

TEST(Platform, OdroidXu4MatchesTable1) {
  const auto p = odroid_xu4();
  EXPECT_EQ(p.num_cores(), 8);
  EXPECT_EQ(p.num_core_types(), 2);
  EXPECT_EQ(p.cores_of_type(0), 4);  // Cortex-A7
  EXPECT_EQ(p.cores_of_type(1), 4);  // Cortex-A15
  // Paper Sec. 5: CPUs 0-3 small, 4-7 big.
  for (int c = 0; c <= 3; ++c) EXPECT_EQ(p.core_type_of(c), 0) << c;
  for (int c = 4; c <= 7; ++c) EXPECT_EQ(p.core_type_of(c), 1) << c;
  EXPECT_DOUBLE_EQ(p.clusters()[0].freq_ghz, 1.5);
  EXPECT_DOUBLE_EQ(p.clusters()[1].freq_ghz, 2.0);
}

TEST(Platform, XeonEmulatedNominalRatioIsTwo) {
  const auto p = xeon_emulated_amp();
  // 2.1 GHz / (1.2 GHz * 87.5% duty) = 2.0.
  EXPECT_DOUBLE_EQ(p.nominal_asymmetry(), 2.0);
}

TEST(Platform, SpeedupMixSpansPaperRanges) {
  // Per-loop SF ranges: Platform A 1..~9 (paper: up to 8.9), Platform B
  // compressed into ~1.5..2.25 (paper: 1.7..2.3).
  const auto a = odroid_xu4().clusters()[1];
  EXPECT_NEAR(speedup_mix(a, 1.0), 9.0, 1e-9);
  EXPECT_LT(speedup_mix(a, 0.0), 1.2);
  const auto b = xeon_emulated_amp().clusters()[1];
  EXPECT_NEAR(speedup_mix(b, 1.0), 2.25, 1e-9);
  EXPECT_NEAR(speedup_mix(b, 0.0), 1.5, 1e-9);
  // Monotonic in compute fraction.
  double prev = 0.0;
  for (double c = 0.0; c <= 1.0; c += 0.1) {
    const double sf = speedup_mix(a, c);
    EXPECT_GT(sf, prev);
    prev = sf;
  }
}

TEST(Platform, SubsetRenormalizesSpeeds) {
  const auto p = odroid_xu4();
  const auto two_big = p.subset({0, 2}, "2B");
  EXPECT_EQ(two_big.num_cores(), 2);
  EXPECT_EQ(two_big.num_core_types(), 1);
  EXPECT_DOUBLE_EQ(two_big.clusters()[0].speed, 1.0);

  const auto amp = p.subset({2, 2}, "2B-2S");
  EXPECT_EQ(amp.num_cores(), 4);
  EXPECT_EQ(amp.num_core_types(), 2);
}

TEST(Platform, ParsePresets) {
  ASSERT_TRUE(parse_platform("odroid-xu4"));
  ASSERT_TRUE(parse_platform("Platform-A"));
  ASSERT_TRUE(parse_platform("xeon-amp"));
  const auto sym = parse_platform("symmetric:6");
  ASSERT_TRUE(sym);
  EXPECT_EQ(sym->num_cores(), 6);
  const auto gen = parse_platform("generic:2,3,2.5");
  ASSERT_TRUE(gen);
  EXPECT_EQ(gen->num_cores(), 5);
  EXPECT_DOUBLE_EQ(gen->nominal_asymmetry(), 2.5);
  EXPECT_FALSE(parse_platform("bogus"));
  EXPECT_FALSE(parse_platform("symmetric:0"));
  EXPECT_FALSE(parse_platform("generic:1,1,0.5"));
  // Counts past int's range are rejected, not narrowed to 1 and 2 cores.
  EXPECT_FALSE(parse_platform("generic:4294967297,1,2"));
  EXPECT_FALSE(parse_platform("generic:2,4294967298,2"));
}

TEST(TeamLayout, SbPutsMasterOnSmallCore) {
  const auto p = odroid_xu4();
  const TeamLayout sb(p, 8, Mapping::kSmallFirst);
  EXPECT_EQ(sb.core_of(0), 0);
  EXPECT_EQ(sb.core_type_of(0), 0);
  EXPECT_EQ(sb.core_type_of(7), 1);
  EXPECT_EQ(sb.nb(), 4);
  EXPECT_EQ(sb.ns(), 4);
}

TEST(TeamLayout, BsPutsLowTidsOnBigCores) {
  // The convention all AID variants assume (paper Sec. 4.3).
  const auto p = odroid_xu4();
  const TeamLayout bs(p, 8, Mapping::kBigFirst);
  for (int tid = 0; tid <= 3; ++tid) EXPECT_EQ(bs.core_type_of(tid), 1) << tid;
  for (int tid = 4; tid <= 7; ++tid) EXPECT_EQ(bs.core_type_of(tid), 0) << tid;
  EXPECT_EQ(bs.core_of(0), 7) << "descending core order by thread id";
}

TEST(TeamLayout, PartialTeams) {
  const auto p = odroid_xu4();
  const TeamLayout four_bs(p, 4, Mapping::kBigFirst);
  EXPECT_EQ(four_bs.nb(), 4);
  EXPECT_EQ(four_bs.ns(), 0);
  EXPECT_TRUE(four_bs.is_uniform());

  const TeamLayout six_bs(p, 6, Mapping::kBigFirst);
  EXPECT_EQ(six_bs.nb(), 4);
  EXPECT_EQ(six_bs.ns(), 2);
  EXPECT_FALSE(six_bs.is_uniform());
}

TEST(TeamLayout, ThreadsOfTypeSumsToTeam) {
  const auto p = odroid_xu4();
  for (int n = 1; n <= 8; ++n) {
    const TeamLayout layout(p, n, Mapping::kBigFirst);
    int sum = 0;
    for (int t = 0; t < layout.num_core_types(); ++t)
      sum += layout.threads_of_type(t);
    EXPECT_EQ(sum, n);
  }
}

TEST(TeamLayoutDeath, RejectsOversubscription) {
  const auto p = odroid_xu4();
  EXPECT_DEATH(TeamLayout(p, 9, Mapping::kBigFirst), "oversubscription");
}

}  // namespace
}  // namespace aid::platform
