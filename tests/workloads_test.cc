// workloads/: kernel correctness, profile construction, registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads/kernels.h"
#include "workloads/serve_kernel.h"
#include "workloads/workload.h"

namespace aid::workloads {
namespace {

namespace k = kernels;

TEST(Kernels, BlackScholesKnownValue) {
  // Canonical textbook case: S=100, K=100, r=5%, sigma=20%, T=1y.
  const double call = k::black_scholes(100, 100, 0.05, 0.2, 1.0, true);
  const double put = k::black_scholes(100, 100, 0.05, 0.2, 1.0, false);
  EXPECT_NEAR(call, 10.4506, 1e-3);
  EXPECT_NEAR(put, 5.5735, 1e-3);
  // Put-call parity: C - P = S - K e^{-rT}.
  EXPECT_NEAR(call - put, 100.0 - 100.0 * std::exp(-0.05), 1e-9);
}

TEST(Kernels, StencilPreservesConstantField) {
  k::Grid2D g;
  g.width = 8;
  g.height = 8;
  g.cells.assign(64, 3.5);
  k::Grid2D out = g;
  for (i64 r = 0; r < 8; ++r) k::stencil2d_row(g, out, r, 0.2);
  for (double v : out.cells) EXPECT_DOUBLE_EQ(v, 3.5);
}

TEST(Kernels, Stencil3dPreservesConstantField) {
  k::Grid3D g;
  g.width = g.height = g.depth = 4;
  g.cells.assign(64, -1.25);
  k::Grid3D out = g;
  for (i64 p = 0; p < 4; ++p) k::stencil3d_plane(g, out, p, 0.1);
  for (double v : out.cells) EXPECT_DOUBLE_EQ(v, -1.25);
}

TEST(Kernels, LaplacianRowSumsAreNonNegative) {
  const auto m = k::CsrMatrix::laplacian_2d(6);
  EXPECT_EQ(m.rows, 36);
  // A * ones: interior rows sum to 0, boundary rows positive.
  const std::vector<double> ones(36, 1.0);
  double total = 0.0;
  for (i64 r = 0; r < m.rows; ++r) {
    const double v = k::spmv_row(m, ones, r);
    EXPECT_GE(v, -1e-12);
    total += v;
  }
  EXPECT_GT(total, 0.0);
}

TEST(Kernels, SpmvIdentityOnUnitVector) {
  const auto m = k::CsrMatrix::laplacian_2d(4);
  std::vector<double> e(16, 0.0);
  e[5] = 1.0;  // interior node
  EXPECT_DOUBLE_EQ(k::spmv_row(m, e, 5), 4.0);
  EXPECT_DOUBLE_EQ(k::spmv_row(m, e, 6), -1.0);
}

TEST(Kernels, TridiagSolveDeterministic) {
  const double a = k::tridiag_line_solve(3, 64, 0xAB);
  const double b = k::tridiag_line_solve(3, 64, 0xAB);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_NE(a, k::tridiag_line_solve(4, 64, 0xAB));
  EXPECT_TRUE(std::isfinite(a));
}

TEST(Kernels, EpAcceptanceRateNearTheory) {
  // Marsaglia polar accepts with probability pi/4 ~ 0.785.
  i64 accepted = 0;
  const i64 n = 20000;
  double sx = 0.0;
  double sy = 0.0;
  for (i64 i = 0; i < n; ++i) accepted += k::ep_pair_accept(0xE9, i, &sx, &sy);
  const double rate = static_cast<double>(accepted) / static_cast<double>(n);
  EXPECT_NEAR(rate, 0.785, 0.02);
}

TEST(Kernels, DftBinZeroIsSignalSum) {
  // Bin 0 magnitude = |sum of samples|.
  const i64 n = 128;
  double sum = 0.0;
  for (i64 t = 0; t < n; ++t) {
    // Reconstruct the same samples the kernel uses is not exposed; instead
    // check bin symmetry: |X[k]| == |X[n-k]| for real signals.
    (void)t;
  }
  sum = k::dft_bin(0, n, 0xF7);
  EXPECT_TRUE(std::isfinite(sum));
  EXPECT_NEAR(k::dft_bin(5, n, 0xF7), k::dft_bin(n - 5, n, 0xF7), 1e-9);
}

TEST(Kernels, HistogramCountsEverything) {
  const auto batch = k::KeyBatch::generate(1000, 64, 0x15);
  std::vector<i64> counts(64, 0);
  k::is_histogram_slice(batch, counts, 0, 1000);
  i64 total = 0;
  for (i64 c : counts) total += c;
  EXPECT_EQ(total, 1000);
}

TEST(Kernels, BfsReachesNeighbours) {
  const auto g = k::Graph::random(100, 4, 0xBF5);
  std::vector<i64> dist(100, -1);
  dist[0] = 0;
  std::vector<std::atomic<i64>> next(100);
  for (usize i = 0; i < 100; ++i) next[i].store(dist[i]);
  i64 improved = 0;
  for (i64 v = 0; v < 100; ++v) improved += k::bfs_relax_node(g, dist, next, v);
  EXPECT_GT(improved, 0);
  // Node 0's neighbours are now at distance 1.
  for (i64 e = g.row_ptr[0]; e < g.row_ptr[1]; ++e) {
    const i64 to = g.adj[static_cast<usize>(e)];
    if (to != 0) {
      EXPECT_EQ(next[static_cast<usize>(to)].load(), 1);
    }
  }
}

TEST(Kernels, SortedSearch) {
  const std::vector<i64> keys{2, 4, 6, 8, 10};
  EXPECT_EQ(k::sorted_search(keys, 6), 2);
  EXPECT_EQ(k::sorted_search(keys, 7), -1);
  EXPECT_EQ(k::sorted_search(keys, 2), 0);
  EXPECT_EQ(k::sorted_search(keys, 11), -1);
}

TEST(Kernels, ParticleWeightInUnitInterval) {
  for (i64 p = 0; p < 100; ++p) {
    const double w = k::particle_weight(p, 3, 0x9F);
    EXPECT_GT(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(Kernels, KmedianAssignNonNegativeAndTight) {
  const auto pts = k::PointSet::generate(50, 4, 1);
  const auto ctrs = k::PointSet::generate(5, 4, 2);
  for (i64 i = 0; i < 50; ++i) {
    const double d = k::kmedian_assign(pts, ctrs, i);
    EXPECT_GE(d, 0.0);
  }
  // A point that IS a center has distance 0 to itself.
  EXPECT_DOUBLE_EQ(k::kmedian_assign(ctrs, ctrs, 3), 0.0);
}

// ------------------------------------------------- data-parallel primitives

TEST(Kernels, SkewedKeysInRangeAndActuallySkewed) {
  const auto batch = k::KeyBatch::generate_skewed(4000, 64, 2.0, 0x41);
  ASSERT_EQ(batch.keys.size(), 4000u);
  EXPECT_EQ(batch.max_key, 64);
  i64 low_half = 0;
  for (const i32 key : batch.keys) {
    ASSERT_GE(key, 0);
    ASSERT_LT(key, 64);
    low_half += key < 32 ? 1 : 0;
  }
  // skew=2 pushes the mass toward low keys: u^3 < 0.5 for ~79% of u.
  EXPECT_GT(low_half, 4000 * 6 / 10);
  // Determinism: same seed, same keys.
  const auto again = k::KeyBatch::generate_skewed(4000, 64, 2.0, 0x41);
  EXPECT_EQ(batch.keys, again.keys);
}

TEST(Kernels, AtomicHistogramMatchesSerialCounts) {
  const auto batch = k::KeyBatch::generate_skewed(2000, 32, 1.5, 0x42);
  std::vector<i64> serial(32, 0);
  k::is_histogram_slice(batch, serial, 0, 2000);
  std::vector<std::atomic<i64>> bins(32);
  for (auto& b : bins) b.store(0);
  // Two disjoint slices, as a schedule would hand them out.
  k::atomic_histogram_slice(batch, bins, 700, 2000);
  k::atomic_histogram_slice(batch, bins, 0, 700);
  i64 total = 0;
  for (usize i = 0; i < 32; ++i) {
    EXPECT_EQ(bins[i].load(), serial[i]) << "bin " << i;
    total += bins[i].load();
  }
  EXPECT_EQ(total, 2000);
}

TEST(Kernels, RandomIrregularCsrShape) {
  const auto a = k::CsrMatrix::random_irregular(512, 16, 0x5B);
  EXPECT_EQ(a.rows, 512);
  EXPECT_EQ(a.row_ptr.size(), 513u);
  EXPECT_EQ(a.nnz(), a.row_ptr.back());
  i64 min_nnz = a.row_nnz(0);
  i64 max_nnz = a.row_nnz(0);
  for (i64 r = 0; r < a.rows; ++r) {
    EXPECT_GE(a.row_nnz(r), 1) << "row " << r;
    min_nnz = std::min(min_nnz, a.row_nnz(r));
    max_nnz = std::max(max_nnz, a.row_nnz(r));
    for (i64 e = a.row_ptr[static_cast<usize>(r)];
         e < a.row_ptr[static_cast<usize>(r) + 1]; ++e) {
      ASSERT_GE(a.cols[static_cast<usize>(e)], 0);
      ASSERT_LT(a.cols[static_cast<usize>(e)], a.rows);
    }
  }
  // Power-law irregularity: the heaviest row dwarfs the lightest, and the
  // average lands near the advertised one.
  EXPECT_GT(max_nnz, 4 * min_nnz);
  const double avg =
      static_cast<double>(a.nnz()) / static_cast<double>(a.rows);
  EXPECT_GT(avg, 8.0);
  EXPECT_LT(avg, 32.0);
  // Determinism.
  const auto b = k::CsrMatrix::random_irregular(512, 16, 0x5B);
  EXPECT_EQ(a.cols, b.cols);
}

TEST(Kernels, InclusiveScanMatchesSerialPrefix) {
  const auto x = k::signal_vector(300, 0x5C);
  ASSERT_EQ(x.size(), 300u);
  // Two-phase scan over 100-wide blocks must equal the one-pass prefix.
  std::vector<double> out(300, 0.0);
  double offset = 0.0;
  for (i64 block = 0; block < 300; block += 100) {
    k::inclusive_scan_apply(x, offset, out, block, block + 100);
    offset += k::range_sum(x, block, block + 100);
  }
  double prefix = 0.0;
  for (i64 i = 0; i < 300; ++i) {
    prefix += x[static_cast<usize>(i)];
    // The block offsets are sums-of-block-sums, associated differently
    // from the one-pass prefix, so exact equality only holds inside the
    // first block; beyond it the contract is tight agreement.
    EXPECT_NEAR(out[static_cast<usize>(i)], prefix, 1e-12) << i;
  }
}

TEST(Kernels, TransposeRoundtripIsIdentity) {
  constexpr i64 kRows = 12;
  constexpr i64 kCols = 7;
  const auto in = k::signal_vector(kRows * kCols, 0x72);
  std::vector<double> t(kRows * kCols, 0.0);
  std::vector<double> back(kRows * kCols, 0.0);
  k::transpose_rows(in, t, kRows, kCols, 0, kRows);
  k::transpose_rows(t, back, kCols, kRows, 0, kCols);
  EXPECT_EQ(back, in);
}

// ---------------------------------------------------------------- profiles

TEST(Registry, HasPaper21PlusDataParSuite) {
  const auto& all = all_workloads();
  EXPECT_EQ(all.size(), 26u);
  EXPECT_EQ(workloads_of_suite("NPB").size(), 7u);
  EXPECT_EQ(workloads_of_suite("PARSEC").size(), 3u);
  EXPECT_EQ(workloads_of_suite("Rodinia").size(), 11u);
  EXPECT_EQ(workloads_of_suite("DataPar").size(), 5u);
  for (const char* name :
       {"BT", "CG", "EP", "FT", "IS", "LU", "MG", "blackscholes", "bodytrack",
        "streamcluster", "bfs", "bptree", "CFDEuler3D", "heartwall", "hotspot",
        "hotspot3D", "lavamd", "leukocyte", "particlefilter", "sradv1",
        "sradv2", "histogram", "spmv", "scan", "transpose", "stencil2d"}) {
    EXPECT_NE(find_workload(name), nullptr) << name;
  }
  EXPECT_EQ(find_workload("nonexistent"), nullptr);
  // The paper's 21 keep their Fig. 6/7 display indices: DataPar is
  // appended strictly after Rodinia.
  EXPECT_EQ(all[20].suite(), "Rodinia");
  EXPECT_EQ(all[21].suite(), "DataPar");
}

TEST(Registry, BtAndCgHaveThirtyLoopsForFig2) {
  const auto p = platform::odroid_xu4();
  for (const char* name : {"BT", "CG"}) {
    const auto model = find_workload(name)->model(p);
    EXPECT_EQ(model.num_loop_phases(), 30) << name;
  }
}

// ----------------------------------------------------------- serve kernels

TEST(ServeKernels, ValidatorAgreesWithTheBuilder) {
  // The ingress checks a SUBMIT with validate_serve_kernel and the
  // dispatcher builds it later with make_serve_kernel: both must give the
  // same verdict and the same error text.
  std::vector<std::string> names = serve_kernel_names();
  names.emplace_back("BT");  // a registry workload with no serve kernel
  names.emplace_back("no-such-workload");
  for (const std::string& name : names) {
    const bool servable = name != "BT" && name != "no-such-workload";
    for (const i64 count : {i64{0}, i64{1}, kMaxServeCount + 1}) {
      std::string checked = "(unset)";
      std::string built = "(unset)";
      const bool valid = validate_serve_kernel(name, count, &checked);
      const bool made = make_serve_kernel(name, count, &built).has_value();
      EXPECT_EQ(valid, servable && count == 1) << name << " count " << count;
      EXPECT_EQ(valid, made) << name << " count " << count;
      EXPECT_EQ(checked, built) << name << " count " << count;
    }
  }
}

TEST(ServeKernels, BuilderBuildsOnCallAndKeepsTheChecksum) {
  constexpr i64 kCount = 1000;
  auto checksum = std::make_shared<std::function<double()>>();
  const std::function<rt::RangeBody()> make_body =
      serve_kernel_builder("CG", kCount, checksum);
  EXPECT_FALSE(*checksum) << "nothing is built before the call";
  const rt::RangeBody body = make_body();
  ASSERT_TRUE(*checksum);
  body(0, kCount, rt::WorkerInfo{});

  std::string error;
  auto serial = make_serve_kernel("CG", kCount, &error);
  ASSERT_TRUE(serial.has_value()) << error;
  serial->body(0, kCount, rt::WorkerInfo{});
  EXPECT_EQ((*checksum)(), serial->checksum());

  // Parameters that do not validate throw the validator's error.
  const std::function<rt::RangeBody()> bad =
      serve_kernel_builder("EP", 0, checksum);
  EXPECT_THROW((void)bad(), std::invalid_argument);
}

TEST(Profiles, EveryModelBuildsOnBothPlatforms) {
  for (const auto& platform :
       {platform::odroid_xu4(), platform::xeon_emulated_amp()}) {
    for (const auto& w : all_workloads()) {
      const auto model = w.model(platform, 0.1);
      EXPECT_FALSE(model.phases.empty()) << w.name();
      EXPECT_GT(model.total_iterations(), 0) << w.name();
    }
  }
}

TEST(Profiles, LoopSfRespectsPlatformEnvelope) {
  const auto a = platform::odroid_xu4();
  const auto b = platform::xeon_emulated_amp();
  for (const auto& w : all_workloads()) {
    for (const auto& phase : w.spec().phases) {
      const auto* lp = std::get_if<LoopSpec>(&phase);
      if (lp == nullptr) continue;
      const auto sf_a = loop_sf(a, lp->compute_fraction, lp->contention, false);
      const auto sf_b = loop_sf(b, lp->compute_fraction, lp->contention, false);
      EXPECT_DOUBLE_EQ(sf_a[0], 1.0);
      EXPECT_GT(sf_a[1], 1.0);
      EXPECT_LE(sf_a[1], 9.0) << w.name() << "/" << lp->name;
      EXPECT_GE(sf_b[1], 1.5 - 1e-9) << w.name() << "/" << lp->name;
      EXPECT_LE(sf_b[1], 2.25 + 1e-9) << w.name() << "/" << lp->name;
    }
  }
}

TEST(Profiles, ContentionOnlyErodesFullTeamSf) {
  const auto a = platform::odroid_xu4();
  const auto solo = loop_sf(a, 0.95, 0.75, /*full_team=*/false);
  const auto loaded = loop_sf(a, 0.95, 0.75, /*full_team=*/true);
  EXPECT_GT(solo[1], 5.0) << "blackscholes-like offline SF (Fig. 9c)";
  EXPECT_LT(loaded[1], 2.5) << "collapses under the full team";
}

TEST(Profiles, ScaleShrinksTripCounts) {
  const auto p = platform::odroid_xu4();
  const auto* w = find_workload("EP");
  const auto full = w->model(p, 1.0);
  const auto tiny = w->model(p, 0.01);
  EXPECT_LT(tiny.total_iterations(), full.total_iterations() / 50);
}

TEST(Profiles, ParticlefilterRampShape) {
  // Paper Sec. 5A: final iterations are heavier than the first.
  const auto p = platform::odroid_xu4();
  const auto model = find_workload("particlefilter")->model(p);
  const sim::LoopPhase* weights = nullptr;
  for (const auto& phase : model.phases)
    if (const auto* lp = std::get_if<sim::LoopPhase>(&phase);
        lp != nullptr && lp->name == "weights")
      weights = lp;
  ASSERT_NE(weights, nullptr);
  const auto& cost = *weights->cost;
  // shape_param 0.6: the last iteration costs ~1.6x the first.
  EXPECT_GT(static_cast<double>(cost.iter_cost(weights->trip_count - 1, 0)),
            1.4 * static_cast<double>(cost.iter_cost(0, 0)));
}

}  // namespace
}  // namespace aid::workloads
