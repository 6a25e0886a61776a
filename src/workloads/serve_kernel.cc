#include "workloads/serve_kernel.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace aid::workloads {

namespace {

/// Shared output-vector state: iteration i writes out[i]; the checksum is
/// the fixed-order serial sum. One shared_ptr is captured by both the
/// body and the checksum closure, so the kernel owns its state for as
/// long as either closure lives (the ingress holds them until the
/// terminal frame is sent).
struct Slots {
  std::vector<double> out;
  explicit Slots(i64 n) : out(static_cast<usize>(n), 0.0) {}
  [[nodiscard]] double sum() const {
    double s = 0.0;
    for (const double v : out) s += v;
    return s;
  }
};

ServeKernel from_fn(i64 count, std::function<double(i64)> fn) {
  auto slots = std::make_shared<Slots>(count);
  ServeKernel k;
  k.count = count;
  k.body = [slots, fn = std::move(fn)](i64 begin, i64 end,
                                       const rt::WorkerInfo&) {
    for (i64 i = begin; i < end; ++i)
      slots->out[static_cast<usize>(i)] = fn(i);
  };
  k.checksum = [slots] { return slots->sum(); };
  return k;
}

// ---------------------------------------------------------------- kernels

ServeKernel make_ep(i64 count) {
  // NPB EP: counter-based Marsaglia pairs — iterations are independent by
  // construction (the paper's Fig. 1 uniform loop).
  return from_fn(count, [](i64 i) {
    double sx = 0.0;
    double sy = 0.0;
    const int accepted = kernels::ep_pair_accept(0xE9, i, &sx, &sy);
    return accepted != 0 ? 1.0 + 0.25 * (sx + sy) : 0.0;
  });
}

ServeKernel make_ft(i64 count) {
  // NPB FT: one DFT bin per iteration over a fixed-size signal. The
  // signal length is capped so per-iteration cost stays bounded
  // (count * signal ops total) for arbitrary wire counts.
  const i64 signal = std::min<i64>(count, 2048);
  return from_fn(count, [signal](i64 k) {
    return kernels::dft_bin(k % signal, signal, 0xF7);
  });
}

ServeKernel make_cg(i64 count) {
  // NPB CG: CSR SpMV rows of a 2D 5-point Laplacian. The matrix has at
  // least `count` rows (side^2 >= count) and a side of at least 2, the
  // smallest grid laplacian_2d builds; iteration i computes row i.
  const i64 side =
      static_cast<i64>(std::ceil(std::sqrt(static_cast<double>(count))));
  auto a = std::make_shared<kernels::CsrMatrix>(
      kernels::CsrMatrix::laplacian_2d(std::max<i64>(side, 2)));
  auto x = std::make_shared<std::vector<double>>();
  x->resize(static_cast<usize>(a->rows));
  for (usize j = 0; j < x->size(); ++j)
    x->at(j) = 1.0 + 0.1 * static_cast<double>(j % 7);
  return from_fn(count,
                 [a, x](i64 row) { return kernels::spmv_row(*a, *x, row); });
}

ServeKernel make_blackscholes(i64 count) {
  auto batch = std::make_shared<kernels::OptionBatch>(
      kernels::OptionBatch::generate(count, 0xB5));
  return from_fn(count, [batch](i64 i) {
    const usize u = static_cast<usize>(i);
    return kernels::black_scholes(batch->spot[u], batch->strike[u],
                                  batch->rate[u], batch->vol[u],
                                  batch->expiry[u], batch->call[u] != 0);
  });
}

ServeKernel make_streamcluster(i64 count) {
  auto points =
      std::make_shared<kernels::PointSet>(kernels::PointSet::generate(
          count, /*dims=*/8, 0x5C));
  auto centers =
      std::make_shared<kernels::PointSet>(kernels::PointSet::generate(
          /*n=*/16, /*dims=*/8, 0xC5));
  return from_fn(count, [points, centers](i64 i) {
    return kernels::kmedian_assign(*points, *centers, i);
  });
}

ServeKernel make_particlefilter(i64 count) {
  return from_fn(count, [](i64 particle) {
    return kernels::particle_weight(particle, /*frame=*/3, 0x9F);
  });
}

// ----------------------------------------------------- data-parallel suite
//
// The DataPar twins. All but histogram follow the slot pattern; shared
// read-only inputs are capped so a max-count wire job stays within a few
// MB of server-side state per job.

ServeKernel make_histogram(i64 count) {
  // The one servable kernel with cross-iteration state: shared atomic bins.
  // Integer increments commute, so the bins — and the fixed-order weighted
  // checksum over them — are bit-identical under any schedule, which is all
  // the cross-transport verification needs.
  constexpr i32 kBins = 256;
  auto batch = std::make_shared<kernels::KeyBatch>(
      kernels::KeyBatch::generate_skewed(count, kBins, 2.0, 0x41));
  auto bins = std::make_shared<std::vector<std::atomic<i64>>>(kBins);
  for (auto& b : *bins) b.store(0, std::memory_order_relaxed);
  ServeKernel k;
  k.count = count;
  k.body = [batch, bins](i64 begin, i64 end, const rt::WorkerInfo&) {
    kernels::atomic_histogram_slice(*batch, *bins, begin, end);
  };
  k.checksum = [bins] {
    double s = 0.0;
    for (usize i = 0; i < bins->size(); ++i)
      s += static_cast<double>((*bins)[i].load(std::memory_order_relaxed)) *
           static_cast<double>(i + 1);
    return s;
  };
  return k;
}

ServeKernel make_spmv(i64 count) {
  // Matrix rows are capped (a max-count job would otherwise assemble a
  // ~16M-entry matrix per request); iteration i computes row i mod rows.
  const i64 rows = std::min<i64>(count, i64{1} << 14);
  auto a = std::make_shared<kernels::CsrMatrix>(
      kernels::CsrMatrix::random_irregular(rows, 16, 0x5B));
  auto x = std::make_shared<std::vector<double>>();
  x->resize(static_cast<usize>(rows));
  for (usize j = 0; j < x->size(); ++j)
    x->at(j) = 1.0 + 0.25 * static_cast<double>(j % 11);
  return from_fn(count, [a, x, rows](i64 i) {
    return kernels::spmv_row(*a, *x, i % rows);
  });
}

ServeKernel make_scan(i64 count) {
  // Tiled inclusive scan: slot i holds the prefix sum within its 256-wide
  // tile. Bounded per-iteration cost (<= one tile) for arbitrary counts,
  // still a genuine dependent-accumulation access pattern.
  constexpr i64 kTile = 256;
  auto x = std::make_shared<std::vector<double>>(
      kernels::signal_vector(count, 0x5C));
  return from_fn(count, [x, kTile](i64 i) {
    const i64 tile_start = (i / kTile) * kTile;
    return kernels::range_sum(*x, tile_start, i + 1);
  });
}

ServeKernel make_transpose(i64 count) {
  // Strided reads against a capped square matrix: slot i reads the
  // transposed position of i mod size.
  const i64 side = std::min<i64>(
      512, std::max<i64>(
               8, static_cast<i64>(std::sqrt(static_cast<double>(count)))));
  auto in = std::make_shared<std::vector<double>>(
      kernels::signal_vector(side * side, 0x72));
  return from_fn(count, [in, side](i64 i) {
    const i64 cell = i % (side * side);
    const i64 r = cell / side;
    const i64 c = cell % side;
    return (*in)[static_cast<usize>(c * side + r)];
  });
}

ServeKernel make_stencil2d(i64 count) {
  // One 5-point damped-diffusion update per slot against a capped grid.
  const i64 side = std::min<i64>(
      512, std::max<i64>(
               8, static_cast<i64>(std::sqrt(static_cast<double>(count)))));
  auto g = std::make_shared<kernels::Grid2D>(
      kernels::Grid2D::generate(side, side, 0x5D));
  return from_fn(count, [g, side](i64 i) {
    const i64 cell = i % (side * side);
    const i64 x = cell % side;
    const i64 y = cell / side;
    const double c = g->at(x, y);
    const double n = y > 0 ? g->at(x, y - 1) : c;
    const double s = y + 1 < side ? g->at(x, y + 1) : c;
    const double w = x > 0 ? g->at(x - 1, y) : c;
    const double e = x + 1 < side ? g->at(x + 1, y) : c;
    return c + 0.18 * (n + s + e + w - 4.0 * c);
  });
}

using Maker = ServeKernel (*)(i64 count);

struct Entry {
  const char* name;
  Maker make;
};

/// Registry subset with wire-servable kernels, in registry display order
/// (NPB, then PARSEC, then Rodinia, then DataPar — matching
/// workload_names()).
constexpr Entry kServable[] = {
    {"CG", make_cg},
    {"EP", make_ep},
    {"FT", make_ft},
    {"blackscholes", make_blackscholes},
    {"streamcluster", make_streamcluster},
    {"particlefilter", make_particlefilter},
    {"histogram", make_histogram},
    {"spmv", make_spmv},
    {"scan", make_scan},
    {"transpose", make_transpose},
    {"stencil2d", make_stencil2d},
};

void set_error(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
}

/// The servable entry for (workload, count), or nullptr with `error` set.
const Entry* servable_entry(std::string_view workload, i64 count,
                            std::string* error) {
  // Registry membership first: an unknown name gets the registry's own
  // explicit error, never an assert or abort.
  std::string lookup_error;
  if (find_workload_or_error(workload, &lookup_error) == nullptr) {
    set_error(error, std::move(lookup_error));
    return nullptr;
  }
  const Entry* entry = nullptr;
  for (const Entry& e : kServable)
    if (workload == e.name) {
      entry = &e;
      break;
    }
  if (entry == nullptr) {
    std::string msg = "workload '";
    msg += workload;
    msg += "' has no wire-servable kernel (servable:";
    for (const auto& n : serve_kernel_names()) {
      msg += ' ';
      msg += n;
    }
    msg += ')';
    set_error(error, std::move(msg));
    return nullptr;
  }
  if (count < 1 || count > kMaxServeCount) {
    set_error(error, "count " + std::to_string(count) +
                         " outside [1, " + std::to_string(kMaxServeCount) +
                         "]");
    return nullptr;
  }
  return entry;
}

}  // namespace

bool validate_serve_kernel(std::string_view workload, i64 count,
                           std::string* error) {
  return servable_entry(workload, count, error) != nullptr;
}

std::optional<ServeKernel> make_serve_kernel(std::string_view workload,
                                             i64 count, std::string* error) {
  const Entry* entry = servable_entry(workload, count, error);
  if (entry == nullptr) return std::nullopt;
  return entry->make(count);
}

std::function<rt::RangeBody()> serve_kernel_builder(
    std::string workload, i64 count,
    std::shared_ptr<std::function<double()>> checksum) {
  return [workload = std::move(workload), count,
          checksum = std::move(checksum)] {
    std::string error;
    std::optional<ServeKernel> k = make_serve_kernel(workload, count, &error);
    if (!k.has_value()) throw std::invalid_argument(error);
    *checksum = std::move(k->checksum);
    return std::move(k->body);
  };
}

const std::vector<std::string>& serve_kernel_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Entry& e : kServable) v.emplace_back(e.name);
    return v;
  }();
  return names;
}

}  // namespace aid::workloads
