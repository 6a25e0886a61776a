// Iteration-cost models for the virtual-time engine.
//
// A CostModel answers: "how long does canonical iteration i take on a core
// of type t?" — the only property of a workload loop the schedulers can
// observe. Costs are expressed on the slowest core type and divided by the
// loop's per-type speedup factor SF_t (the paper's central quantity, Fig. 2).
//
// range_cost() exists so the engine charges a whole removed chunk in O(1)
// (closed forms for uniform/affine shapes, prefix sums for arbitrary ones):
// the simulation then scales with scheduler interactions, not iterations.
#pragma once

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "sched/iteration_space.h"

namespace aid::sim {

class CostModel {
 public:
  virtual ~CostModel() = default;

  /// Cost of one iteration on a core of the given type, in virtual ns.
  [[nodiscard]] virtual Nanos iter_cost(i64 iter, int core_type) const = 0;

  /// Cost of a contiguous range; default accumulates iter_cost.
  [[nodiscard]] virtual Nanos range_cost(sched::IterRange r,
                                         int core_type) const {
    Nanos total = 0;
    for (i64 i = r.begin; i < r.end; ++i) total += iter_cost(i, core_type);
    return total;
  }
};

namespace detail {
/// Per-type divisor lookup with SF[0] == 1 convention.
inline double sf_of(const std::vector<double>& sf, int core_type) {
  AID_DCHECK(core_type >= 0);
  if (sf.empty()) return 1.0;
  const usize t = static_cast<usize>(core_type) < sf.size()
                      ? static_cast<usize>(core_type)
                      : sf.size() - 1;
  return sf[t] > 0.0 ? sf[t] : 1.0;
}
}  // namespace detail

/// Every iteration costs the same on a given core type.
class UniformCostModel final : public CostModel {
 public:
  /// `cost_small_ns`: per-iteration cost on the slowest type; `sf[t]`: the
  /// loop's speedup factor of type t relative to type 0 (sf[0] must be 1).
  UniformCostModel(double cost_small_ns, std::vector<double> sf)
      : cost_(cost_small_ns), sf_(std::move(sf)) {
    AID_CHECK(cost_small_ns >= 0.0);
  }

  [[nodiscard]] Nanos iter_cost(i64, int core_type) const override {
    return static_cast<Nanos>(cost_ / detail::sf_of(sf_, core_type));
  }
  [[nodiscard]] Nanos range_cost(sched::IterRange r,
                                 int core_type) const override {
    const double per = cost_ / detail::sf_of(sf_, core_type);
    return static_cast<Nanos>(per * static_cast<double>(r.size()));
  }

 private:
  double cost_;
  std::vector<double> sf_;
};

/// cost_small(i) = base + slope * i  (the particlefilter-style ramp where
/// final iterations are heavier, paper Sec. 5A). slope may be negative as
/// long as every iteration stays positive.
class AffineCostModel final : public CostModel {
 public:
  AffineCostModel(double base_ns, double slope_ns, i64 count,
                  std::vector<double> sf)
      : base_(base_ns), slope_(slope_ns), sf_(std::move(sf)) {
    AID_CHECK(count >= 0);
    AID_CHECK_MSG(base_ns > 0.0 && base_ns + slope_ns * static_cast<double>(
                                                count > 0 ? count - 1 : 0) >
                                       0.0,
                  "affine cost must stay positive over the loop");
  }

  [[nodiscard]] Nanos iter_cost(i64 iter, int core_type) const override {
    const double c = base_ + slope_ * static_cast<double>(iter);
    return static_cast<Nanos>(c / detail::sf_of(sf_, core_type));
  }
  [[nodiscard]] Nanos range_cost(sched::IterRange r,
                                 int core_type) const override {
    // Sum of an arithmetic series over [begin, end).
    const double n = static_cast<double>(r.size());
    const double first = base_ + slope_ * static_cast<double>(r.begin);
    const double last = base_ + slope_ * static_cast<double>(r.end - 1);
    return static_cast<Nanos>(0.5 * n * (first + last) /
                              detail::sf_of(sf_, core_type));
  }

 private:
  double base_;
  double slope_;
  std::vector<double> sf_;
};

/// Arbitrary per-iteration costs with O(1) range queries via prefix sums
/// (irregular workloads: FT transpose strides, leukocyte cell detection...).
class TableCostModel final : public CostModel {
 public:
  TableCostModel(std::vector<double> cost_small_ns, std::vector<double> sf)
      : sf_(std::move(sf)) {
    prefix_.resize(cost_small_ns.size() + 1, 0.0);
    for (usize i = 0; i < cost_small_ns.size(); ++i) {
      AID_CHECK(cost_small_ns[i] >= 0.0);
      prefix_[i + 1] = prefix_[i] + cost_small_ns[i];
    }
  }

  [[nodiscard]] i64 count() const {
    return static_cast<i64>(prefix_.size()) - 1;
  }

  [[nodiscard]] Nanos iter_cost(i64 iter, int core_type) const override {
    AID_DCHECK(iter >= 0 && iter < count());
    const double c = prefix_[static_cast<usize>(iter) + 1] -
                     prefix_[static_cast<usize>(iter)];
    return static_cast<Nanos>(c / detail::sf_of(sf_, core_type));
  }
  [[nodiscard]] Nanos range_cost(sched::IterRange r,
                                 int core_type) const override {
    AID_DCHECK(r.begin >= 0 && r.end <= count());
    const double c = prefix_[static_cast<usize>(r.end)] -
                     prefix_[static_cast<usize>(r.begin)];
    return static_cast<Nanos>(c / detail::sf_of(sf_, core_type));
  }

 private:
  std::vector<double> prefix_;
  std::vector<double> sf_;
};

}  // namespace aid::sim
