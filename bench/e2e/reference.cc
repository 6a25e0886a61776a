#include "reference.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "common/affinity.h"
#include "common/spin_work.h"

namespace aid::e2e {

Reference::Reference(const platform::TeamLayout& layout, bool emulate)
    : n_(static_cast<usize>(layout.nthreads())),
      busy_(n_),
      start_(static_cast<std::ptrdiff_t>(n_) + 1),
      kernel_(static_cast<std::ptrdiff_t>(n_)),
      done_(static_cast<std::ptrdiff_t>(n_) + 1) {
  double fastest = 0.0;
  for (usize t = 0; t < n_; ++t)
    fastest = std::max(fastest, layout.speed_of(static_cast<int>(t)));
  std::map<double, std::vector<usize>> by_speed;
  for (usize t = 0; t < n_; ++t) {
    const double speed = layout.speed_of(static_cast<int>(t));
    slowdown_.push_back(emulate ? fastest / speed : 1.0);
    by_speed[speed].push_back(t);
  }
  for (auto& entry : by_speed) types_.push_back(std::move(entry.second));
  for (usize t = 0; t < n_; ++t)
    threads_.emplace_back([this, t, core = layout.core_of(static_cast<int>(t))] {
      try_bind_to_core(core);
      for (;;) {
        start_.arrive_and_wait();
        if (stop_) return;
        work(t);
        done_.arrive_and_wait();
      }
    });
}

Reference::~Reference() {
  stop_ = true;
  start_.arrive_and_wait();
}

Reference::Times Reference::run(
    const std::vector<const workloads::ServeKernel*>& kernels) {
  kernels_ = &kernels;
  if (next_.size() < kernels.size())
    next_ = std::vector<Padded<std::atomic<i64>>>(kernels.size());
  for (std::vector<double>& b : busy_) b.assign(kernels.size(), 0.0);
  Times out;
  std::tie(out.equal, out.balanced) = pass(false);
  out.dynamic = pass(true).first;
  return out;
}

std::pair<double, double> Reference::pass(bool dynamic) {
  const std::vector<const workloads::ServeKernel*>& kernels = *kernels_;
  dynamic_ = dynamic;
  for (usize j = 0; j < kernels.size(); ++j)
    next_[j]->store(0, std::memory_order_relaxed);
  const i64 t0 = now_ns();
  start_.arrive_and_wait();
  done_.arrive_and_wait();
  const double wall = static_cast<double>(now_ns() - t0);
  double balanced = wall;
  if (dynamic) return {wall, balanced};
  for (usize j = 0; j < kernels.size(); ++j) {
    double slowest = 0.0;
    double rate = 0.0;
    for (const std::vector<usize>& type : types_) {
      double sum = 0.0;
      for (const usize t : type) sum += busy_[t][j];
      const double mean = std::max(1.0, sum / static_cast<double>(type.size()));
      slowest = std::max(slowest, mean);
      rate += static_cast<double>(type.size()) / mean;
    }
    balanced -= slowest - static_cast<double>(n_) / rate;
  }
  return {wall, balanced};
}

void Reference::work(usize t) {
  const std::vector<const workloads::ServeKernel*>& kernels = *kernels_;
  const rt::WorkerInfo info{static_cast<int>(t)};
  const double charge = slowdown_[t] - 1.0;
  const auto body = [&](const workloads::ServeKernel& k, i64 b, i64 e) {
    const i64 t0 = charge > 0.0 ? now_ns() : 0;
    k.body(b, e, info);
    if (charge > 0.0)
      spin_for_nanos(static_cast<Nanos>(
          charge * static_cast<double>(now_ns() - t0)));
  };
  const i64 n = static_cast<i64>(n_);
  const i64 ti = static_cast<i64>(t);
  for (usize j = 0; j < kernels.size(); ++j) {
    const workloads::ServeKernel& k = *kernels[j];
    const i64 t0 = now_ns();
    if (dynamic_) {
      for (i64 i; (i = next_[j]->fetch_add(1, std::memory_order_relaxed)) <
                  k.count;)
        body(k, i, i + 1);
    } else {
      body(k, k.count * ti / n, k.count * (ti + 1) / n);
    }
    busy_[t][j] = static_cast<double>(now_ns() - t0);
    kernel_.arrive_and_wait();
  }
}

}  // namespace aid::e2e
