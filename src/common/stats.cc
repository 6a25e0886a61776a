#include "common/stats.h"

#include <cmath>

#include "common/check.h"

namespace aid::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double gmean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    AID_CHECK_MSG(x > 0.0, "gmean requires strictly positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double paper_protocol_time(std::span<const double> run_times) {
  AID_CHECK_MSG(run_times.size() >= 2,
                "paper protocol needs a warm-up run plus measured runs");
  return gmean(run_times.subspan(1));
}

}  // namespace aid::stats
