// Descriptive statistics used by the experiment harness.
//
// The paper's protocol (Sec. 5): run each program five times, discard the
// first run, report the geometric mean of the remaining four. Table 2 reports
// arithmetic mean and geometric mean of relative gains.
#pragma once

#include <span>

namespace aid::stats {

/// Arithmetic mean; 0 for an empty input.
[[nodiscard]] double mean(std::span<const double> xs);

/// Geometric mean; requires all elements > 0. 0 for an empty input.
[[nodiscard]] double gmean(std::span<const double> xs);

/// The paper's repetition protocol: drop the first element (warm-up run that
/// pages in input data), return the geometric mean of the rest. Requires at
/// least two elements.
[[nodiscard]] double paper_protocol_time(std::span<const double> run_times);

}  // namespace aid::stats
