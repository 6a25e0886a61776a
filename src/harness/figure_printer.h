// Shared rendering for the figure/table benches.
#pragma once

#include <iosfwd>
#include <string>

#include "harness/experiment.h"

namespace aid::harness {

/// Print a Fig. 6/7-style normalized-performance table, one sub-table per
/// suite (as the paper splits its subfigures), plus per-config geomeans.
void print_figure(std::ostream& os, const FigureData& data,
                  const std::string& title);

/// Geomean of one config column across all apps.
[[nodiscard]] double column_geomean(const FigureData& data, usize config);

/// Index of a config label; aborts if absent.
[[nodiscard]] usize config_index(const FigureData& data,
                                 const std::string& label);

}  // namespace aid::harness
