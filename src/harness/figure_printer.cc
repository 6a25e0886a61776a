#include "harness/figure_printer.h"

#include <ostream>
#include <set>

#include "common/check.h"
#include "common/stats.h"
#include "common/table.h"

namespace aid::harness {

double column_geomean(const FigureData& data, usize config) {
  std::vector<double> col;
  for (const auto& row : data.normalized) col.push_back(row[config]);
  return stats::gmean(col);
}

usize config_index(const FigureData& data, const std::string& label) {
  for (usize c = 0; c < data.config_labels.size(); ++c)
    if (data.config_labels[c] == label) return c;
  AID_CHECK_MSG(false, "unknown config label");
  return 0;
}

void print_figure(std::ostream& os, const FigureData& data,
                  const std::string& title) {
  os << title << '\n';
  os << "(normalized performance vs " << data.config_labels[0]
     << "; higher is better)\n\n";

  // Preserve first-appearance suite order, one sub-table per suite as in
  // the paper's subfigures.
  std::vector<std::string> suites;
  for (const auto& s : data.app_suites)
    if (std::find(suites.begin(), suites.end(), s) == suites.end())
      suites.push_back(s);

  for (const auto& suite : suites) {
    std::vector<std::string> header{"benchmark (" + suite + ")"};
    for (const auto& label : data.config_labels) header.push_back(label);
    TextTable table(std::move(header));
    for (usize a = 0; a < data.app_names.size(); ++a) {
      if (data.app_suites[a] != suite) continue;
      table.row().cell(data.app_names[a]);
      for (double v : data.normalized[a]) table.cell(v, 3);
    }
    table.print(os);
    os << '\n';
  }

  TextTable summary([&] {
    std::vector<std::string> header{"geomean (all apps)"};
    for (const auto& label : data.config_labels) header.push_back(label);
    return header;
  }());
  summary.row().cell(std::string("normalized perf"));
  for (usize c = 0; c < data.config_labels.size(); ++c)
    summary.cell(column_geomean(data, c), 3);
  summary.print(os);
  os << '\n';
}

}  // namespace aid::harness
