// Plain-text tables for the figure/table harnesses.
//
// Every bench binary prints the same rows/series the paper reports; this
// module keeps the formatting uniform (fixed-width aligned columns).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.h"

namespace aid {

/// Column-aligned text table. Cells are strings; numeric helpers format with
/// a fixed precision so diffs between runs stay readable.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Begin a new row; subsequent add_* calls append cells to it.
  TextTable& row();
  TextTable& cell(std::string text);
  TextTable& cell(double value, int precision = 3);
  TextTable& cell(i64 value);

  /// Render with columns padded to their widest cell.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper shared with TextTable).
[[nodiscard]] std::string format_double(double value, int precision = 3);

/// Render a horizontal bar of width proportional to `value`, capped at
/// `max_width` characters when value == `max_value`. Used by the ASCII
/// figure printers to sketch bar charts next to the numbers.
[[nodiscard]] std::string ascii_bar(double value, double max_value,
                                    int max_width = 40);

}  // namespace aid
