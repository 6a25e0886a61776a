#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/check.h"

namespace aid {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  AID_CHECK_MSG(!header_.empty(), "table needs at least one column");
}

TextTable& TextTable::row() {
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
  return *this;
}

TextTable& TextTable::cell(std::string text) {
  AID_CHECK_MSG(!rows_.empty(), "call row() before cell()");
  rows_.back().push_back(std::move(text));
  return *this;
}

TextTable& TextTable::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

TextTable& TextTable::cell(i64 value) { return cell(std::to_string(value)); }

void TextTable::print(std::ostream& os) const {
  std::vector<usize> width(header_.size());
  for (usize c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_)
    for (usize c = 0; c < r.size() && c < width.size(); ++c)
      width[c] = std::max(width[c], r[c].size());

  const auto emit = [&](const std::vector<std::string>& cells) {
    for (usize c = 0; c < width.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string();
      os << text << std::string(width[c] - text.size(), ' ');
      os << (c + 1 < width.size() ? "  " : "");
    }
    os << '\n';
  };

  emit(header_);
  usize total = 0;
  for (usize w : width) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
}

std::string ascii_bar(double value, double max_value, int max_width) {
  if (max_value <= 0.0 || value <= 0.0 || max_width <= 0) return "";
  const double frac = std::min(1.0, value / max_value);
  const int n = static_cast<int>(frac * max_width + 0.5);
  return std::string(static_cast<usize>(n), '#');
}

}  // namespace aid
