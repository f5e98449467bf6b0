// ASCII renderers for the paper's figures.
//
// The benches print each figure's underlying data as CSV *and* as a quick
// terminal rendering so the shape (COVID spike, gradual 2021 drift,
// LEAgram over/under-estimation bands) is visible without a plotting
// stack.  Line charts use a fixed character grid; heat maps (LEAgram) use
// a signed shade ramp.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/matrix.hpp"

namespace leaf::plot {

struct LineChartOptions {
  int width = 100;       ///< plot columns (excluding axis labels)
  int height = 16;       ///< plot rows
  std::string title;
  std::string x_label;
  std::string y_label;
  /// Optional labels placed under the x axis at proportional positions.
  std::vector<std::string> x_ticks;
};

/// Renders one or more series on a shared y axis.  Series are drawn with
/// distinct glyphs ('*', '+', 'o', 'x', ...) and a legend line mapping
/// glyph -> name.  NaN values leave gaps (used for data-loss windows).
std::string line_chart(const std::vector<std::pair<std::string, std::vector<double>>>& series,
                       const LineChartOptions& opts = {});

struct HeatMapOptions {
  std::string title;
  std::string x_label;
  std::string y_label;
  /// When true values are signed and rendered on a diverging ramp
  /// ('#' strong negative .. ' ' zero .. '@' strong positive); otherwise a
  /// sequential ramp is used.
  bool diverging = false;
};

/// Renders a matrix as an ASCII heat map, downsampling by averaging when
/// the matrix exceeds the character budget (120 columns by 40 rows).  NaN
/// cells render as '.'.
std::string heat_map(const Matrix& values, const HeatMapOptions& opts = {});

/// Renders a horizontal bar chart (used for feature-importance rankings).
std::string bar_chart(const std::vector<std::pair<std::string, double>>& bars,
                      int width = 60, const std::string& title = {});

}  // namespace leaf::plot
