#include "common/ascii_plot.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace leaf::plot {

namespace {

constexpr const char* kGlyphs = "*+ox^#%&";

/// Heat-map character budget; larger matrices are downsampled.
constexpr std::size_t kHeatMapMaxWidth = 120;
constexpr std::size_t kHeatMapMaxHeight = 40;

std::string format_tick(double v) {
  char buf[32];
  if (std::abs(v) >= 1000.0 || (std::abs(v) < 0.01 && v != 0.0)) {
    std::snprintf(buf, sizeof buf, "%9.2e", v);
  } else {
    std::snprintf(buf, sizeof buf, "%9.3f", v);
  }
  return buf;
}

}  // namespace

std::string line_chart(
    const std::vector<std::pair<std::string, std::vector<double>>>& series,
    const LineChartOptions& opts) {
  std::ostringstream out;
  if (series.empty()) return "(empty chart)\n";

  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::size_t n = 0;
  for (const auto& [name, ys] : series) {
    n = std::max(n, ys.size());
    for (double y : ys) {
      if (!std::isfinite(y)) continue;
      lo = std::min(lo, y);
      hi = std::max(hi, y);
    }
  }
  if (!std::isfinite(lo) || n == 0) return "(no finite data)\n";
  if (hi <= lo) hi = lo + 1.0;

  const int W = std::max(10, opts.width);
  const int H = std::max(4, opts.height);
  std::vector<std::string> grid(static_cast<std::size_t>(H),
                                std::string(static_cast<std::size_t>(W), ' '));

  for (std::size_t s = 0; s < series.size(); ++s) {
    const auto& ys = series[s].second;
    const char glyph = kGlyphs[s % 8];
    for (int x = 0; x < W; ++x) {
      // Average the samples mapping onto this column.
      const std::size_t i0 =
          static_cast<std::size_t>(static_cast<double>(x) * static_cast<double>(ys.size()) / W);
      const std::size_t i1 = std::max<std::size_t>(
          i0 + 1, static_cast<std::size_t>(static_cast<double>(x + 1) *
                                           static_cast<double>(ys.size()) / W));
      double acc = 0.0;
      int cnt = 0;
      for (std::size_t i = i0; i < std::min(i1, ys.size()); ++i) {
        if (std::isfinite(ys[i])) {
          acc += ys[i];
          ++cnt;
        }
      }
      if (cnt == 0) continue;
      const double v = acc / cnt;
      int row = static_cast<int>(std::lround((hi - v) / (hi - lo) * (H - 1)));
      row = std::clamp(row, 0, H - 1);
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(x)] = glyph;
    }
  }

  if (!opts.title.empty()) out << opts.title << '\n';
  for (int r = 0; r < H; ++r) {
    const double v = hi - (hi - lo) * static_cast<double>(r) / (H - 1);
    const bool label_row = (r == 0 || r == H - 1 || r == H / 2);
    out << (label_row ? format_tick(v) : std::string(9, ' ')) << " |"
        << grid[static_cast<std::size_t>(r)] << '\n';
  }
  out << std::string(10, ' ') << '+' << std::string(static_cast<std::size_t>(W), '-') << '\n';
  if (!opts.x_ticks.empty()) {
    std::string axis(static_cast<std::size_t>(W) + 11, ' ');
    for (std::size_t t = 0; t < opts.x_ticks.size(); ++t) {
      const std::size_t pos =
          11 + static_cast<std::size_t>(static_cast<double>(t) * (W - 1) /
                                        std::max<std::size_t>(1, opts.x_ticks.size() - 1));
      const std::string& tick = opts.x_ticks[t];
      for (std::size_t c = 0; c < tick.size() && pos + c < axis.size(); ++c)
        axis[pos + c] = tick[c];
    }
    out << axis << '\n';
  }
  if (!opts.x_label.empty()) out << "  x: " << opts.x_label << '\n';
  if (!opts.y_label.empty()) out << "  y: " << opts.y_label << '\n';
  out << "  legend:";
  for (std::size_t s = 0; s < series.size(); ++s)
    out << "  [" << kGlyphs[s % 8] << "] " << series[s].first;
  out << '\n';
  return out.str();
}

std::string heat_map(const Matrix& values, const HeatMapOptions& opts) {
  std::ostringstream out;
  if (values.empty()) return "(empty heat map)\n";

  const std::size_t R = values.rows();
  const std::size_t C = values.cols();
  const std::size_t H = std::min(R, kHeatMapMaxHeight);
  const std::size_t W = std::min(C, kHeatMapMaxWidth);

  // Downsample by block averaging.
  Matrix cells(H, W, std::numeric_limits<double>::quiet_NaN());
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < H; ++r) {
    const std::size_t r0 = r * R / H, r1 = std::max(r0 + 1, (r + 1) * R / H);
    for (std::size_t c = 0; c < W; ++c) {
      const std::size_t c0 = c * C / W, c1 = std::max(c0 + 1, (c + 1) * C / W);
      double acc = 0.0;
      int cnt = 0;
      for (std::size_t i = r0; i < r1; ++i)
        for (std::size_t j = c0; j < c1; ++j)
          if (std::isfinite(values(i, j))) {
            acc += values(i, j);
            ++cnt;
          }
      if (cnt > 0) {
        const double v = acc / cnt;
        cells(r, c) = v;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
  }
  if (!std::isfinite(lo)) return "(no finite data)\n";

  if (!opts.title.empty()) out << opts.title << '\n';
  if (opts.diverging) {
    const double m = std::max(std::abs(lo), std::abs(hi));
    static constexpr const char* kNeg = "#X/-";  // strong .. weak negative
    static constexpr const char* kPos = ".:o@";  // weak .. strong positive
    for (std::size_t r = 0; r < H; ++r) {
      out << '|';
      for (std::size_t c = 0; c < W; ++c) {
        const double v = cells(r, c);
        if (!std::isfinite(v)) {
          out << ' ';
          continue;
        }
        const double t = m > 0 ? v / m : 0.0;  // [-1, 1]
        if (t < -0.03) {
          const int idx = std::clamp(static_cast<int>((1.0 + t) * 4.0), 0, 3);
          out << kNeg[idx];
        } else if (t > 0.03) {
          const int idx = std::clamp(static_cast<int>(t * 4.0), 0, 3);
          out << kPos[idx];
        } else {
          out << ' ';
        }
      }
      out << "|\n";
    }
    out << "  ramp: '#'=strong under-est  ' '=0  '@'=strong over-est"
        << "  (range +-" << format_tick(m) << ")\n";
  } else {
    static constexpr const char* kRamp = " .:-=+*#%@";
    const double span = hi > lo ? hi - lo : 1.0;
    for (std::size_t r = 0; r < H; ++r) {
      out << '|';
      for (std::size_t c = 0; c < W; ++c) {
        const double v = cells(r, c);
        if (!std::isfinite(v)) {
          out << '.';
          continue;
        }
        const int idx = std::clamp(static_cast<int>((v - lo) / span * 9.0), 0, 9);
        out << kRamp[idx];
      }
      out << "|\n";
    }
    out << "  ramp: ' '=" << format_tick(lo) << "  '@'=" << format_tick(hi) << '\n';
  }
  if (!opts.x_label.empty()) out << "  x: " << opts.x_label << '\n';
  if (!opts.y_label.empty()) out << "  y: " << opts.y_label << '\n';
  return out.str();
}

std::string bar_chart(const std::vector<std::pair<std::string, double>>& bars,
                      int width, const std::string& title) {
  std::ostringstream out;
  if (!title.empty()) out << title << '\n';
  if (bars.empty()) return out.str() + "(no bars)\n";
  double hi = 0.0;
  std::size_t label_w = 0;
  for (const auto& [name, v] : bars) {
    hi = std::max(hi, std::abs(v));
    label_w = std::max(label_w, name.size());
  }
  if (hi <= 0.0) hi = 1.0;
  for (const auto& [name, v] : bars) {
    const int len = static_cast<int>(std::lround(std::abs(v) / hi * width));
    out << "  " << name << std::string(label_w - name.size(), ' ') << " |"
        << std::string(static_cast<std::size_t>(len), '=') << ' '
        << format_tick(v) << '\n';
  }
  return out.str();
}

}  // namespace leaf::plot
