// Unit tests for the text-output helpers: CSV writer, number formatting,
// TextTable, and the ASCII chart renderers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/ascii_plot.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace leaf {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Csv, WritesRows) {
  const std::string path = ::testing::TempDir() + "/t1.csv";
  {
    CsvWriter w(path);
    ASSERT_TRUE(w.ok());
    w.row({"a", "b"});
    w.row({"1", "2"});
  }
  EXPECT_EQ(slurp(path), "a,b\n1,2\n");
}

TEST(Csv, QuotesFieldsWithCommasAndQuotes) {
  const std::string path = ::testing::TempDir() + "/t2.csv";
  {
    CsvWriter w(path);
    w.row({"x,y", "he said \"hi\""});
  }
  EXPECT_EQ(slurp(path), "\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(Csv, UnwritablePathFailsLoudly) {
  // A path whose parent directory does not exist cannot be opened.
  const std::string path =
      ::testing::TempDir() + "/no-such-dir-xyzzy/out.csv";
  CsvWriter w(path);
  EXPECT_FALSE(w.ok());
  w.row({"a", "b"});  // writes to a dead stream must not crash
  EXPECT_FALSE(w.finish());
  // The error message names the offending path.
  EXPECT_NE(w.error().find(path), std::string::npos) << w.error();
}

TEST(Csv, FinishReportsOkOnHealthyWriter) {
  const std::string path = ::testing::TempDir() + "/t4.csv";
  CsvWriter w(path);
  w.row({"a"});
  EXPECT_TRUE(w.finish());
  EXPECT_EQ(w.path(), path);
  EXPECT_EQ(slurp(path), "a\n");
}

TEST(Fmt, CompactDouble) {
  EXPECT_EQ(fmt(1.0), "1");
  EXPECT_EQ(fmt(0.123456789), "0.123457");
}

TEST(Fmt, FixedDigits) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_fixed(-0.5, 3), "-0.500");
}

TEST(Fmt, Percent) {
  EXPECT_EQ(fmt_pct(-32.675), "-32.67%");
  EXPECT_EQ(fmt_pct(0.0), "0.00%");
}

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"Name", "Value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"beta", "-2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-2"), std::string::npos);
  // Numeric cells right-align: "-2" should be preceded by spaces.
  EXPECT_NE(out.find("  -2 |"), std::string::npos);
}

TEST(TextTable, RuleProducesSeparator) {
  TextTable t({"A"});
  t.add_row({"x"});
  t.add_rule();
  t.add_row({"y"});
  const std::string out = t.render();
  // Expect at least 4 horizontal rules (top, under header, mid, bottom).
  std::size_t rules = 0, pos = 0;
  while ((pos = out.find("+-", pos)) != std::string::npos) {
    ++rules;
    pos += 2;
  }
  EXPECT_GE(rules, 4u);
}

TEST(AsciiPlot, LineChartContainsGlyphAndLegend) {
  const std::vector<double> ys = {0.0, 1.0, 2.0, 3.0, 2.0, 1.0};
  const std::string out = plot::line_chart({{"series-a", ys}});
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("series-a"), std::string::npos);
}

TEST(AsciiPlot, LineChartEmptyIsSafe) {
  EXPECT_EQ(plot::line_chart({}), "(empty chart)\n");
}

TEST(AsciiPlot, LineChartAllNaNIsSafe) {
  const std::vector<double> ys(10, std::nan(""));
  EXPECT_EQ(plot::line_chart({{"x", ys}}), "(no finite data)\n");
}

TEST(AsciiPlot, HeatMapSequential) {
  Matrix m(4, 6);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 6; ++c) m(r, c) = static_cast<double>(r + c);
  const std::string out = plot::heat_map(m);
  EXPECT_NE(out.find('@'), std::string::npos);  // max ramp glyph present
  EXPECT_NE(out.find("ramp"), std::string::npos);
}

TEST(AsciiPlot, HeatMapDivergingShowsBothSigns) {
  Matrix m(2, 10);
  for (std::size_t c = 0; c < 10; ++c) {
    m(0, c) = 1.0;
    m(1, c) = -1.0;
  }
  plot::HeatMapOptions opts;
  opts.diverging = true;
  const std::string out = plot::heat_map(m, opts);
  EXPECT_NE(out.find('@'), std::string::npos);  // strong positive
  EXPECT_NE(out.find('#'), std::string::npos);  // strong negative
}

TEST(AsciiPlot, HeatMapEmptySafe) {
  EXPECT_EQ(plot::heat_map(Matrix{}), "(empty heat map)\n");
}

TEST(AsciiPlot, BarChartProportionalLengths) {
  const std::string out = plot::bar_chart({{"big", 10.0}, {"small", 1.0}}, 40);
  // "big" bar should contain many '=', "small" few.
  const auto big_pos = out.find("big");
  const auto small_pos = out.find("small");
  ASSERT_NE(big_pos, std::string::npos);
  ASSERT_NE(small_pos, std::string::npos);
  const auto count_eq = [&](std::size_t from) {
    std::size_t n = 0;
    for (std::size_t i = from; i < out.size() && out[i] != '\n'; ++i)
      if (out[i] == '=') ++n;
    return n;
  };
  EXPECT_GT(count_eq(big_pos), count_eq(small_pos) * 5);
}

}  // namespace
}  // namespace leaf
