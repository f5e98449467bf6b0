// Tiny CSV writer used by the bench harnesses to dump the series behind
// each paper figure (LEAplot / LEAgram / NRMSE time-series) so they can be
// re-plotted externally.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace leaf {

class CsvWriter {
 public:
  /// Opens `path` for writing (truncates).  `ok()` reports failure instead
  /// of throwing so benches can degrade to stdout-only.
  explicit CsvWriter(const std::string& path);

  /// True while every write so far has succeeded (stream errors are
  /// sticky, so a full disk or vanished directory makes this false for
  /// good — silent truncated CSVs were a real failure mode).
  bool ok() const { return static_cast<bool>(out_); }
  /// The path this writer targets, for error reporting.
  const std::string& path() const { return path_; }

  /// Flushes and reports whether the whole file made it to disk.  Call at
  /// end of life; `error()` names the path on failure.
  bool finish();
  /// Empty when ok; otherwise a one-line description carrying the path.
  std::string error() const;

  /// Writes one row; fields are quoted only when they contain separators.
  void row(std::initializer_list<std::string_view> fields);
  void row(const std::vector<std::string>& fields);

 private:
  void write_field(std::string_view f, bool first);
  std::string path_;
  std::ofstream out_;
};

/// Formats a double compactly ("%.6g").
std::string fmt(double v);
/// Formats with fixed precision.
std::string fmt_fixed(double v, int digits);
/// Formats a percentage with two decimals, e.g. "-32.67%".
std::string fmt_pct(double fraction_times_100);

}  // namespace leaf
