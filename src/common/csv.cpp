#include "common/csv.hpp"

#include <cstdio>

namespace leaf {

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {}

bool CsvWriter::finish() {
  if (out_.is_open()) out_.flush();
  return ok();
}

std::string CsvWriter::error() const {
  if (ok()) return {};
  return "csv write failed: " + path_ +
         " (disk full, unwritable directory, or closed stream)";
}

void CsvWriter::write_field(std::string_view f, bool first) {
  if (!first) out_ << ',';
  const bool needs_quote =
      f.find_first_of(",\"\n") != std::string_view::npos;
  if (!needs_quote) {
    out_ << f;
    return;
  }
  out_ << '"';
  for (char c : f) {
    if (c == '"') out_ << '"';
    out_ << c;
  }
  out_ << '"';
}

void CsvWriter::row(std::initializer_list<std::string_view> fields) {
  bool first = true;
  for (auto f : fields) {
    write_field(f, first);
    first = false;
  }
  out_ << '\n';
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& f : fields) {
    write_field(f, first);
    first = false;
  }
  out_ << '\n';
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_fixed(double v, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string fmt_pct(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f%%", value);
  return buf;
}

}  // namespace leaf
