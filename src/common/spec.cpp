#include "common/spec.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "common/csv.hpp"

namespace leaf::spec {

namespace {

[[noreturn]] void fail(std::string_view prefix, const std::string& key,
                       const std::string& value, const std::string& want) {
  throw std::invalid_argument(std::string(prefix) + ": '" + key + "' needs " +
                              want + ", got '" + value + "'");
}

}  // namespace

std::vector<Item> split(std::string_view spec, std::string_view prefix) {
  std::vector<Item> items;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size())
      throw std::invalid_argument(std::string(prefix) +
                                  ": expected key=value, got '" +
                                  std::string(item) + "'");
    items.emplace_back(std::string(item.substr(0, eq)),
                       std::string(item.substr(eq + 1)));
  }
  return items;
}

double real_in(std::string_view prefix, const std::string& key,
               const std::string& value, double lo, double hi) {
  double v = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < lo ||
      v > hi)
    fail(prefix, key, value, "a number in [" + fmt(lo) + ", " + fmt(hi) + "]");
  return v;
}

std::uint64_t uint_in(std::string_view prefix, const std::string& key,
                      const std::string& value, std::uint64_t lo,
                      std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi)
    fail(prefix, key, value,
         "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
             "]");
  return v;
}

}  // namespace leaf::spec
