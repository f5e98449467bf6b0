// The `key=value,key=value` spec grammar shared by the chaos schedule
// (LEAF_CHAOS / --chaos) and the SLO thresholds (--slo): one tokenizer and
// the typed value parsers both use.  Every error is a
// std::invalid_argument whose message starts with the caller's prefix
// ("chaos", "slo").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace leaf::spec {

using Item = std::pair<std::string, std::string>;

/// Splits `spec` on ',' into (key, value) items in order.  Empty items
/// (",," or a trailing comma) are skipped; an item without '=' or with an
/// empty key or value throws.
std::vector<Item> split(std::string_view spec, std::string_view prefix);

/// A finite decimal number in [lo, hi].  Rejects NaN, infinities, leading
/// blanks, a '+' sign and trailing characters.
double real_in(std::string_view prefix, const std::string& key,
               const std::string& value, double lo, double hi);

/// A decimal integer in [lo, hi] written with digits only: a sign (so
/// "-1" never wraps to 2^64 - 1), blanks, and values past `hi` throw.
std::uint64_t uint_in(std::string_view prefix, const std::string& key,
                      const std::string& value, std::uint64_t lo,
                      std::uint64_t hi);

}  // namespace leaf::spec
