#!/usr/bin/env bash
# unreached_symbols.sh — list the out-of-line src/ functions that no program
# links: every bench/ binary, every examples/ binary and leafbench.
#
#   tools/unreached_symbols.sh [build-dir]     (default: build-unreached)
#
# Builds those programs at -O0 with one section per function and
# --gc-sections, so a function survives the link only if a program reaches
# it; -O0 also keeps header-inline functions out of line, so the linker sees
# their calls too.  Every leaf:: function defined in a src/ static library
# but absent from all program binaries is printed (a lambda goes with the
# function that defines it).  Names listed in tools/unreached_symbols.allow,
# each paired with the test that uses it, are skipped; an allowlist line
# whose symbol no src/ library defines, or that a program now links, is
# printed as stale, and so is one whose test has no TEST, TEST_F or TEST_P
# under tests/.  Exits 1 if anything is printed.  Takes about a minute
# on 4 cores.
#
# An inline function that nothing calls is never emitted at all, so this
# audit cannot see it: search for those by name.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$root/build-unreached"}
allow="$root/tools/unreached_symbols.allow"

programs=(leafbench)
for f in "$root"/bench/bench_*.cpp "$root"/examples/*.cpp; do
  programs+=("$(basename "$f" .cpp)")
done

# The leafbench project pulls in the repository as a subdirectory, so one
# configure builds the libraries once for all the programs.
cmake -S "$root/leafbench" -B "$build" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
cmake --build "$build" -j "$(nproc)" --target "${programs[@]}" >/dev/null

# Mangled names of the functions (global, weak and local text symbols).
functions() { nm --defined-only "$@" 2>/dev/null | awk '$2 ~ /^[TtWw]$/ { print $3 }' | sort -u; }

mapfile -t libs < <(find "$build/leaf/src" -name 'libleaf_*.a' | sort)
mapfile -t bins < <(find "$build" -maxdepth 3 -type f -perm -u+x \
  \( -name leafbench -o -name 'bench_*' -o -name quickstart -o -name leafctl \
     -o -name scheme_comparison -o -name capacity_planning \
     -o -name detector_comparison \) | sort)
if ((${#bins[@]} != ${#programs[@]})); then
  echo "unreached_symbols: found ${#bins[@]} binaries, expected ${#programs[@]}" >&2
  exit 2
fi

entries() {
  [[ -f "$allow" ]] || return 0
  grep -v '^[[:space:]]*\(#\|$\)' "$allow"
}
allowed() { entries | sed 's/^[^[:space:]]*[[:space:]]*//'; }

unreached=$(comm -23 <(functions "${libs[@]}") <(functions "${bins[@]}") |
  c++filt | grep -E '^([^ (]+ )?leaf::' | grep -vF '::{lambda(' | sort -u |
  grep -vxF -f <(allowed; echo '') || true)

# An allowlist line outlives its reason once the function is deleted or a
# program starts linking it.
lib_names=$(functions "${libs[@]}" | c++filt | sort -u)
bin_names=$(functions "${bins[@]}" | c++filt | sort -u)
stale=""
while IFS= read -r sym; do
  if ! grep -qxF -- "$sym" <<<"$lib_names"; then
    stale+="stale allowlist entry, no src/ library defines it: $sym"$'\n'
  elif grep -qxF -- "$sym" <<<"$bin_names"; then
    stale+="stale allowlist entry, a program links it: $sym"$'\n'
  fi
done < <(allowed)

# The test column is a claim too: a renamed or deleted test leaves a line
# that pairs the symbol with nothing.  A parameterized name
# (Prefix/Suite.Name/param) is matched by its Suite and Name.
while IFS= read -r test; do
  suite=${test%%.*}
  suite=${suite##*/}
  name=${test#*.}
  name=${name%%/*}
  s='[[:space:]]*'
  grep -rqE "TEST(_F|_P)?\($s$suite$s,$s$name$s\)" "$root/tests" ||
    stale+="stale allowlist entry, no test under tests/ is named: $test"$'\n'
done < <(entries | awk '{ print $1 }')

if [[ -n "$unreached" || -n "$stale" ]]; then
  [[ -z "$unreached" ]] || echo "$unreached"
  printf '%s' "$stale"
  exit 1
fi
