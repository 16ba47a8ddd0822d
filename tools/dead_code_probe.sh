#!/usr/bin/env bash
# Dead-code probe: lists every iotax:: function that libiotax.a defines
# and no linked executable keeps.
#
#   tools/dead_code_probe.sh BUILD_DIR [PERFBENCH_BUILD_DIR]
#
# The build must keep every function out of line and let the linker drop
# what nothing reaches:
#
#   cmake -B build-probe -S . -DCMAKE_BUILD_TYPE=Debug \
#     -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
#     -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
#     -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
#
# (the same flags for perfbench/ into PERFBENCH_BUILD_DIR). Each function
# then sits in a section of its own, so a library symbol that appears in
# no executable's symbol table was dropped as unreachable.
#
# Executables whose name contains "test" are test binaries. A library
# function kept by none of the executables is dead; one kept only by test
# binaries is test-only. Prints both lists (demangled, one function a
# line) and exits 1 if any dead function is outside the allow-list below.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 BUILD_DIR [PERFBENCH_BUILD_DIR]" >&2
  exit 2
fi

# Functions no executable calls that must still be defined. Each entry
# names the language rule that needs it.
allow=(
  # `return out;` of a named local in BinnedMatrix::encode_all_ooc needs
  # an accessible move constructor even though NRVO elides every call
  # ([class.copy.elision]/3).
  'iotax::ml::EncodedCodes::EncodedCodes(iotax::ml::EncodedCodes&&)'
)

lib=$(find "$1" -name libiotax.a -not -path '*/CMakeFiles/*' 2>/dev/null |
        head -n 1 || true)
if [[ -z "$lib" ]]; then
  echo "dead_code_probe: no libiotax.a under $1" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Mangled text symbols (global, local and weak) in namespace iotax,
# including member functions, thunks and lambdas local to iotax functions.
iotax_text_symbols() {
  nm --defined-only "$1" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ { print $3 }' |
    grep -E '^_Z(T[hv][n0-9_]*)?Z?NK?5iotax' | sort -u || true
}

iotax_text_symbols "$lib" > "$work/lib"
: > "$work/bin"
: > "$work/test"
n_bin=0
n_test=0
while IFS= read -r exe; do
  # ELF executables only: skip scripts and CMake's compiler probes.
  [[ "$(head -c 4 "$exe" | od -An -c | tr -d ' ')" == '177ELF' ]] || continue
  case "$(basename "$exe")" in
    *test*) iotax_text_symbols "$exe" >> "$work/test"; n_test=$((n_test + 1)) ;;
    *)      iotax_text_symbols "$exe" >> "$work/bin"; n_bin=$((n_bin + 1)) ;;
  esac
done < <(find "$@" -type f -perm -u+x -not -path '*/CMakeFiles/*' \
           -not -name '*.so*' -not -name '*.a' | sort)

sort -u -o "$work/bin" "$work/bin"
sort -u -o "$work/test" "$work/test"
comm -23 "$work/lib" "$work/bin" > "$work/not_bin"
comm -23 "$work/not_bin" "$work/test" > "$work/dead"
comm -12 "$work/not_bin" "$work/test" > "$work/test_only"

# Demangled names, one per function (constructor and destructor
# variants collapse into one line).
c++filt < "$work/dead" | sort -u > "$work/dead_names"
c++filt < "$work/test_only" | sort -u > "$work/test_only_names"
printf '%s\n' "${allow[@]}" | sort -u > "$work/allow"
comm -23 "$work/dead_names" "$work/allow" > "$work/unexpected"

echo "dead_code_probe: $lib"
echo "dead_code_probe: $n_bin executable(s), $n_test test binary(ies)"
echo "dead_code_probe: $(wc -l < "$work/lib") iotax:: symbol(s) in the library"
echo "dead: $(wc -l < "$work/dead") symbol(s), $(wc -l < "$work/dead_names") function(s)"
sed 's/^/  /' "$work/dead_names"
echo "test-only: $(wc -l < "$work/test_only") symbol(s), $(wc -l < "$work/test_only_names") function(s)"
sed 's/^/  /' "$work/test_only_names"

if [[ -s "$work/unexpected" ]]; then
  echo "dead_code_probe: FAIL: $(wc -l < "$work/unexpected") dead function(s) outside the allow-list:"
  sed 's/^/  /' "$work/unexpected"
  exit 1
fi
echo "dead_code_probe: ok (no dead function outside the allow-list)"
