#!/usr/bin/env bash
# Runs the named test suites of one build tree under ctest, and fails when a
# name matches no test: a renamed suite would otherwise drop out of the run
# without a sound. A name is a regex matched from the start of the test
# name; parameterized suites also match behind their `<Instantiation>/`
# prefix (gtest registers `Sizes/XxHashStreaming.Chunked/0`).
#
#   $ scripts/run_suites.sh BUILD_DIR SUITE... [-- CTEST_ARGS...]
set -euo pipefail

build=$1
shift
suites=()
while [[ $# -gt 0 && $1 != -- ]]; do
  suites+=("$1")
  shift
done
[[ $# -gt 0 ]] && shift

prefix='^([A-Za-z0-9_]+/)?'
listed=$(ctest --test-dir "$build" -N | sed -n 's/^ *Test *#[0-9]*: //p')
missing=()
for suite in "${suites[@]}"; do
  grep -Eq "${prefix}${suite}" <<<"$listed" || missing+=("$suite")
done
if [[ ${#missing[@]} -gt 0 ]]; then
  echo "no test in $build matches: ${missing[*]}" >&2
  exit 1
fi

joined=$(IFS='|'; echo "${suites[*]}")
ctest --test-dir "$build" --output-on-failure -R "${prefix}(${joined})" "$@"
