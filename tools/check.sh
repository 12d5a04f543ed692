#!/usr/bin/env bash
# Full pre-merge check: tier-1 build + tests, then the concurrency-,
# fault-, policy-, sched-, storage- and metadata-labelled suites under
# both sanitizer configurations (ASan+UBSan and TSan). Usage:
#   tools/check.sh [jobs]        - the pre-merge check
#   tools/check.sh sched [jobs]
#       Scheduler quick mode: TSan build, then `ctest -L sched` only —
#       the fast loop while iterating on src/sched (the DRR/priority
#       batteries and the wake-order pin, see tests/scheduler_test.cc).
#   tools/check.sh coverage [jobs]
#       Coverage gate only: builds with -DAUTOCOMP_COVERAGE=ON, runs the
#       suite, and measures line coverage of src/core + src/obs +
#       src/sched. With
#       lcov/genhtml installed an HTML report lands in
#       build-cov/coverage-html; without them a raw-gcov aggregate is
#       used. Fails when aggregate line coverage is below 80%.
#   tools/check.sh rss [jobs]
#       Footprint report: builds the default tree, then runs every test
#       binary under tools/rss_runner (fork/exec/wait4) and prints one
#       peak-RSS line per suite, sorted descending — the quick way to
#       spot a suite whose memory crept up without rerunning the bench.
#       Fails if any suite exits nonzero.
#   tools/check.sh heap -- <cmd> [args...]
#       Peak-heap attribution: compiles tools/heapprof.c into an
#       LD_PRELOAD sampling profiler (about one sample per 16 KiB
#       allocated), runs <cmd> under it from the repository root and
#       prints, per process, the call sites, functions and classes that
#       hold the peak live heap (tools/heap_report.py, symbolized with
#       addr2line). Profile a RelWithDebInfo binary, e.g.
#       `tools/check.sh heap -- build/tools/autocomp_cli cab --hours=2`.
#
# Build trees:
#   build/       - default RelWithDebInfo, full ctest suite
#   build-asan/  - -DAUTOCOMP_SANITIZE=address (ASan+UBSan), ctest -L 'concurrency|fault|policy|sched|storage|metadata'
#   build-tsan/  - -DAUTOCOMP_SANITIZE=thread, ctest -L 'concurrency|fault|policy|sched|storage|metadata'
#   build-cov/   - -DAUTOCOMP_COVERAGE=ON (coverage mode only)

set -euo pipefail

cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

# Aggregate line coverage (percent) of src/core + src/obs + src/sched
# from raw gcov
# summaries over the library objects' .gcda files. Primary sources only
# (.cc): header/inline lines would be double-counted across translation
# units without lcov's deduplication.
gcov_line_coverage() {
  local build="$1"
  find "$build/src/core" "$build/src/obs" "$build/src/sched" -name '*.gcda' \
      -exec gcov -n {} + 2>/dev/null |
    awk '
      /^File /            { keep = ($0 ~ /src\/(core|obs|sched)\/.*\.cc/) }
      /^Lines executed:/  {
        if (!keep) next
        line = $0
        sub(/^Lines executed:/, "", line)
        split(line, a, "% of ")
        covered += a[1] * a[2] / 100.0
        total += a[2]
      }
      END { if (total == 0) print "0.00"; else printf "%.2f\n", covered * 100.0 / total }
    '
}

coverage_check() {
  local jobs="$1"
  local build=build-cov
  local threshold=80
  run cmake -B "$build" -S . -DAUTOCOMP_COVERAGE=ON \
      -DAUTOCOMP_BUILD_BENCHMARKS=OFF -DAUTOCOMP_BUILD_EXAMPLES=OFF
  run cmake --build "$build" -j "$jobs"
  run ctest --test-dir "$build" --output-on-failure -j "$jobs"

  local pct
  if command -v lcov >/dev/null && command -v genhtml >/dev/null; then
    run lcov --capture --directory "$build" --output-file "$build/coverage.info" \
        --ignore-errors mismatch,negative
    run lcov --extract "$build/coverage.info" "*/src/core/*" "*/src/obs/*" \
        "*/src/sched/*" --output-file "$build/coverage.core-obs.info"
    run genhtml "$build/coverage.core-obs.info" \
        --output-directory "$build/coverage-html"
    pct=$(lcov --summary "$build/coverage.core-obs.info" 2>&1 |
          awk '/lines\.*:/ { sub(/%.*/, "", $2); print $2 }')
    echo "HTML report: $build/coverage-html/index.html"
  else
    echo "lcov/genhtml not found; falling back to raw gcov aggregation"
    pct=$(gcov_line_coverage "$build")
  fi

  echo "src/core + src/obs + src/sched line coverage: ${pct}% (threshold ${threshold}%)"
  if ! awk -v p="$pct" -v t="$threshold" 'BEGIN { exit !(p + 0 >= t) }'; then
    echo "FAIL: line coverage ${pct}% is below ${threshold}%"
    exit 1
  fi
  echo "Coverage check passed."
}

rss_check() {
  local jobs="$1"
  run cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  run cmake --build build -j "$jobs"
  local failures=0 report=""
  for t in build/tests/*_test; do
    [[ -x "$t" ]] || continue
    echo "==> rss_runner $t"
    local line
    if ! line=$(./build/tools/rss_runner "$t" | tail -n 1); then
      echo "FAIL: $t exited nonzero"
      failures=$((failures + 1))
      continue
    fi
    report+="$line"$'\n'
  done
  echo
  echo "peak RSS per test suite (wait4 ru_maxrss, descending):"
  printf '%s' "$report" | sort -k2 -rn
  if (( failures > 0 )); then
    echo "FAIL: $failures suite(s) exited nonzero"
    exit 1
  fi
}

sched_check() {
  local jobs="$1"
  run cmake -B build-tsan -S . -DAUTOCOMP_SANITIZE=thread \
      -DAUTOCOMP_BUILD_BENCHMARKS=OFF -DAUTOCOMP_BUILD_EXAMPLES=OFF
  run cmake --build build-tsan -j "$jobs"
  run ctest --test-dir build-tsan --output-on-failure -j "$jobs" -L sched
}

heap_check() {
  local lib=build/heapprof.so out
  mkdir -p build
  run cc -O2 -g -shared -fPIC -o "$lib" tools/heapprof.c -ldl -lpthread -lm
  out=$(mktemp -d)
  run env TMPDIR="$out" LD_PRELOAD="$PWD/$lib" "$@"
  run python3 tools/heap_report.py "$out"/autocomp-heap.*.txt
  rm -rf "$out"
}

if [[ "${1:-}" == "heap" ]]; then
  shift
  [[ "${1:-}" == "--" ]] && shift
  if (( $# == 0 )); then
    echo "usage: tools/check.sh heap -- <cmd> [args...]" >&2
    exit 2
  fi
  heap_check "$@"
  exit 0
fi

if [[ "${1:-}" == "sched" ]]; then
  sched_check "${2:-$(nproc)}"
  exit 0
fi

if [[ "${1:-}" == "coverage" ]]; then
  coverage_check "${2:-$(nproc)}"
  exit 0
fi

if [[ "${1:-}" == "rss" ]]; then
  rss_check "${2:-$(nproc)}"
  exit 0
fi

JOBS="${1:-$(nproc)}"

# --- Tier 1: default build, full suite.
run cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
run cmake --build build -j "${JOBS}"
run ctest --test-dir build --output-on-failure -j "${JOBS}"

# --- Concurrency + fault + policy + sched + storage + metadata suites under ASan+UBSan.
run cmake -B build-asan -S . -DAUTOCOMP_SANITIZE=address \
    -DAUTOCOMP_BUILD_BENCHMARKS=OFF -DAUTOCOMP_BUILD_EXAMPLES=OFF
run cmake --build build-asan -j "${JOBS}"
run ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L 'concurrency|fault|policy|sched|storage|metadata'

# --- Concurrency + fault + policy + sched + storage + metadata suites under TSan.
run cmake -B build-tsan -S . -DAUTOCOMP_SANITIZE=thread \
    -DAUTOCOMP_BUILD_BENCHMARKS=OFF -DAUTOCOMP_BUILD_EXAMPLES=OFF
run cmake --build build-tsan -j "${JOBS}"
run ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L 'concurrency|fault|policy|sched|storage|metadata'

echo "All checks passed."
