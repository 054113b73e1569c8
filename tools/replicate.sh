#!/usr/bin/env bash
# Full replication pass: build, test, run the paper's figure table (series,
# CSVs and claims) and every ablation/extension bench.  Artifacts land in
# the repo root (test_output.txt, bench_output.txt) and results/ (the
# figure CSVs).
#
# Sweeps fan out over all cores (--jobs / SPB_BENCH_JOBS); results are
# byte-identical to a serial run.  The bench loop fails fast: the first
# binary with a broken claim set stops the pass.
set -u
cd "$(dirname "$0")/.."
jobs=$(nproc)

cmake -B build -G Ninja
cmake --build build || exit 1

ctest --test-dir build -j "$jobs" 2>&1 | tee test_output.txt
status=${PIPESTATUS[0]}

# The figure table first: it writes results/*.csv and checks the paper's
# claims on those values.
bench_status=0
echo "== build/bench/figures =="
if ! ./build/bench/figures --out results --jobs "$jobs" > bench_output.txt 2>&1; then
  bench_status=1
  echo "FAILED: build/bench/figures (see bench_output.txt)" >&2
fi

# Ablation/extension benches.  micro_core (google-benchmark) and
# perf_harness (perf regression JSON) are not claim checkers; figures ran
# above.
for b in build/bench/*; do
  [ "$bench_status" -eq 0 ] || break
  [ -x "$b" ] && [ -f "$b" ] || continue
  case "$(basename "$b")" in
    micro_core | perf_harness | figures) continue ;;
  esac
  echo "== $b =="
  if ! SPB_BENCH_JOBS="$jobs" "$b" >> bench_output.txt 2>&1; then
    bench_status=1
    echo "FAILED: $b (see bench_output.txt)" >&2
    break
  fi
done

if [ "$bench_status" -eq 0 ]; then
  ./build/tools/spb_check --jobs "$jobs" || bench_status=1
fi

echo
echo "tests:   $(grep -E 'tests passed' test_output.txt | tail -1)"
echo "benches: $(grep -c '^\[PASS\]' bench_output.txt) PASS / $(grep -c '^\[FAIL\]' bench_output.txt) FAIL"
exit $((status || bench_status))
