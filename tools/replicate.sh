#!/usr/bin/env bash
# Full replication pass: build, test, run the table of the paper's figures,
# ablations and extensions (series, CSVs and claims) and the analyzer
# sweep.  ctest already runs every claim checker (figures and the ext_*
# binaries); the table runs once more here to write results/.  Artifacts
# land in the repo root (test_output.txt, bench_output.txt) and results/
# (the CSVs).
#
# Sweeps fan out over all cores (--jobs); results are byte-identical to a
# serial run.
set -u
cd "$(dirname "$0")/.."
jobs=$(nproc)

cmake -B build -G Ninja
cmake --build build || exit 1

ctest --test-dir build -j "$jobs" 2>&1 | tee test_output.txt
status=${PIPESTATUS[0]}

# The table writes results/*.csv and checks the claims on those values.
bench_status=0
echo "== build/bench/figures =="
if ! ./build/bench/figures --out results --jobs "$jobs" > bench_output.txt 2>&1; then
  bench_status=1
  echo "FAILED: build/bench/figures (see bench_output.txt)" >&2
fi

if [ "$bench_status" -eq 0 ]; then
  ./build/tools/spb_check --jobs "$jobs" || bench_status=1
fi

echo
echo "tests:   $(grep -E 'tests passed' test_output.txt | tail -1)"
echo "benches: $(grep -c '^\[PASS\]' bench_output.txt) PASS / $(grep -c '^\[FAIL\]' bench_output.txt) FAIL"
exit $((status || bench_status))
