#!/usr/bin/env bash
# profile.sh — capture labeled CPU + heap profiles of the mixed
# Combined workload (also `make profile`).
#
# Runs BenchmarkMixedWorkloadCombined (Execute + Policy 1 ticks over
# the retail view) under -cpuprofile/-memprofile and leaves the
# profiles and the test binary in profiles/ (untracked), then prints
# the dvm_view/dvm_phase tag breakdown. Drill down with
#   go tool pprof -tags profiles/dvm.test profiles/cpu.pprof
# or by phase:
#   go tool pprof -focus-tags dvm_phase=propagate profiles/dvm.test profiles/cpu.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-profiles}"
mkdir -p "$OUT"

echo "== BenchmarkMixedWorkloadCombined (profiling to $OUT/)"
go test -run '^$' -bench '^BenchmarkMixedWorkloadCombined$' \
    -cpuprofile "$OUT/cpu.pprof" \
    -memprofile "$OUT/heap.pprof" \
    -o "$OUT/dvm.test" .

echo "== CPU by pprof label"
go tool pprof -tags "$OUT/dvm.test" "$OUT/cpu.pprof"

echo "profile.sh: wrote $OUT/cpu.pprof and $OUT/heap.pprof"
