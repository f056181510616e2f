#!/usr/bin/env bash
# profile.sh — capture labeled CPU + heap profiles of the E16
# compiled-vs-interpreted retail days (also `make profile`).
#
# Runs `dvmbench -exp e16` under -cpuprofile/-memprofile and leaves
# the profiles in profiles/ (untracked). The bench prints a
# dvm_view/dvm_phase attribution summary; drill down with
#   go tool pprof -tags profiles/cpu.pprof
# or by phase:
#   go tool pprof -focus-tags dvm_phase=propagate profiles/cpu.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-profiles}"
mkdir -p "$OUT"

echo "== dvmbench -exp e16 (profiling to $OUT/)"
go run ./cmd/dvmbench -exp e16 \
    -cpuprofile "$OUT/cpu.pprof" \
    -memprofile "$OUT/heap.pprof"

echo "profile.sh: wrote $OUT/cpu.pprof and $OUT/heap.pprof"
