#!/usr/bin/env bash
# Builds icbe-serve from this checkout and the perfbench load generator, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -o "$out/icbe-serve" ./cmd/icbe-serve >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -serve-bin "$out/icbe-serve" -work-dir "$out/run" "$@"
