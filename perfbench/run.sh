#!/usr/bin/env bash
# Builds caram-server, caram-router and the perfbench load generator
# from the source tree this script sits in, then runs one benchmark
# workload. All build output (binaries, Go build cache) stays under
# .bench_build at the repository root.
#
#   bash perfbench/run.sh --workload lookup_zipf --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
mkdir -p "$out/bin"
cd "$root"
go build -o "$out/bin/" ./cmd/caram-server ./cmd/caram-router >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" -history "$root/.bench_history" -commit "$commit" "$@"
