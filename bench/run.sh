#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the build
# writes (binary and Go build cache) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
go build -C bench -buildvcs=false -ldflags "-X main.commit=$commit" -o ../.bench_build/opf-bench .
exec .bench_build/opf-bench "$@"
