#!/usr/bin/env bash
# Builds jfserved and the benchmark from this checkout's sources, then runs
# one benchmark pass. Run it from the repository root:
#
#   bash perfbench/run.sh --workload warm-run --seed 1 --seconds 30 --trace 0
#
# Binaries, the Go build cache and the run's working files all live under
# .bench_build/ in the working directory; nothing is written outside it.
# The last line of standard output is the result (see README.md).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/jfserved || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (needs go.mod, cmd/jfserved and perfbench/go.mod)" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/bin/jfserved" ./cmd/jfserved
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
