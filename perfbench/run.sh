#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs
# one workload. Everything it writes (Go build cache and temporary
# files, binary, result records) stays under the build directory:
# $CARGO_TARGET_DIR when set, else .bench_build at the repository root.
#
# Usage, from the repository root:
#
#	bash perfbench/run.sh --workload fabric-churn-1944 --seed 1 --seconds 35 --trace 0
#
# The last line of standard output is the JSON result; the full record
# (host fingerprint, every metric with its sample counts, gates) is
# written to <build dir>/results/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/results" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# Name the code under test: the commit in a git checkout, else a hash of
# the Go sources.
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD)"
else
	commit="tree-$(cd "$root" && find . -path "./$(basename "$out")" -prune -o \
		\( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

cd "$root"
PERFBENCH_COMMIT="$commit" PERFBENCH_RECORD_DIR="$out/results" exec "$out/perfbench" "$@"
