#!/usr/bin/env bash
# Builds hgpd and the benchmark from this checkout, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold_place --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans go to
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/hgpd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (cmd/hgpd and perfbench/ not found here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/hgpd" ./cmd/hgpd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -hgpd "$out/hgpd" -spans-dir "$out" "$@"
