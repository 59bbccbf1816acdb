#!/bin/sh
# Builds the benchmark from the checkout it runs in and executes it with
# the given arguments. Run it from the repository root:
#
#   sh reedbench/run.sh --workload backup --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .reedbench/ in the
# current directory: the Go build cache and temporary files, the binary,
# the store directories and the trace output.
set -eu
root=$(pwd)
work="$root/.reedbench"
mkdir -p "$work/gocache" "$work/config" "$work/tmp"
export GOPATH="$work/gopath" GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd reedbench && go build -o "$work/reedbench" .)
exec "$work/reedbench" -root "$work" "$@"
