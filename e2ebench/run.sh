#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it; every
# argument is passed through (see main.go). Run from the repository
# root. The build cache, the binary, the WALs and the trace output all
# stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

(cd "$here" && go build -buildvcs=false -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -workdir "$out/e2ebench" "$@"
