#!/usr/bin/env bash
# Builds annload from the checkout this is run in and runs it with the
# given arguments. Everything the build writes (Go build cache, binary)
# stays under .bench_build/ in that checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
  echo "bench/run.sh: no go.mod / internal/ here: run from the root of a checkout of the repo" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
# With a fresh config dir the go command would fork a detached
# "go ** telemetry **" sidecar that outlives it. Mode "off" stops that:
# nothing this script starts may still run when it returns.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/annload" ./bench/annload
exec "$build/annload" "$@"
