#!/usr/bin/env bash
# Builds the commands under cmd/ and the benchmark driver from source,
# then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload scan-global --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, the generated inputs
# (removed when the run ends) and the traced runs' span files.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "run.sh: run from the repository root (go.mod, cmd/ and perfbench/ must be there)" >&2
  exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The toolchain keeps its own config and telemetry under the home
# directory; point that inside the checkout too.
gohome="$out/home"
mkdir -p "$out/bin" "$gohome"
HOME="$gohome" XDG_CONFIG_HOME="$gohome/.config" go build -o "$out/bin/" ./cmd/... >&2
(cd "$root/perfbench" && HOME="$gohome" XDG_CONFIG_HOME="$gohome/.config" go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
