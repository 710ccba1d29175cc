#!/usr/bin/env bash
# Builds tbsd and the perfbench driver from this checkout, then runs one
# workload against tbsd over loopback. All build and run state stays under
# .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 12 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

commit=unknown
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD)"
fi

(cd "$root" && go build -o "$out/tbsd" ./cmd/tbsd) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -tbsd "$out/tbsd" -workdir "$out" -commit "$commit" "$@"
