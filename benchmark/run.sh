#!/usr/bin/env bash
# Builds the benchmark offline in release mode and hands every argument
# to it. With no arguments it runs the whole run set (four workloads
# untraced, then traced); `--smoke` shrinks it to a plumbing check;
# `--workload W --seed N --seconds S --trace 0|1` measures one workload;
# `compare A.json B.json` holds two run sets against the bounds.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/hera-ledger" "$@"
