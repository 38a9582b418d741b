#!/usr/bin/env bash
# Builds the experiments binary (in the repository's own workspace) and
# the benchmark harness, then runs the harness with this script's
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 30 --trace 0
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/bench ]; then
    echo "perfbench: run from the repository root" >&2
    exit 1
fi
# Both builds go to one explicit target directory: the harness is a
# workspace of its own, so left to itself cargo would put it in
# perfbench/target.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" -p rendezvous-bench --bin experiments
cargo build --release --offline --quiet --target-dir "$target" --manifest-path perfbench/Cargo.toml
exec "$target/release/perfbench" --experiments "$target/release/experiments" "$@"
