#!/bin/sh
# Same-session perf gate: times the base revision's kernel and this
# checkout's kernel on the same machine, one after the other, and gates
# the checkout against the base. Wall-clock numbers from another machine
# or another session do not compare, so the reference is measured here.
#
# 1. Extracts BASE_REV with `git archive` (no worktree; `.git` is left
#    as it is) and builds its perf_probe into target/perf-base.
# 2. Runs the base probe with --quick into BENCH_base.json. Its own
#    gates do not decide the result; a base run that writes no report
#    does.
# 3. Runs this checkout's probe, gated against BENCH_base.json: it
#    writes BENCH.json and perf_summary.md and exits non-zero on a
#    Mann-Whitney-significant slowdown beyond 2x, a failed shard
#    scaling gate or a failed flat-memory gate.
#
# Usage: support/perf_gate.sh BASE_REV    (any working dir)
set -eu
base_rev=${1:?usage: support/perf_gate.sh BASE_REV}
cd "$(dirname "$0")/.."
root=$(pwd)
base_sha=$(git rev-parse --verify "$base_rev^{commit}")
echo "perf_gate: base $base_sha, head $(git rev-parse HEAD) (plus uncommitted changes, if any)"

# A fixed source path keeps the base build's artifact names stable, so
# a cached target/perf-base is overwritten rather than grown. `tar -m`
# stamps every file with the extraction time, so cargo rebuilds the
# base from this tree even when a cached build of another revision is
# newer than its commit.
src="$root/target/perf-base/src"
rm -rf "$src"
mkdir -p "$src"
git archive "$base_sha" | tar -x -m -C "$src"
CARGO_TARGET_DIR="$root/target/perf-base" \
    cargo build --release --offline --manifest-path "$src/Cargo.toml" -p tpv-bench --bin perf_probe

rm -f BENCH_base.json
"$root/target/perf-base/release/perf_probe" --quick --min-shard-speedup 0 --out BENCH_base.json \
    || echo "perf_gate: the base probe's own gates failed; they do not decide this gate"
test -s BENCH_base.json || { echo "perf_gate: the base probe wrote no report"; exit 1; }

cargo run --release --offline -p tpv-bench --bin perf_probe -- \
    --quick --out BENCH.json --baseline BENCH_base.json --max-regression 2.0 \
    --min-shard-speedup 3.0 --summary perf_summary.md
