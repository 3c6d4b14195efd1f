#!/bin/sh
# Same-session perf gate: compares the base revision's kernel probe
# with this checkout's on the same machine, the two builds run in
# alternating pairs, so host drift lands on both sides alike instead of
# on their ratio.
#
# 1. Extracts BASE_REV with `git archive` (no worktree; `.git` is left
#    as it is) and builds its perf_probe into target/perf-base, then
#    builds this checkout's into target/release.
# 2. `perf_probe ab` runs the two probes' quick one-trial matrices in
#    10 interleaved pairs and writes its table to perf_ab.md. It fails
#    when a run fails, or when a metric both sides report (each
#    scenario's events/sec, and the process wall `process_s`) is worse
#    than the base by more than 2x and Mann-Whitney significant.
# 3. Runs this checkout's probe once more with the shard-scaling and
#    flat-memory gates; it writes BENCH.json and perf_summary.md.
#
# Exits non-zero when step 2 or step 3 fails; both always run.
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
CARGO_TARGET_DIR="$root/target" cargo build --release --offline -p tpv-bench --bin perf_probe
base="$root/target/perf-base/release/perf_probe"
head="$root/target/release/perf_probe"

status=0
"$head" ab "$base" "$head" -- --quick --trials 1 --min-shard-speedup 0 --out /dev/null > perf_ab.md || status=1
cat perf_ab.md
"$head" --quick --out BENCH.json --min-shard-speedup 3.0 --summary perf_summary.md || status=1
exit $status
