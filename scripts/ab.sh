#!/usr/bin/env bash
# Paired A/B run of the benchmark: the working tree against a parent
# revision, on one workload.
#
#   scripts/ab.sh <parent-rev> <workload> [pairs=10]
#
# It exports <parent-rev> under .bench_build/ab/parent (an export, not a
# worktree, so an interrupted run leaves nothing registered in .git) and
# removes it on exit. For seed k = 1..pairs it runs
# `benchmark/run.sh --workload W --seconds 30 --seed k` in both trees,
# the parent first on odd k and the working tree first on even k, so
# neither side always runs on a warm host. scripts/abstat then checks
# that every pair's stamp digest, window_tpr, window_tnr and ok_ratio
# are equal, and prints per end-to-end metric each side's median and
# quartiles, the change's wins, whether a BENCHMARK.json bound was
# crossed and whether the claim rule holds (at least 9/10 wins and a
# median gap larger than the parent's interquartile range). The table
# is written to BENCH_ab.json, or to $AB_OUT. The run files stay in
# .bench_build/ab/runs.
#
# Exit status: 0 when outputs agree and no bound is crossed.
set -euo pipefail

parent=${1:?usage: scripts/ab.sh <parent-rev> <workload> [pairs=10]}
workload=${2:?usage: scripts/ab.sh <parent-rev> <workload> [pairs=10]}
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
ab="$root/.bench_build/ab"
rev=$(git rev-parse --short "$parent")
rm -rf "$ab/parent" "$ab/runs"
mkdir -p "$ab/parent" "$ab/runs"
trap 'rm -rf "$ab/parent"' EXIT
git archive "$rev" | tar -x -C "$ab/parent"

for k in $(seq 1 "$pairs"); do
	if ((k % 2)); then order="parent change"; else order="change parent"; fi
	for side in $order; do
		tree=$root
		[ "$side" = parent ] && tree=$ab/parent
		echo "ab: seed $k, $side" >&2
		(cd "$tree" && bash benchmark/run.sh --workload "$workload" --seconds 30 --seed "$k") >"$ab/runs/$side-$k.jsonl"
	done
done

go run ./scripts/abstat -bench BENCHMARK.json -parent "$rev" -out "${AB_OUT:-BENCH_ab.json}" "$ab"/runs/*.jsonl
