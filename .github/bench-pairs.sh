#!/usr/bin/env bash
# The timing gate: times the merge base of BASE_REF and HEAD against HEAD on
# this one machine, then fails when an end-to-end metric of any workload got
# worse than its bound in BENCHMARK.json. Run it from the repository root:
#
#   bash .github/bench-pairs.sh origin/main
#
# Each side is a clean checkout of a commit (uncommitted changes are not
# timed). The two sides run bench/run.sh alternately, PAIRS times, and the
# side that goes first switches every pair, so drift in the machine's speed
# falls on both. HEAD's bench/run.sh --compare then applies the rule: a
# regression is a median worse than the base's by more than the bound, and
# its exit code is this script's.
set -euo pipefail

PAIRS=10
RUN_SECONDS=2

base_ref=${1:?usage: bash .github/bench-pairs.sh BASE_REF}
base_rev=$(git merge-base "$base_ref" HEAD)
head_rev=$(git rev-parse HEAD)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in base head; do
	rev=${side}_rev
	mkdir "$work/$side"
	git archive "${!rev}" | tar -x -C "$work/$side"
	# Build before the timed runs, so neither side's first run pays for it.
	(cd "$work/$side" && bash bench/run.sh -pin >/dev/null)
done
echo "bench-pairs: base $base_rev, head $head_rev, $PAIRS pairs of ${RUN_SECONDS}s per workload"

timed() { # side, pair
	local log="$work/$1-$2.log"
	if ! (cd "$work/$1" && bash bench/run.sh --seed 42 --seconds "$RUN_SECONDS" --trace 0 \
		--out "$work/$1-$2.json" >"$log" 2>&1); then
		cat "$log" >&2
		echo "bench-pairs: $1 run $2 failed" >&2
		exit 2
	fi
}

base_files= head_files=
for i in $(seq 1 "$PAIRS"); do
	if ((i % 2)); then timed base "$i"; timed head "$i"; else timed head "$i"; timed base "$i"; fi
	base_files+=${base_files:+,}$work/base-$i.json
	head_files+=${head_files:+,}$work/head-$i.json
done
cd "$work/head" && bash bench/run.sh --compare "$base_files" "$head_files"
