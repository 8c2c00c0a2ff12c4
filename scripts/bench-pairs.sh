#!/usr/bin/env bash
# Runs the end-to-end benchmark in alternating pairs, a base revision
# against the working tree, and compares the two sets of runs:
#
#   bash scripts/bench-pairs.sh <base-rev> <workload> '<seed> <seed> …'
#   make bench-pairs BASE=HEAD WORKLOAD=serve-mix SEEDS='1 2'
#
# The base revision is checked out into a temporary git worktree outside
# the checkout, removed again on exit. For each seed, both trees run
# `bench/run.sh --workload W --seed S --seconds 35 --trace 0` in turn
# (run.sh builds each tree's benchmark offline into its .bench_build/);
# the base goes first on the first seed, second on the next, and so on.
# The runs' output is written to .bench_scratch/pairs/parent.txt and
# change.txt, and `bench/run.sh -compare` reads the two files. The script
# also prints both binaries' address of graph.(*ballScratch).ball and
# warns when they differ mod 64: serve-mix times move with that
# function's cache-line alignment (ROADMAP item 1(a)).
set -euo pipefail

if [ $# -ne 3 ] || [ -z "$1" ] || [ -z "$2" ] || [ -z "$3" ]; then
	echo "usage: $0 <base-rev> <workload> '<seed> <seed> …'" >&2
	exit 2
fi
workload=$2 seeds=$3
root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$1^{commit}")

base=$(mktemp -d)
cleanup() {
	chmod -R u+w "$base" && rm -rf "$base"
	git worktree prune
}
trap cleanup EXIT
git worktree add --detach --quiet "$base" "$rev"

out=.bench_scratch/pairs
mkdir -p "$out"
: >"$out/parent.txt"
: >"$out/change.txt"

# run <tree> <output file> <seed>: a failed check still prints its result
# line, and -compare reports the incorrect run.
run() {
	(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds 35 --trace 0) >>"$2" || true
}
first=parent
for s in $seeds; do
	if [ "$first" = parent ]; then
		run "$base" "$out/parent.txt" "$s"
		run "$root" "$out/change.txt" "$s"
		first=change
	else
		run "$root" "$out/change.txt" "$s"
		run "$base" "$out/parent.txt" "$s"
		first=parent
	fi
done

ball() { go tool nm "$1/.bench_build/bench" | awk '/ballScratch\)\.ball$/ { print $1 }'; }
pb=$(ball "$base") cb=$(ball "$root")
echo "graph.(*ballScratch).ball: parent 0x$pb, change 0x$cb"
if [ $((16#$pb % 64)) -ne $((16#$cb % 64)) ]; then
	echo "warning: ball sits at $((16#$pb % 64)) mod 64 in the parent and $((16#$cb % 64)) in the change; serve-mix times differ with that alignment alone" >&2
fi
bash bench/run.sh -compare "$out/parent.txt" "$out/change.txt"
