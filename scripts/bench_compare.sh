#!/bin/sh
# bench_compare.sh — guard the hot path against wall-clock regressions.
#
# Runs the selected Go benchmarks on the working tree and on a baseline git
# ref (checked out into a throwaway worktree), prints a benchstat-style
# delta table of best-of-N ns/op, and exits non-zero when any benchmark
# regressed by more than the threshold.
#
# Usage:
#
#   scripts/bench_compare.sh [baseline-ref] [bench-regex] [pkg ...]
#
# Defaults: baseline-ref=HEAD (compare your uncommitted work against the
# committed tree), regex='Hotpath|Handoff', pkg=./internal/linalg/ and
# ./internal/simnet/ (the linalg kernels and the simulation kernel's
# per-event handoff). Environment knobs:
#
#   BENCH_THRESHOLD  max allowed ns/op regression in percent (default 10)
#   BENCH_COUNT      runs per benchmark; the best is kept (default 5)
#   BENCH_TIME       -benchtime passed to go test (default 1000x — fixed
#                    iteration counts keep both sides comparable)
#
# Opt-in from the tier-1 gate with BENCH_COMPARE=1 (see check.sh) or run
# `make bench-compare`. Best-of-N damps scheduler noise but wall clock is
# inherently machine-sensitive: treat a failure as a prompt to re-run on a
# quiet box, then investigate — the committed ext-hotpath table holds the
# deterministic (allocation) side of the same contract.
set -eu

cd "$(dirname "$0")/.."

ref="${1:-HEAD}"
[ $# -gt 0 ] && shift
pattern="${1:-Hotpath|Handoff}"
[ $# -gt 0 ] && shift
if [ $# -gt 0 ]; then
	pkgs="$*"
else
	pkgs="./internal/linalg/ ./internal/simnet/"
fi
threshold="${BENCH_THRESHOLD:-10}"
count="${BENCH_COUNT:-5}"
benchtime="${BENCH_TIME:-1000x}"

tmpdir="$(mktemp -d)"
worktree=""
cleanup() {
	if [ -n "$worktree" ]; then
		git worktree remove --force "$worktree" >/dev/null 2>&1 || true
	fi
	rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

run_bench() {
	# $1: directory to run in; $2: output file of "name best_ns_per_op" lines.
	(
		cd "$1"
		# shellcheck disable=SC2086 # pkgs is a deliberate word list
		go test -run '^$' -bench "$pattern" -benchtime "$benchtime" \
			-count "$count" $pkgs
	) | awk '/^Benchmark/ { if (!($1 in best) || $3+0 < best[$1]+0) best[$1] = $3 }
		END { for (b in best) print b, best[b] }' | sort >"$2"
}

echo "benchmarking working tree ($pattern in $pkgs, best of $count x $benchtime)..."
run_bench . "$tmpdir/new.txt"

worktree="$tmpdir/baseline"
git worktree add --force --detach "$worktree" "$ref" >/dev/null 2>&1
echo "benchmarking baseline $ref..."
run_bench "$worktree" "$tmpdir/old.txt"

# NB: match on FILENAME, not the NR==FNR idiom — an empty baseline file
# would otherwise make awk treat the working-tree results as the baseline.
awk -v thr="$threshold" -v oldf="$tmpdir/old.txt" '
FILENAME == oldf { old[$1] = $2; next }
BEGIN { printf "%-44s %12s %12s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta" }
{
	name = $1; nv = $2
	if (!(name in old)) {
		printf "%-44s %12s %12s %9s\n", name, "-", nv, "(new)"
		next
	}
	d = (nv - old[name]) / old[name] * 100
	printf "%-44s %12s %12s %+8.1f%%\n", name, old[name], nv, d
	seen[name] = 1
	if (d > thr) { fail = 1; bad = bad name " " }
}
END {
	for (name in old) if (!(name in seen))
		printf "%-44s %12s %12s %9s\n", name, old[name], "-", "(gone)"
	if (fail) { printf "\nFAIL: ns/op regressed more than %s%%: %s\n", thr, bad; exit 1 }
	printf "\nOK: no benchmark regressed more than %s%%\n", thr
}' "$tmpdir/old.txt" "$tmpdir/new.txt"
