#!/usr/bin/env bash
# Runs every workload N times as set A and N times as set B, alternating
# which set goes first, and compares the two sets with gsload -compare: per
# workload and metric both medians, the quartiles, the relative gap, and a
# mark where the gap or a spread exceeds the metric's bound. Then runs the
# traced ladder twice with one seed and fails unless the counts that must
# repeat (count.*) are identical.
#
#   benchmark/repeat.sh [-n runs] [-s seconds] [checkoutA [checkoutB]]
#
# With no checkout both sets run this one: the benchmark against itself,
# which shows its own noise. With two (a parent commit's and a change's,
# each holding this benchmark/ directory) it is the A/B of choosing-metrics
# section 8; use -n 10 or more for a claim.
set -euo pipefail

n=5
seconds=""
while getopts "n:s:" opt; do
	case "$opt" in
	n) n="$OPTARG" ;;
	s) seconds="$OPTARG" ;;
	*) echo "usage: $0 [-n runs] [-s seconds] [checkoutA [checkoutB]]" >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))

here="$(cd "$(dirname "$0")/.." && pwd)"
dirA="$(cd "${1:-$here}" && pwd)"
dirB="$(cd "${2:-$dirA}" && pwd)"
if [ -z "$seconds" ]; then
	seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/BENCHMARK.json")"
fi
out="$here/benchmark/out/repeat"
rm -rf "$out"
mkdir -p "$out"
workloads="vm_compute oltp_commit query_read history_mixed"

# one <checkout> <record file> <workload> <seed> <trace>
one() {
	(cd "$1" && bash benchmark/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace "$5" \
		--record "$2" --out "$out/trace") >/dev/null 2>>"$out/stderr.log" || {
		echo "repeat.sh: $3 seed $4 failed; see $out/stderr.log" >&2
		exit 1
	}
	# The run is one process and it has exited; nothing of it may remain.
	if pgrep -x gsload >/dev/null; then
		echo "repeat.sh: a gsload process survived its run" >&2
		exit 1
	fi
}

for w in $workloads; do
	for i in $(seq 1 "$n"); do
		echo "$w: pair $i of $n" >&2
		if [ $((i % 2)) -eq 1 ]; then
			one "$dirA" "$out/A.jsonl" "$w" "$i" 0
			one "$dirB" "$out/B.jsonl" "$w" "$i" 0
		else
			one "$dirB" "$out/B.jsonl" "$w" "$i" 0
			one "$dirA" "$out/A.jsonl" "$w" "$i" 0
		fi
	done
	echo "$w: traced twice" >&2
	one "$dirA" "$out/T1.jsonl" "$w" 1 1
	one "$dirA" "$out/T2.jsonl" "$w" 1 1
done

gsload="$dirA/.bench_build/gsload" # run.sh built it there
status=0
"$gsload" -compare "$out/A.jsonl" "$out/B.jsonl" || status=1
echo
echo "traced ladder, same seed twice:"
"$gsload" -compare "$out/T1.jsonl" "$out/T2.jsonl" >"$out/traced.txt" || true
grep -E '^workload|count\.' "$out/traced.txt"
if grep -q DIFFERS "$out/traced.txt"; then
	status=1
fi
exit $status
