#!/bin/sh
# bench.sh — run the repo's benchmark suite and emit a JSON summary of
# {ns_per_op, allocs_per_op} per benchmark.
#
# Usage:
#   scripts/bench.sh [--smoke] [--gate BASELINE.json] [output.json]
#
#   --smoke   run each benchmark exactly once (-benchtime=1x -count=1);
#             fast shape check for CI, numbers are not representative
#   --gate    after the run, compare against the committed baseline:
#             any benchmark slower than the baseline ns/op by more
#             than the tolerance (default 20%, BENCH_TOLERANCE_PCT),
#             or faster by more than the fast-side tolerance (default
#             50%, BENCH_FAST_TOLERANCE_PCT — wide enough for cache
#             and noisy-neighbour drift, tight enough to catch a
#             benchmark that silently stopped doing its work, which
#             typically drops several-fold), or allocating more than
#             the baseline allocs/op plus the allocation tolerance
#             (default 10%, BENCH_ALLOC_TOLERANCE_PCT — a ceiling:
#             allocating less always passes), or missing from the
#             fresh run entirely, fails the script. New benchmarks
#             absent from the baseline pass.
#   output    path for the JSON summary (default: BENCH_0.json)
#
# Each benchmark runs BENCH_COUNT times (default 3) and the summary
# keeps the per-benchmark minimum ns/op and allocs/op: the minimum is
# the run least disturbed by scheduler noise and noisy neighbours, so
# gating min-vs-min compares the machine's actual capability instead
# of whichever run drew the worst interference. A single noisy run
# regularly swings heavyweight parallel benchmarks past ±20% in either
# direction; minima are stable.
#
# The suite's benchmarks assert the paper's headline figures, so this
# run doubles as a reproduction pass; a benchmark failure fails the
# script.
set -eu

cd "$(dirname "$0")/.."

benchtime=""
count="${BENCH_COUNT:-3}"
out="BENCH_0.json"
gate=""
expect_gate=0
for arg in "$@"; do
	if [ "$expect_gate" = 1 ]; then
		gate="$arg"
		expect_gate=0
		continue
	fi
	case "$arg" in
	--smoke)
		benchtime="-benchtime=1x"
		count=1
		;;
	--gate) expect_gate=1 ;;
	-*)
		echo "unknown flag: $arg" >&2
		exit 2
		;;
	*) out="$arg" ;;
	esac
done
if [ "$expect_gate" = 1 ]; then
	echo "--gate requires a baseline file" >&2
	exit 2
fi
if [ -n "$gate" ] && [ ! -f "$gate" ]; then
	echo "gate baseline $gate does not exist" >&2
	exit 2
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# shellcheck disable=SC2086 # benchtime is intentionally word-split
go test -run '^$' -bench . -benchmem -count="$count" $benchtime ./... | tee "$raw"

# Benchmark result lines look like (one per -count repetition):
#   BenchmarkName-8  386  3048734 ns/op  1958769 B/op  17251 allocs/op
awk '
/^Benchmark/ && /ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i - 1)
		if ($i == "allocs/op") allocs = $(i - 1)
	}
	if (ns == "") next
	if (allocs == "") allocs = 0
	if (!(name in minns)) {
		order[++n] = name
		minns[name] = ns + 0
		mina[name] = allocs + 0
	} else {
		if (ns + 0 < minns[name]) minns[name] = ns + 0
		if (allocs + 0 < mina[name]) mina[name] = allocs + 0
	}
}
END {
	print "{"
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "  \"%s\": {\"ns_per_op\": %d, \"allocs_per_op\": %d}%s\n",
			name, minns[name], mina[name], (i < n) ? "," : ""
	}
	print "}"
}
' "$raw" >"$out"

echo "wrote $out ($(grep -c ns_per_op "$out") benchmarks)" >&2

if [ -n "$gate" ]; then
	# Summary lines look like:
	#   "BenchmarkName": {"ns_per_op": 123, "allocs_per_op": 45}
	awk -v tol="${BENCH_TOLERANCE_PCT:-20}" -v ftol="${BENCH_FAST_TOLERANCE_PCT:-50}" -v atol="${BENCH_ALLOC_TOLERANCE_PCT:-10}" '
	function parse(line) {
		# Returns via globals pname/pns/pallocs; empty pname = no match.
		pname = ""; pns = ""; pallocs = ""
		if (line !~ /ns_per_op/) return
		split(line, q, "\"")
		pname = q[2]
		rest = line
		sub(/.*"ns_per_op": */, "", rest)
		sub(/[,}].*/, "", rest)
		pns = rest + 0
		rest = line
		sub(/.*"allocs_per_op": */, "", rest)
		sub(/[,}].*/, "", rest)
		pallocs = rest + 0
	}
	FNR == NR { parse($0); if (pname != "") { base[pname] = pns; basea[pname] = pallocs }; next }
	{ parse($0); if (pname != "") { cur[pname] = pns; cura[pname] = pallocs } }
	END {
		bad = 0
		for (name in base) {
			if (!(name in cur)) {
				printf "GATE: %s present in baseline but missing from this run\n", name
				bad++
				continue
			}
			lo = base[name] * (1 - ftol / 100)
			hi = base[name] * (1 + tol / 100)
			if (cur[name] < lo || cur[name] > hi) {
				printf "GATE: %s ns/op %.0f outside %.0f..%.0f (baseline %.0f, -%s%%..+%s%%)\n",
					name, cur[name], lo, hi, base[name], ftol, tol
				bad++
			}
			# Allocation ceiling: a one-sided gate, since allocs/op is
			# deterministic — creeping back up past the baseline (plus
			# slack for amortized first-iteration costs at low counts)
			# means an allocation win silently regressed.
			ahi = basea[name] * (1 + atol / 100)
			if (cura[name] > ahi) {
				printf "GATE: %s allocs/op %.0f above ceiling %.0f (baseline %.0f, +%s%%)\n",
					name, cura[name], ahi, basea[name], atol
				bad++
			}
		}
		if (bad) {
			printf "bench gate: %d benchmark(s) outside the envelope (ns -%s%%..+%s%%, allocs +%s%%)\n", bad, ftol, tol, atol
			exit 1
		}
		printf "bench gate: all benchmarks within ns -%s%%..+%s%% and allocs +%s%% of baseline\n", ftol, tol, atol
	}
	' "$gate" "$out" >&2

	# Parallel-efficiency gate: on machines with enough cores, the
	# sweep-scaling ladder's and the Table-5 extraction's widest rung
	# must actually beat workers=1. A configuration that allocates per
	# trial (or serializes on shared state) passes the ±tolerance
	# single-thread gate while regressing scaling — this check fails
	# it. Skipped below 4 cores, where the ladder has no headroom to
	# measure. BENCH_PAR_FLOOR overrides the required speedup
	# (default 1.5x).
	cores="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
	if [ "$cores" -ge 4 ]; then
		awk -v floor="${BENCH_PAR_FLOOR:-1.5}" '
		/"Benchmark(SweepScaling|ParallelExtraction)\// && /ns_per_op/ {
			split($0, q, "\"")
			name = q[2]
			sub(/^BenchmarkSweepScaling\//, "", name)
			app = name
			sub(/\/workers=.*$/, "", app)
			rest = $0
			sub(/.*"ns_per_op": */, "", rest)
			sub(/[,}].*/, "", rest)
			ns = rest + 0
			# The widest rung present wins: workers=max if emitted,
			# else the largest numeric rung (max==4 on 4-core hosts).
			if (name ~ /workers=1$/) one[app] = ns
			else if (name ~ /workers=max$/) maxns[app] = ns
			else {
				w = name
				sub(/.*workers=/, "", w)
				if (w + 0 > bigw[app]) { bigw[app] = w + 0; bigns[app] = ns }
			}
		}
		END {
			bad = 0; seen = 0
			for (app in one) {
				wide = (app in maxns) ? maxns[app] : bigns[app]
				if (wide == 0) continue
				seen++
				speedup = one[app] / wide
				if (speedup < floor) {
					printf "GATE: %s parallel speedup %.2fx below %.2fx floor (workers=1 %.0f ns/op vs widest %.0f ns/op)\n",
						app, speedup, floor, one[app], wide
					bad++
				} else {
					printf "parallel gate: %s speedup %.2fx (floor %.2fx)\n", app, speedup, floor
				}
			}
			if (seen == 0) {
				print "parallel gate: no BenchmarkSweepScaling results found"
				exit 1
			}
			if (bad) exit 1
		}
		' "$out" >&2
	else
		echo "parallel gate: skipped ($cores cores < 4)" >&2
	fi
fi
