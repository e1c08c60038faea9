#!/usr/bin/env bash
# bench.sh — run the old-vs-new benchmark pairs of the dataframe kernels,
# the core verbs and the profile reader, and emit a machine-readable
# BENCH_kernels.json.
#
# Each kernel or verb has a *Ref benchmark (the preserved reference
# implementation from its package's tests) and a *New benchmark (the
# shipping code); this script runs every pair COUNT times (default 5)
# at BENCHTIME (default 20x) with -benchmem, and writes per benchmark
# the median and min-max of ns/op, B/op and allocs/op, plus the speedup
# and allocation reduction as ratios of medians. The dataframe pairs
# run on 20000-row synthetic frames; the core pairs (FilterMetadata,
# FilterProfiles, Validate, GroupedStats, PivotMetric) on the
# 560-profile Figure-13 ensemble, and FromProfiles on its five rows; the
# profile pair (Decode: the general encoding/json decoder vs FromBytes)
# on the same 560 profiles as the writer emits them.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=30x COUNT=3 scripts/bench.sh   # override go test -benchtime / -count
#
# Loadgen mode: scripts/bench.sh loadgen [output.json]
#   Seeded closed-loop traffic run: thicket-loadgen self-hosts a
#   thicketd and replays the pinned mixed workload against it, writing
#   BENCH_loadgen.json (per-SLO-class latency percentiles, achieved vs
#   offered throughput, Jain fairness index). Fails on any HTTP error,
#   any class p99 over its budget (MAX_P99 is the fallback budget for
#   classes without one), or any latency-baseline alert firing (the
#   self-monitor's http-latency/span-latency rules) — a clean run must
#   stay quiet. Override with SEED / DURATION / RATE / MAX_P99.
#   This is the CI gate on the serving path under load.
#
# Ingest mode: scripts/bench.sh ingest [output.json]
#   Seeded ingest-query run: the self-hosted thicketd takes streaming
#   profile submissions over POST /ingest (WAL -> L0 flush -> background
#   compaction) while query traffic replays against the same store,
#   writing BENCH_ingest.json. Flush and compaction cadence are pinned
#   aggressive (-ingest-flush 4 -ingest-compact-run 4) so a short run
#   exercises the whole segment lifecycle. Fails on any query error —
#   ingest pressure must shed via 429, never starve reads — any class
#   p99 over budget, or a latency-baseline alert. Override with SEED /
#   DURATION / RATE / MAX_P99. This is the CI gate on the ingest path.
#
# Overhead mode: scripts/bench.sh overhead [output.json]
#   Runs the *New kernel benchmarks with THICKET_TELEMETRY disabled and
#   enabled in COUNT interleaved rounds (off, on, off, on, ...),
#   compares per-kernel best-of-COUNT ns/op, writes
#   BENCH_telemetry_overhead.json, and exits non-zero if the MEAN
#   overhead across kernels exceeds MAX_OVERHEAD_PCT (default 5)
#   percent. Rounds interleave because running all-disabled then
#   all-enabled lets machine drift (GC pressure, frequency scaling,
#   co-tenants) bias one phase systematically — the ms-scale kernels are
#   memmove-bound, so a few percent of drift dwarfs the sub-µs span
#   cost being measured. The gate uses the mean because single-kernel
#   deltas on a shared machine still carry ±5-10% noise in either
#   direction, while a real instrumentation cost would shift every
#   kernel the same way. This is the CI gate on the instrumentation
#   layer.
# Monitor mode: scripts/bench.sh monitor [output.json]
#   Serving-overhead gate on the continuous self-monitor: runs the
#   BenchmarkMonitor{Off,On}* endpoint pairs (identical server, the On
#   side with a sampler ticking at an aggressive 50ms — the default
#   cadence is 10s, so this is an upper bound — and evaluating the
#   shipped rule set, latency-baseline rules included), -count COUNT rounds
#   interleaved by declaration order, compares best-of-COUNT ns/op per
#   endpoint, writes BENCH_monitor_overhead.json, and exits non-zero if
#   the MEAN overhead across endpoints exceeds MAX_MONITOR_OVERHEAD_PCT
#   (default 1) percent. Per-endpoint deltas on loopback HTTP carry a
#   few percent of noise in either direction; a real monitor cost would
#   shift every endpoint the same way. This is the CI gate on the
#   self-monitoring layer.
# Query mode: scripts/bench.sh query [output.json]
#   Compiled-query-path benchmark pairs: Naive (full store load, then
#   the boxed row-at-a-time reference filter) vs Plan (zone-map
#   predicate pushdown + vectorized filters + late materialization)
#   over an 8-segment store with disjoint id ranges. The Selective and
#   FullScan pairs disable the decoded-column cache; the Warm pair turns
#   it on and warms it, so it times per-request assembly on a
#   two-predicate question of the adhoc shape (one prunable predicate,
#   one broad). Writes BENCH_query.json and gates: the
#   selective pair must speed up at least MIN_SPEEDUP (default 2), its
#   zone maps must skip more than MIN_SKIP_RATE (default 0.5) of
#   blocks, and the full-scan pair — where pushdown can prune nothing —
#   must not regress more than MAX_FULLSCAN_REGRESSION_PCT (default 10)
#   percent. This is the CI gate on the compiled query path.
# Store mode: scripts/bench.sh store [output.json]
#   Columnar-store and endpoint baseline: runs the store benchmarks
#   (ColdOpen, ProjectedLoad, FullStoreLoad, FullJSONLoad, MetadataOnly
#   on the 560-profile Figure-13 ensemble) and the BenchmarkEndpoint*
#   requests against the resident MARBL server, with -benchmem, COUNT
#   runs each (default 5) at BENCHTIME (default 1s), and writes
#   BENCH_store.json: per benchmark the median and min-max of ns/op, B/op
#   and allocs/op, plus the median speedups of the projected, full-store
#   and metadata-only loads over FullJSONLoad. No gate: this mode records
#   the numbers the README and EXPERIMENTS.md quote.
set -euo pipefail
cd "$(dirname "$0")/.."

# AWK_STATS summarizes the space-separated samples of one benchmark
# metric: median(list), and stat(list) as a JSON object of its median,
# min and max. Modes that run -count rounds prepend it to their awk.
AWK_STATS='
function median(list,    v, n, i, j, t) {
	n = split(list, v, " ")
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	return (n % 2) ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2
}
function stat(list,    v, n, i, lo, hi) {
	n = split(list, v, " ")
	lo = hi = v[1] + 0
	for (i = 2; i <= n; i++) { if (v[i] + 0 < lo) lo = v[i] + 0; if (v[i] + 0 > hi) hi = v[i] + 0 }
	return sprintf("{ \"median\": %d, \"min\": %d, \"max\": %d }", median(list), lo, hi)
}
'

query_mode() {
	local OUT="${1:-BENCH_query.json}"
	local BENCHTIME="${BENCHTIME:-20x}"
	local MIN_SPEEDUP="${MIN_SPEEDUP:-2}"
	local MIN_SKIP="${MIN_SKIP_RATE:-0.5}"
	local MAX_REG_PCT="${MAX_FULLSCAN_REGRESSION_PCT:-10}"

	local RAW
	RAW="$(go test ./internal/plan -run '^$' -bench 'Query' \
		-benchtime "$BENCHTIME" -timeout 20m)"
	echo "$RAW" >&2

	echo "$RAW" | awk -v benchtime="$BENCHTIME" -v minspeed="$MIN_SPEEDUP" \
		-v minskip="$MIN_SKIP" -v maxreg="$MAX_REG_PCT" '
	/^goos: /   { goos = $2 }
	/^goarch: / { goarch = $2 }
	/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
	/^BenchmarkQuery/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		sub(/^BenchmarkQuery/, "", name)
		ns = 0; skip = -1; bytes = 0; allocs = 0
		for (i = 3; i < NF; i++) {
			if ($(i+1) == "ns/op") ns = $i
			if ($(i+1) == "skiprate") skip = $i
			if ($(i+1) == "B/op") bytes = $i
			if ($(i+1) == "allocs/op") allocs = $i
		}
		if (name ~ /Naive$/) {
			stem = substr(name, 1, length(name) - 5)
			naiveNs[stem] = ns; naiveB[stem] = bytes; naiveA[stem] = allocs
			if (!(stem in seen)) { order[++n] = stem; seen[stem] = 1 }
		} else if (name ~ /Plan$/) {
			stem = substr(name, 1, length(name) - 4)
			planNs[stem] = ns; planB[stem] = bytes; planA[stem] = allocs
			planSkip[stem] = skip
			if (!(stem in seen)) { order[++n] = stem; seen[stem] = 1 }
		}
	}
	END {
		fail = 0
		printf "{\n"
		printf "  \"description\": \"Compiled query path vs naive load-then-filter over an %d-segment store (disjoint id ranges). Selective and FullScan disable the decoded-column cache. Selective: predicate provably confined to one segment, zone maps skip the rest before any decode. FullScan: predicate matches everything, so pushdown prunes nothing and the pair pins pure plan overhead. Warm: column cache on and warmed before timing, with a prunable id range plus a broad group predicate (the adhoc shape), so the pair times per-request assembly rather than block decode.\",\n", 8
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"gates\": { \"min_selective_speedup\": %s, \"min_skip_rate\": %s, \"max_fullscan_regression_pct\": %s },\n", minspeed, minskip, maxreg
		printf "  \"environment\": { \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\" },\n", goos, goarch, cpu
		printf "  \"cases\": {\n"
		first = 1
		for (i = 1; i <= n; i++) {
			stem = order[i]
			if (!first) printf ",\n"
			first = 0
			speed = (planNs[stem] > 0) ? naiveNs[stem] / planNs[stem] : 0
			printf "    \"%s\": {\n", stem
			printf "      \"naive\": { \"ns_per_op\": %d, \"bytes_per_op\": %d, \"allocs_per_op\": %d },\n", naiveNs[stem], naiveB[stem], naiveA[stem]
			printf "      \"plan\": { \"ns_per_op\": %d, \"bytes_per_op\": %d, \"allocs_per_op\": %d },\n", planNs[stem], planB[stem], planA[stem]
			if (planSkip[stem] >= 0)
				printf "      \"block_skip_rate\": %.4f,\n", planSkip[stem]
			printf "      \"speedup\": %.2f\n", speed
			printf "    }"
			printf "%-12s naive %10d ns/op   plan %10d ns/op   speedup %5.2fx", \
				stem, naiveNs[stem], planNs[stem], speed > "/dev/stderr"
			if (planSkip[stem] >= 0)
				printf "   skiprate %.3f", planSkip[stem] > "/dev/stderr"
			printf "\n" > "/dev/stderr"
			if (stem == "Selective") {
				if (speed < minspeed) { fail = 1; printf "FAIL: selective speedup %.2f < %s\n", speed, minspeed > "/dev/stderr" }
				if (planSkip[stem] < minskip) { fail = 1; printf "FAIL: skip rate %.3f <= %s\n", planSkip[stem], minskip > "/dev/stderr" }
			}
			if (stem == "FullScan" && planNs[stem] > naiveNs[stem] * (1 + maxreg / 100.0)) {
				fail = 1
				printf "FAIL: full-scan plan regresses %.1f%% over naive (gate %s%%)\n", \
					(planNs[stem] / naiveNs[stem] - 1) * 100, maxreg > "/dev/stderr"
			}
		}
		printf "\n  }\n}\n"
		exit fail
	}' > "$OUT"

	echo "wrote $OUT" >&2
}

if [[ "${1:-}" == "query" ]]; then
	shift
	query_mode "$@"
	exit 0
fi

overhead_mode() {
	local OUT="${1:-BENCH_telemetry_overhead.json}"
	local BENCHTIME="${BENCHTIME:-30x}"
	local COUNT="${COUNT:-3}"
	local MAX_PCT="${MAX_OVERHEAD_PCT:-5}"
	local tmp_off tmp_on bench_bin
	tmp_off="$(mktemp)"
	tmp_on="$(mktemp)"
	bench_bin="$(mktemp)"
	trap 'rm -f "$tmp_off" "$tmp_on" "$bench_bin"' RETURN

	# One compiled test binary for every round: identical code, and no
	# go-test build step inside the measured window.
	go test -c -o "$bench_bin" ./internal/dataframe >&2

	local round
	for round in $(seq 1 "$COUNT"); do
		echo "== round $round/$COUNT: telemetry disabled ==" >&2
		THICKET_TELEMETRY=0 "$bench_bin" -test.run '^$' -test.bench 'New$' \
			-test.benchtime "$BENCHTIME" -test.timeout 20m | tee -a "$tmp_off" >&2
		echo "== round $round/$COUNT: telemetry enabled ==" >&2
		THICKET_TELEMETRY=1 "$bench_bin" -test.run '^$' -test.bench 'New$' \
			-test.benchtime "$BENCHTIME" -test.timeout 20m | tee -a "$tmp_on" >&2
	done

	{ sed 's/^/off /' "$tmp_off"; sed 's/^/on /' "$tmp_on"; } | awk \
		-v max="$MAX_PCT" -v benchtime="$BENCHTIME" -v count="$COUNT" '
	$2 ~ /^Benchmark/ && /ns\/op/ {
		mode = $1; name = $2
		sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
		ns = $4
		if (mode == "off") {
			if (!(name in off) || ns < off[name]) off[name] = ns
			if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
		} else {
			if (!(name in on) || ns < on[name]) on[name] = ns
		}
	}
	END {
		printf "{\n"
		printf "  \"description\": \"Per-kernel best-of-%d ns/op with THICKET_TELEMETRY disabled vs enabled, measured in interleaved rounds to cancel machine drift; overhead_pct is the enabled-path regression. Per-kernel values carry machine noise; the gate is on the mean: %s%%.\",\n", count, max
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"max_mean_overhead_pct\": %s,\n", max
		printf "  \"kernels\": {\n"
		total = 0
		for (i = 1; i <= n; i++) {
			name = order[i]
			pct = (on[name] - off[name]) * 100.0 / off[name]
			total += pct
			printf "    \"%s\": { \"disabled_ns_per_op\": %d, \"enabled_ns_per_op\": %d, \"overhead_pct\": %.2f },\n", \
				name, off[name], on[name], pct
			printf "%-28s disabled %10d ns/op   enabled %10d ns/op   overhead %+6.2f%%\n", \
				name, off[name], on[name], pct > "/dev/stderr"
		}
		mean = (n > 0) ? total / n : 0
		fail = (mean > max) ? 1 : 0
		printf "    \"_mean\": { \"overhead_pct\": %.2f }\n", mean
		printf "  }\n}\n"
		printf "%-28s mean overhead %+6.2f%%  (gate %s%%)  %s\n", \
			"TOTAL", mean, max, fail ? "FAIL" : "ok" > "/dev/stderr"
		exit fail
	}' > "$OUT"

	echo "wrote $OUT" >&2
}

monitor_mode() {
	local OUT="${1:-BENCH_monitor_overhead.json}"
	local BENCHTIME="${BENCHTIME:-30x}"
	local COUNT="${COUNT:-3}"
	local MAX_PCT="${MAX_MONITOR_OVERHEAD_PCT:-1}"

	# -count rounds interleave Off and On by declaration order
	# (OffHealthz, OnHealthz, OffProfiles, ...), so machine drift hits
	# both sides of every pair evenly; the gate takes best-of-COUNT.
	local RAW
	RAW="$(go test ./internal/server -run '^$' -bench 'Monitor(Off|On)' \
		-benchtime "$BENCHTIME" -count "$COUNT" -timeout 20m)"
	echo "$RAW" >&2

	echo "$RAW" | awk -v max="$MAX_PCT" -v benchtime="$BENCHTIME" -v count="$COUNT" '
	/^goos: /   { goos = $2 }
	/^goarch: / { goarch = $2 }
	/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
	/^BenchmarkMonitor/ && /ns\/op/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		sub(/^BenchmarkMonitor/, "", name)
		ns = $3
		if (name ~ /^Off/) {
			stem = substr(name, 4)
			if (!(stem in off) || ns < off[stem]) off[stem] = ns
			if (!(stem in seen)) { order[++n] = stem; seen[stem] = 1 }
		} else if (name ~ /^On/) {
			stem = substr(name, 3)
			if (!(stem in on) || ns < on[stem]) on[stem] = ns
			if (!(stem in seen)) { order[++n] = stem; seen[stem] = 1 }
		}
	}
	END {
		printf "{\n"
		printf "  \"description\": \"Per-endpoint best-of-%d ns/op with the self-monitor absent vs sampling every 50ms (200x the default cadence), interleaved rounds. The request path gains no code from the monitor; the On side pins background snapshot and rule-evaluation contention (shipped rules, latency baselines included). Gate is on the mean overhead: %s%%.\",\n", count, max
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"max_mean_overhead_pct\": %s,\n", max
		printf "  \"environment\": { \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\" },\n", goos, goarch, cpu
		printf "  \"endpoints\": {\n"
		total = 0
		for (i = 1; i <= n; i++) {
			stem = order[i]
			pct = (on[stem] - off[stem]) * 100.0 / off[stem]
			total += pct
			printf "    \"%s\": { \"monitor_off_ns_per_op\": %d, \"monitor_on_ns_per_op\": %d, \"overhead_pct\": %.2f },\n", \
				stem, off[stem], on[stem], pct
			printf "%-28s off %10d ns/op   on %10d ns/op   overhead %+6.2f%%\n", \
				stem, off[stem], on[stem], pct > "/dev/stderr"
		}
		mean = (n > 0) ? total / n : 0
		fail = (mean > max) ? 1 : 0
		printf "    \"_mean\": { \"overhead_pct\": %.2f }\n", mean
		printf "  }\n}\n"
		printf "%-28s mean overhead %+6.2f%%  (gate %s%%)  %s\n", \
			"TOTAL", mean, max, fail ? "FAIL" : "ok" > "/dev/stderr"
		exit fail
	}' > "$OUT"

	echo "wrote $OUT" >&2
}

loadgen_mode() {
	local OUT="${1:-BENCH_loadgen.json}"
	local SEED="${SEED:-1337}"
	local DURATION="${DURATION:-10s}"
	local RATE="${RATE:-200}"
	local MAX_P99="${MAX_P99:-1s}"
	go run ./cmd/thicket-loadgen \
		-seed "$SEED" -duration "$DURATION" -rate "$RATE" \
		-max-p99 "$MAX_P99" -fail-on-anomaly -fail-on-error \
		-out "$OUT"
	echo "wrote $OUT" >&2
}

ingest_mode() {
	local OUT="${1:-BENCH_ingest.json}"
	local SEED="${SEED:-1337}"
	local DURATION="${DURATION:-10s}"
	local RATE="${RATE:-150}"
	local MAX_P99="${MAX_P99:-1s}"
	go run ./cmd/thicket-loadgen \
		-workload ingest-query \
		-seed "$SEED" -duration "$DURATION" -rate "$RATE" \
		-max-p99 "$MAX_P99" -fail-on-anomaly -fail-on-error \
		-ingest-flush 4 -ingest-compact-run 4 \
		-out "$OUT"
	echo "wrote $OUT" >&2
}

store_mode() {
	local OUT="${1:-BENCH_store.json}"
	local BENCHTIME="${BENCHTIME:-1s}"
	local COUNT="${COUNT:-5}"

	local RAW
	RAW="$(go test ./internal/store ./internal/server -run '^$' \
		-bench '^Benchmark(ColdOpen|ProjectedLoad|FullStoreLoad|FullJSONLoad|MetadataOnly|Endpoint.*)$' \
		-benchmem -benchtime "$BENCHTIME" -count "$COUNT" -timeout 20m)"
	echo "$RAW" >&2

	echo "$RAW" | awk -v benchtime="$BENCHTIME" -v count="$COUNT" -v cores="$(nproc)" "$AWK_STATS"'
	function emit(section,    i, name, first) {
		first = 1
		for (i = 1; i <= n; i++) {
			name = order[i]
			if (group[name] != section) continue
			if (!first) printf ",\n"
			first = 0
			printf "      \"%s\": {\n", name
			printf "        \"ns_per_op\": %s,\n", stat(ns[name])
			printf "        \"bytes_per_op\": %s,\n", stat(bytes[name])
			printf "        \"allocs_per_op\": %s\n", stat(allocs[name])
			printf "      }"
			printf "%-26s median %12.0f ns/op %12.0f B/op %8.0f allocs/op\n", \
				name, median(ns[name]), median(bytes[name]), median(allocs[name]) > "/dev/stderr"
		}
		printf "\n"
	}
	/^goos: /   { goos = $2 }
	/^goarch: / { goarch = $2 }
	/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
	/^Benchmark/ && /ns\/op/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		for (i = 3; i < NF; i++) {
			if ($(i+1) == "ns/op") ns[name] = ns[name] " " $i
			if ($(i+1) == "B/op") bytes[name] = bytes[name] " " $i
			if ($(i+1) == "allocs/op") allocs[name] = allocs[name] " " $i
		}
		if (!(name in group)) {
			order[++n] = name
			group[name] = (name ~ /^BenchmarkEndpoint/) ? "server" : "store"
		}
	}
	END {
		json = median(ns["BenchmarkFullJSONLoad"])
		printf "{\n"
		printf "  \"description\": \"Columnar ensemble store + thicketd endpoint baseline, written by scripts/bench.sh store: median and min-max over %d runs of go test -benchmem -benchtime %s. Store benchmarks run on the 560-profile Figure-13 RAJAPerf ensemble (sim.Figure13Ensemble(1)) persisted both as serialized thicket JSON and as a columnar store, each load on a cold column cache; endpoint benchmarks run against the resident 8-profile MARBL server used by the golden tests. Speedups are ratios of medians.\",\n", count, benchtime
		printf "  \"benchtime\": \"%s\",\n", benchtime
		printf "  \"count\": %d,\n", count
		printf "  \"environment\": { \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\", \"cores\": %d },\n", goos, goarch, cpu, cores
		printf "  \"store\": {\n"
		printf "    \"fixture\": { \"profiles\": 560, \"ensemble\": \"sim.Figure13Ensemble(1)\", \"projected_column\": \"time (exc)\" },\n"
		printf "    \"benchmarks\": {\n"
		emit("store")
		printf "    },\n"
		printf "    \"speedups\": {\n"
		printf "      \"projected_load_vs_full_json\": %.1f,\n", json / median(ns["BenchmarkProjectedLoad"])
		printf "      \"full_store_load_vs_full_json\": %.1f,\n", json / median(ns["BenchmarkFullStoreLoad"])
		printf "      \"metadata_only_vs_full_json\": %.1f\n", json / median(ns["BenchmarkMetadataOnly"])
		printf "    }\n"
		printf "  },\n"
		printf "  \"server\": {\n"
		printf "    \"benchmarks\": {\n"
		emit("server")
		printf "    }\n"
		printf "  }\n"
		printf "}\n"
		printf "speedups over FullJSONLoad (medians): projected %.1fx, full store %.1fx, metadata only %.1fx\n", \
			json / median(ns["BenchmarkProjectedLoad"]), json / median(ns["BenchmarkFullStoreLoad"]), \
			json / median(ns["BenchmarkMetadataOnly"]) > "/dev/stderr"
	}' > "$OUT"

	echo "wrote $OUT" >&2
}

if [[ "${1:-}" == "store" ]]; then
	shift
	store_mode "$@"
	exit 0
fi

if [[ "${1:-}" == "overhead" ]]; then
	shift
	overhead_mode "$@"
	exit 0
fi

if [[ "${1:-}" == "loadgen" ]]; then
	shift
	loadgen_mode "$@"
	exit 0
fi

if [[ "${1:-}" == "ingest" ]]; then
	shift
	ingest_mode "$@"
	exit 0
fi

if [[ "${1:-}" == "monitor" ]]; then
	shift
	monitor_mode "$@"
	exit 0
fi

OUT="${1:-BENCH_kernels.json}"
BENCHTIME="${BENCHTIME:-20x}"
COUNT="${COUNT:-5}"

RAW="$(go test ./internal/dataframe ./internal/core ./internal/profile -run '^$' -bench '(Ref|New)$' \
	-benchmem -benchtime "$BENCHTIME" -count "$COUNT" -timeout 30m)"
echo "$RAW" >&2

echo "$RAW" | awk -v benchtime="$BENCHTIME" -v count="$COUNT" -v cores="$(nproc)" "$AWK_STATS"'
function side(label, stem,    key) {
	key = label stem
	return sprintf("      \"%s\": { \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s }", \
		label, stat(ns[key]), stat(bytes[key]), stat(allocs[key]))
}
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ && /ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)      # strip GOMAXPROCS suffix
	sub(/^Benchmark/, "", name)
	label = (name ~ /Ref$/) ? "ref" : "new"
	stem = substr(name, 1, length(name) - 3)
	key = label stem
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op") ns[key] = ns[key] " " $i
		if ($(i+1) == "B/op") bytes[key] = bytes[key] " " $i
		if ($(i+1) == "allocs/op") allocs[key] = allocs[key] " " $i
	}
	if (!(stem in seen)) { order[++n] = stem; seen[stem] = 1 }
}
END {
	printf "{\n"
	printf "  \"description\": \"Reference implementations (Ref) vs shipping code (New), sequential (1 worker), written by scripts/bench.sh: median and min-max over %d runs of go test -benchmem -benchtime %s. Dataframe kernels (dictionary-encoded key ids vs EncodeKey strings) on %d-row mixed-kind frames with nulls; core verbs (profile ordinals: FilterMetadata, FilterProfiles, Validate via FromParts, GroupedStats, PivotMetric) on the 560-profile Figure-13 ensemble; FromProfiles (one union and direct perf columns vs per-profile unions through dataframe.Builder) composing its five rows; Decode (FromBytes single-pass scanner vs the general encoding/json decoder) over its 560 profile files. Speedups and allocation reductions are ratios of medians.\",\n", count, benchtime, 20000
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"count\": %d,\n", count
	printf "  \"environment\": { \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\", \"cores\": %d },\n", goos, goarch, cpu, cores
	printf "  \"kernels\": {\n"
	for (i = 1; i <= n; i++) {
		stem = order[i]
		printf "    \"%s\": {\n", stem
		if (("ref" stem) in ns) printf "%s,\n", side("ref", stem)
		printf "%s", side("new", stem)
		if (("ref" stem) in ns) {
			printf ",\n      \"speedup\": %.2f,\n", median(ns["ref" stem]) / median(ns["new" stem])
			printf "      \"alloc_reduction\": %.1f\n", (median(allocs["new" stem]) > 0) ? median(allocs["ref" stem]) / median(allocs["new" stem]) : 0
		} else {
			printf "\n"
		}
		printf "    }%s\n", (i < n) ? "," : ""
		printf "%-18s median %12.0f -> %12.0f ns/op %10.0f -> %10.0f allocs/op\n", stem, \
			median(ns["ref" stem]), median(ns["new" stem]), median(allocs["ref" stem]), median(allocs["new" stem]) > "/dev/stderr"
	}
	printf "  }\n}\n"
}
' > "$OUT"

echo "wrote $OUT" >&2
