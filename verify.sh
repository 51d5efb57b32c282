#!/bin/sh
# verify.sh — the pre-PR gate: format, vet, build, race-enabled tests, and
# the project-native static-analysis suite. Every step must pass before a
# change ships; ROADMAP.md documents this as the tier-1 contract.
set -eu

cd "$(dirname "$0")"

# Failure classification: every stage declares its name and class via
# begin() before running, and the single EXIT trap below both cleans up
# every temp artifact and — on a non-zero exit — prints one machine-
# greppable line naming the stage and the failure class (build / test /
# lint / budget-exceeded), so a red gate is diagnosable from the last
# line of output alone.
stage="startup"
class="build"
cover_current=""
lint_bin=""
lint_cache=""
fit_bin=""
ingest_bin=""
serve_out=""

cleanup() {
	code=$?
	[ -n "$cover_current" ] && rm -f "$cover_current"
	[ -n "$lint_bin" ] && rm -f "$lint_bin"
	[ -n "$lint_cache" ] && rm -rf "$lint_cache"
	[ -n "$fit_bin" ] && rm -f "$fit_bin"
	[ -n "$ingest_bin" ] && rm -f "$ingest_bin"
	[ -n "$serve_out" ] && rm -f "$serve_out"
	if [ "$code" -ne 0 ]; then
		echo "verify.sh: FAILED stage=$stage class=$class" >&2
	fi
	exit "$code"
}
trap cleanup EXIT

# begin <stage> <class> <banner>
begin() {
	stage=$1
	class=$2
	echo "==> $3"
}

begin gofmt lint "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

begin vet lint "go vet ./..."
go vet ./...

begin build build "go build ./..."
go build ./...

begin test test "go test -race ./..."
go test -race ./...

# The concurrency and determinism contracts (stable results across worker
# counts, prompt cancellation, no goroutine leaks, order-independent
# aggregation and model selection) get an extra stress pass: shuffled test
# order, run twice, under the race detector, across the deterministic core
# of the modeling path, plus ingest, whose profile-set Report runs beside
# concurrent edserve uploads.
shuffle_pkgs="./internal/pipeline/... ./internal/ingest/... ./internal/aggregate/... ./internal/epoch/... ./internal/modeling/... ./internal/pmnf/... ./internal/analysis/... ./internal/serve/..."
begin shuffle test "go test -race -shuffle=on -count=2 (pipeline + modeling core)"
go test -race -shuffle=on -count=2 $shuffle_pkgs

# The edlint parallel loader type-checks packages concurrently and its
# incremental cache must stay byte-identical to a cold run; both contracts
# get a dedicated shuffled race pass (the full ./... race run above covers
# the rest of the lint suite once). The perf analyzer family's parity
# property rides along: interprocedural traces must not depend on worker
# count or cache temperature.
begin lint-parity test "go test -race -shuffle=on (edlint parallel loader + cache parity)"
go test -race -shuffle=on -run 'TestLoadModuleWorkersParity|TestLintCacheParity|TestPropLintCacheParity|TestPropPerfAnalyzersParity' ./internal/lint

# resilience: the randomized fault-schedule invariants — every run either
# completes, completes partially with all failures classified, or fails
# with a typed error; resume after any interruption is byte-identical;
# injector and retrier replay exactly from their seeds — rerun under the
# race detector as a dedicated stage with their own wall-time budget, so
# a hang in the chaos path (a stalled stage, a leaked goroutine blocking
# exit) surfaces as budget-exceeded rather than wedging the whole gate.
begin resilience test "go test -race (fault-schedule propcheck invariants, 120s budget)"
res_start=$(date +%s)
go test -race -run 'TestPropFaultScheduleTrichotomy|TestPropResumeByteIdentical|TestPropCheckpointRoundTrip|TestPropInjectorReplayIdentical|TestPropRetrySleepScheduleReplayable' ./internal/resilience ./internal/pipeline
res_elapsed=$(($(date +%s) - res_start))
echo "resilience: fault-schedule suites passed in ${res_elapsed}s"
if [ "$res_elapsed" -gt 120 ]; then
	class="budget-exceeded"
	echo "resilience: suites exceeded the 120s budget (${res_elapsed}s) — a chaos-path stall or runaway schedule; replay the printed EDCHECK_SEED" >&2
	exit 1
fi

# edcheck: the propcheck invariant suites (TestProp*) rerun in their
# long-haul configuration — 5x the per-property iteration count under a
# 55-second budget. Any failure prints a one-line EDCHECK_SEED replay
# recipe; the budget keeps the gate cheap as suites accumulate.
begin edcheck test "edcheck (long-haul propcheck invariants: 5x iterations, 55s budget)"
go run ./cmd/edcheck

# Coverage-regression gate: per-package statement coverage must not drop
# more than 2 points below the committed baseline. Refresh the baseline
# deliberately (see the regeneration hint below) when coverage moves for a
# good reason; silent erosion fails the gate.
begin coverage test "coverage regression (baseline: COVERAGE_baseline.txt, 2pt tolerance)"
cover_current=$(mktemp)
go test -cover ./internal/... |
	awk '$1 == "ok" { for (i = 1; i <= NF; i++) if ($i == "coverage:") { p = $(i + 1); sub(/%/, "", p); print $2, p } }' |
	sort >"$cover_current"
awk '
	NR == FNR { base[$1] = $2; next }
	{ cur[$1] = $2 }
	END {
		bad = 0
		for (pkg in base) {
			if (!(pkg in cur)) {
				printf "coverage: %s has a baseline (%.1f%%) but was missing from this run\n", pkg, base[pkg]
				bad = 1
			} else if (cur[pkg] < base[pkg] - 2) {
				printf "coverage regression: %s %.1f%% is more than 2pt below the %.1f%% baseline\n", pkg, cur[pkg], base[pkg]
				bad = 1
			}
		}
		for (pkg in cur) if (!(pkg in base)) {
			printf "coverage: note: %s (%.1f%%) is new — add it to COVERAGE_baseline.txt\n", pkg, cur[pkg]
		}
		if (bad) {
			print "coverage gate failed; after a deliberate change, refresh with:"
			print "  go test -cover ./internal/... | awk <see verify.sh> | sort > COVERAGE_baseline.txt"
		}
		exit bad
	}' COVERAGE_baseline.txt "$cover_current"

# edlint-bench: the full-module lint (parse + type-check + 14-analyzer
# suite) is itself part of the gate, so it must stay cheap. Since edlint
# v3 the run is incremental: the stage builds the binary once, runs it
# cold into a fresh cache directory (populating the stdlib export bundle
# and the findings cache), then runs it again warm. The cold run gets a
# 25-second budget (up from 20s when the v4 perf analyzer family joined
# the suite; still far below the 60s pre-cache era) and the warm run a
# 5-second one — a warm miss here means the content-addressed cache broke.
# BENCH_lint.json tracks the finer-grained trajectory via
# BenchmarkLintRepo / BenchmarkLintRepoWarm / BenchmarkLintRepoWarmLoad.
begin edlint lint "edlint ./... (edlint-bench: cold-then-warm, 25s/5s budgets)"
lint_bin=$(mktemp)
lint_cache=$(mktemp -d)
go build -o "$lint_bin" ./cmd/edlint
lint_start=$(date +%s)
"$lint_bin" -cachedir "$lint_cache" ./...
lint_cold=$(($(date +%s) - lint_start))
lint_start=$(date +%s)
"$lint_bin" -cachedir "$lint_cache" ./...
lint_warm=$(($(date +%s) - lint_start))
echo "edlint-bench: cold ${lint_cold}s, warm ${lint_warm}s"
if [ "$lint_cold" -gt 25 ]; then
	class="budget-exceeded"
	echo "edlint-bench: cold run exceeded the 25s budget (${lint_cold}s) — profile with 'go test -bench BenchmarkLintRepo ./internal/lint'" >&2
	exit 1
fi
if [ "$lint_warm" -gt 5 ]; then
	class="budget-exceeded"
	echo "edlint-bench: warm run exceeded the 5s budget (${lint_warm}s) — the incremental cache is not hitting; profile with 'go test -bench BenchmarkLintRepoWarm ./internal/lint'" >&2
	exit 1
fi

# fit-bench: the design-matrix fit engine is the hot path of the whole
# analysis; a perf regression there silently eats the 3x speedup the
# engine exists for. A 3-iteration BenchmarkParallelFit smoke run must
# build and finish inside a 60-second budget (the full 30x trajectory
# lives in BENCH_pipeline.json). Since edlint v4 the run also reports
# allocations (-test.benchmem) and gates allocs/op: the perf analyzers
# police the hot paths statically, and this ceiling catches what escapes
# them dynamically. The v4 cleanup measured ~11.8k allocs/op per
# BuildModels campaign (down from ~15.2k); the ceiling leaves ~10%
# headroom. A build failure fails the stage as class=build via the
# compile step below.
fit_alloc_ceiling=13000
begin fit-bench-build build "go test -c (fit-bench smoke binary)"
fit_bin=$(mktemp)
go test -c -o "$fit_bin" .
begin fit-bench test "BenchmarkParallelFit -benchtime 3x -benchmem (60s budget, allocs/op <= ${fit_alloc_ceiling})"
fit_start=$(date +%s)
fit_out=$("$fit_bin" -test.run '^$' -test.bench BenchmarkParallelFit -test.benchtime 3x -test.benchmem)
fit_elapsed=$(($(date +%s) - fit_start))
echo "$fit_out"
echo "fit-bench: smoke run finished in ${fit_elapsed}s"
if [ "$fit_elapsed" -gt 60 ]; then
	class="budget-exceeded"
	echo "fit-bench: smoke run exceeded the 60s budget (${fit_elapsed}s) — the fit engine regressed; profile with 'go test -bench BenchmarkParallelFit -cpuprofile cpu.out .'" >&2
	exit 1
fi
echo "$fit_out" | awk -v ceiling="$fit_alloc_ceiling" '
	/allocs\/op/ {
		for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i - 1) + 0 > ceiling) {
			printf "fit-bench: %s allocates %s allocs/op, above the %d ceiling — an allocation crept into the fit hot path; run '\''go run ./cmd/edlint ./...'\'' and '\''go test -bench BenchmarkParallelFit -benchmem -memprofile mem.out .'\''\n", $1, $(i - 1), ceiling
			bad = 1
		}
	}
	END { exit bad }' || { class="budget-exceeded"; exit 1; }

# aggregate-bench: the Fig. 2 aggregation runs over dense kernel IDs and
# flat per-trace tables (DESIGN.md §18) instead of string-keyed nested
# maps, which cut BenchmarkPipelineOnly (aggregation + BuildModels on a
# pre-generated 5-configuration cifar10 campaign) from ~58.3k to ~14.0k
# allocs/op. A 3-iteration smoke run of the fit-bench binary must finish
# inside a 60-second budget and stay under an allocs/op ceiling with
# ~10% headroom, so a map or a per-event allocation creeping back into
# aggregation fails here.
aggregate_alloc_ceiling=15400
begin aggregate-bench test "BenchmarkPipelineOnly -benchtime 3x -benchmem (60s budget, allocs/op <= ${aggregate_alloc_ceiling})"
aggregate_start=$(date +%s)
aggregate_out=$("$fit_bin" -test.run '^$' -test.bench 'BenchmarkPipelineOnly$' -test.benchtime 3x -test.benchmem)
aggregate_elapsed=$(($(date +%s) - aggregate_start))
echo "$aggregate_out"
echo "aggregate-bench: smoke run finished in ${aggregate_elapsed}s"
if [ "$aggregate_elapsed" -gt 60 ]; then
	class="budget-exceeded"
	echo "aggregate-bench: smoke run exceeded the 60s budget (${aggregate_elapsed}s) — profile with 'go test -run ^$ -bench BenchmarkPipelineOnly -cpuprofile cpu.out .'" >&2
	exit 1
fi
echo "$aggregate_out" | awk -v ceiling="$aggregate_alloc_ceiling" '
	/allocs\/op/ {
		for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i - 1) + 0 > ceiling) {
			printf "aggregate-bench: %s allocates %s allocs/op, above the %d ceiling — an allocation crept into aggregation or the fit path; run '\''go test -run ^$ -bench BenchmarkPipelineOnly -benchmem -memprofile mem.out .'\''\n", $1, $(i - 1), ceiling
			bad = 1
		}
	}
	END { exit bad }' || { class="budget-exceeded"; exit 1; }

# ingest-bench: profile ingestion (read + decode + validate) was ~88% of
# an end-to-end cifar10 run until the single-pass profile decoder
# (DESIGN.md §17) replaced reflection-based encoding/json on the canonical
# schema. A 3-iteration BenchmarkLoadDir smoke run over the 90-file
# cifar10 campaign must finish inside a 60-second budget and stay under
# an allocs/op ceiling: the decoder measured ~2.0k allocs/op per load
# (encoding/json: ~124k); the ceiling leaves ~10% headroom, so a schema
# change that silently sends every file down the encoding/json fallback
# fails here as well as in the schema-drift tests.
ingest_alloc_ceiling=2200
begin ingest-bench-build build "go test -c (ingest-bench smoke binary)"
ingest_bin=$(mktemp)
go test -c -o "$ingest_bin" ./internal/ingest
begin ingest-bench test "BenchmarkLoadDir -benchtime 3x -benchmem (60s budget, allocs/op <= ${ingest_alloc_ceiling})"
ingest_start=$(date +%s)
ingest_out=$("$ingest_bin" -test.run '^$' -test.bench BenchmarkLoadDir -test.benchtime 3x -test.benchmem)
ingest_elapsed=$(($(date +%s) - ingest_start))
echo "$ingest_out"
echo "ingest-bench: smoke run finished in ${ingest_elapsed}s"
if [ "$ingest_elapsed" -gt 60 ]; then
	class="budget-exceeded"
	echo "ingest-bench: smoke run exceeded the 60s budget (${ingest_elapsed}s) — profile with 'go test -bench BenchmarkLoadDir -cpuprofile cpu.out ./internal/ingest'" >&2
	exit 1
fi
echo "$ingest_out" | awk -v ceiling="$ingest_alloc_ceiling" '
	/allocs\/op/ {
		for (i = 2; i <= NF; i++) if ($i == "allocs/op" && $(i - 1) + 0 > ceiling) {
			printf "ingest-bench: %s allocates %s allocs/op, above the %d ceiling — profiles are leaving the single-pass decoder or an allocation crept into ingest; run '\''go test ./internal/profile'\'' and '\''go test -bench BenchmarkLoadDir -benchmem -memprofile mem.out ./internal/ingest'\''\n", $1, $(i - 1), ceiling
			bad = 1
		}
	}
	END { exit bad }' || { class="budget-exceeded"; exit 1; }

# serve-bench: the modeling service must answer queries from its
# published snapshot cache, never by re-fitting per request. The stage
# builds the edserve binary (keeping cmd/edserve honest as a compile
# target) and runs a 1-client BenchmarkServe smoke — one settled imdb
# campaign, then 100 predict queries over HTTP — inside a 30-second
# budget. The run writes its measured req/s and p99 latency to a
# temporary file that the stage removes, so the committed 1/4/16-client
# BENCH_serve.json stays as recorded (regenerate it with the command
# recorded inside that file).
begin serve-bench-build build "go build ./cmd/edserve"
serve_bin=$(mktemp)
go build -o "$serve_bin" ./cmd/edserve
begin serve-bench test "BenchmarkServe/clients=1 -benchtime 100x (30s budget)"
serve_out=$(mktemp)
serve_start=$(date +%s)
EDSERVE_BENCH_OUT="$serve_out" go test -run '^$' -bench 'BenchmarkServe/clients=1$' -benchtime 100x ./internal/serve/
rm -f "$serve_out"
serve_elapsed=$(($(date +%s) - serve_start))
echo "serve-bench: smoke run finished in ${serve_elapsed}s"
if [ "$serve_elapsed" -gt 30 ]; then
	class="budget-exceeded"
	echo "serve-bench: smoke run exceeded the 30s budget (${serve_elapsed}s) — the query path is fitting instead of serving from the snapshot cache; profile with 'go test -bench BenchmarkServe -cpuprofile cpu.out ./internal/serve/'" >&2
	exit 1
fi

# Fuzz smoke: the ingestion invariant ("valid profile or error — never a
# panic, never a NaN smuggled into the pipeline") must survive a short
# native-fuzzing burst on every loader fuzz target, the single-pass
# profile decoder must keep matching encoding/json bit for bit and error
# for error (FuzzProfileDecode), plus the checkpoint
# decoder ("a record round-trips or errors — a truncated or bit-flipped
# record file must never panic or load silently wrong").
begin fuzz test "fuzz smoke (5s per target)"
go test -run='^$' -fuzz='^FuzzReadCSV$' -fuzztime=5s ./internal/importer
go test -run='^$' -fuzz='^FuzzProfileRead$' -fuzztime=5s ./internal/profile
go test -run='^$' -fuzz='^FuzzProfileDecode$' -fuzztime=5s ./internal/profile
go test -run='^$' -fuzz='^FuzzParseFileName$' -fuzztime=5s ./internal/profile
go test -run='^$' -fuzz='^FuzzCheckpointDecode$' -fuzztime=5s ./internal/pipeline

echo "verify.sh: all gates passed"
