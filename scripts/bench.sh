#!/bin/sh
# Perf-trajectory harness: runs the streaming-pipeline benchmark
# (BenchmarkStreamPipeline, workers {1,4,16} x batch {1,64}), the
# decode-parallel benchmark (BenchmarkDecodeParallel, scan vs seq
# front end at workers {1,4,16}), the sharded-ingest benchmark
# (BenchmarkShardedIngest, single-scanner baseline vs segment-index
# shards {1,2,4,8}), the geo-lookup cache benchmark
# (BenchmarkGeoLookup, cached vs uncached), the telemetry cost
# benchmark (BenchmarkStreamTelemetryOverhead, telemetry off vs on),
# the tracing cost benchmark (BenchmarkStreamTraceOverhead, tracer
# off vs attached with per-record sampling off),
# the virtual-time generator benchmark (BenchmarkLongitudinalGen,
# arrival expansion + simulation + TDCAP encode over 48h and 336h
# windows), and the connection simulator benchmark
# (BenchmarkScenarioSimulation, ns/B/allocs per connection on a warmed
# workload.Simulator, at a fixed 20000 connections per run so its
# allocation gate means the same thing in the check.sh smoke)
# BENCH_COUNT times and aggregates the per-cell medians into
# BENCH_pipeline.json via scripts/benchjson — the recorded numbers
# EXPERIMENTS.md's Performance section tracks across PRs. Run from
# anywhere:
#
#	./scripts/bench.sh
#
# Environment knobs:
#	BENCH_COUNT     repetitions to take the median over (default 5)
#	BENCH_TIME      -benchtime per stream-pipeline run (default 10x;
#	                check.sh smokes with 1x)
#	GEO_BENCH_TIME  -benchtime per geo-lookup run (default 500000x)
#	BENCH_OUT       output path (default BENCH_pipeline.json in the
#	                repo root)
set -eu

COUNT="${BENCH_COUNT:-5}"
BENCHTIME="${BENCH_TIME:-10x}"
GEOTIME="${GEO_BENCH_TIME:-500000x}"
OUT="${BENCH_OUT:-BENCH_pipeline.json}"

cd "$(dirname "$0")/.."

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# The stream benchmark's op is a whole pipeline run, so a handful of
# iterations suffice; the geo lookup's op is ~tens of nanoseconds and
# needs its own much larger iteration budget (GEO_BENCH_TIME).
echo "== go test -bench BenchmarkStreamPipeline -benchtime $BENCHTIME -count $COUNT =="
go test -run '^$' -bench 'BenchmarkStreamPipeline' -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$tmp"

echo "== go test -bench BenchmarkDecodeParallel -benchtime $BENCHTIME -count $COUNT =="
go test -run '^$' -bench 'BenchmarkDecodeParallel' -benchtime "$BENCHTIME" -count "$COUNT" . | tee -a "$tmp"

echo "== go test -bench BenchmarkShardedIngest -benchtime $BENCHTIME -count $COUNT =="
go test -run '^$' -bench 'BenchmarkShardedIngest' -benchtime "$BENCHTIME" -count "$COUNT" . | tee -a "$tmp"

echo "== go test -bench BenchmarkGeoLookup -benchtime $GEOTIME -count $COUNT =="
go test -run '^$' -bench 'BenchmarkGeoLookup' -benchtime "$GEOTIME" -count "$COUNT" . | tee -a "$tmp"

echo "== go test -bench BenchmarkStreamTelemetryOverhead -benchtime $BENCHTIME -count $COUNT =="
go test -run '^$' -bench 'BenchmarkStreamTelemetryOverhead' -benchtime "$BENCHTIME" -count "$COUNT" . | tee -a "$tmp"

echo "== go test -bench BenchmarkStreamTraceOverhead -benchtime $BENCHTIME -count $COUNT =="
go test -run '^$' -bench 'BenchmarkStreamTraceOverhead' -benchtime "$BENCHTIME" -count "$COUNT" . | tee -a "$tmp"

echo "== go test -bench BenchmarkLongitudinalGen -benchtime $BENCHTIME -count $COUNT =="
go test -run '^$' -bench 'BenchmarkLongitudinalGen' -benchtime "$BENCHTIME" -count "$COUNT" . | tee -a "$tmp"

echo "== go test -bench BenchmarkScenarioSimulation -benchtime 20000x -count $COUNT =="
go test -run '^$' -bench 'BenchmarkScenarioSimulation' -benchtime 20000x -benchmem -count "$COUNT" . | tee -a "$tmp"

go run ./scripts/benchjson -o "$OUT" <"$tmp"
echo "wrote $OUT"
