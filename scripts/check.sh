#!/bin/sh
# Tier-2 verification: static vetting, the full test suite under the
# race detector (the pipeline's concurrency tests are written to be
# meaningful only under -race), the robustness false-positive gate at
# its full 10k-connection scale, and a fuzz smoke pass. Run from the
# repo root:
#
#	./scripts/check.sh
set -eu

# gate PKG TEST... runs the named tests focused and uncached and fails
# unless every one of them reports --- PASS, so a gate cannot pass
# vacuously when a test it names has been renamed or deleted. Several
# names must all be top-level tests and are matched exactly; a single
# name may be a Parent/subtest path, each level matched exactly.
gate() {
	pkg=$1
	shift
	if [ $# -eq 1 ]; then
		re="^$(printf '%s' "$1" | sed 's|/|$/^|g')\$"
	else
		re="^($(printf '%s|' "$@" | sed 's/|$//'))\$"
	fi
	if ! out=$(go test "$pkg" -run "$re" -count=1 -v 2>&1); then
		printf '%s\n' "$out"
		return 1
	fi
	for name in "$@"; do
		if ! printf '%s\n' "$out" | grep -qF -- "--- PASS: $name ("; then
			printf '%s\n' "$out" | tail -20
			echo "FAIL: $pkg: $name did not report --- PASS" >&2
			return 1
		fi
	done
	echo "ok  $pkg: $*"
}

echo "== go vet ./... =="
go vet ./...

echo "== go test -race ./... =="
go test -race ./...

# Re-run the robustness false-positive gate (10k benign connections
# per grade) focused and uncached, so a flake in the broad -race pass
# cannot mask it and its pass/fail is visible on its own line.
echo "== robustness false-positive gate (full scale) =="
gate ./internal/workload/ TestLossyGradeZeroFalsePositives

# Aggregation parity gate: the full paper surface rendered via the
# legacy batch functions, the streaming pipeline at 1/4/16 workers,
# and a 5-PoP shard-and-merge (both merge orders) must be
# byte-identical. This is the tentpole invariant of the incremental
# aggregation subsystem; run it focused and uncached. The streaming
# legs go through analysis.Sharded, which lends each worker's one
# reused Record to every aggregator, so the gate also proves that no
# paper aggregator keeps the borrowed record.
echo "== batch / streaming / PoP-merge parity gate =="
gate ./internal/analysis/ TestParityStreamingMatchesBatch TestParityPoPMergeMatchesBatch

# Pipeline metric sanity: after any run, delivered <= classified <=
# decoded and the dropped counter accounts exactly for the gap.
echo "== pipeline metrics monotonicity gate =="
gate ./internal/pipeline/ TestMetricsMonotonicity

# DFA classifier differential gate: the compiled signature automaton
# must match the legacy multi-pass matcher Result-for-Result over the
# exhaustive event-sequence enumeration (lengths 0-6), the canonical
# signature table, and the fixture corpus. Run focused and uncached so
# its pass/fail is visible on its own line.
echo "== DFA classifier differential gate =="
gate ./internal/core/ TestDFAMatchesLegacyExhaustive TestDFAMatchesLegacyCorpus TestDFASignatureTable

# Decode scaling gate: the parallel decode path at 16 workers must
# ingest >=2x the records/sec of 1 worker. The test skips (loudly)
# on hosts with <4 CPUs — parallel speedup needs parallel hardware —
# so this line is a no-op on single-core CI but binding anywhere real.
echo "== decode parallel scaling gate =="
TAMPERDETECT_SCALING_GATE=1 go test ./internal/pipeline/ -run 'TestDecodeParallelScalingGate' -count=1 -v | grep -E 'SKIP|PASS|FAIL|ok ' || true
TAMPERDETECT_SCALING_GATE=1 go test ./internal/pipeline/ -run 'TestDecodeParallelScalingGate' -count=1 >/dev/null

# Sharded ingest parity gate: Run, Stream and the segment-index
# multi-reader scan at shards {1,2,4,8}, each ordered {on,off}, must
# deliver byte-identical results and counts, the queue-depth gauges
# must sum over shards, the scan must survive a corrupt record with
# exactly the good-prefix union, and refuse a lying index (seam
# violations surface as ErrBadIndex; any sharded scan error at all
# triggers the tamperscan/paperbench discard-and-rescan). The
# end-to-end fallback contract — a bad index warns and never changes
# tamperscan's output — runs alongside.
echo "== sharded ingest parity + fallback gate =="
gate ./internal/pipeline/ TestShardedScanParity TestShardedScanCorruptSegment TestShardedScanLyingSeamOffset TestShardedScanSeamUndercount TestShardedScanQueueDepthTotal
gate ./cmd/tamperscan/ TestRunShardedParity TestRunShardedFallsBackWithoutIndex TestRunShardedFallsBackOnDamagedSidecar TestRunShardedRescanOnLyingIndex TestRunShardedRescanOnMidRecordSeam

# Sharded scaling gate: 8 shards must ingest >=2x the records/sec of
# 1 shard. Like the decode gate, it skips (loudly) on hosts with <4
# CPUs, so the line is a no-op on single-core CI but binding anywhere
# with real parallelism.
echo "== sharded ingest scaling gate =="
TAMPERDETECT_SCALING_GATE=1 go test ./internal/pipeline/ -run 'TestShardedIngestScalingGate' -count=1 -v | grep -E 'SKIP|PASS|FAIL|ok ' || true
TAMPERDETECT_SCALING_GATE=1 go test ./internal/pipeline/ -run 'TestShardedIngestScalingGate' -count=1 >/dev/null

# Raw-record scanner parity gate: the slab scanner front end must
# agree with the sequential Reader on every truncation and byte
# corruption of the fixture capture (same record counts, same error
# classes) — the invariant tamperscan's exit-3 behaviour rests on.
echo "== scanner/reader parity gate =="
gate ./internal/capture/ TestScannerMatchesReader TestScannerTruncationParity TestScannerCorruptionParity

# Telemetry gate: run tamperscan with -metrics-addr over a fixture
# capture, scrape /metrics and /healthz live (the gate test fails on
# unparseable exposition or non-200 health), and verify the metrics
# server shuts down without leaking goroutines. The telemetry
# package's own shutdown-leak test runs alongside for the standalone
# server path.
echo "== telemetry exposition + shutdown gate =="
gate ./cmd/tamperscan/ TestMetricsAddrServesExposition
gate ./internal/telemetry/ TestServerShutdownNoGoroutineLeak TestServerEndpoints

# Tracing gate: the span engine's whole contract, focused and
# uncached. The sampled span set must be deterministic across worker
# counts {1,4,16}; the hot path with sampling off must add zero
# allocations per record; each stage's span durations must sum exactly
# to its telemetry histogram (one shared stage clock); a live
# /debug/tracez scrape racing a graceful shutdown must neither tear
# nor leak goroutines; the Chrome
# trace-event export written by tamperscan -trace-profile must pass
# the strict validator (valid JSON, known phases, per-thread spans
# strictly nested); and the cross-PoP e2e — tamperscan -push through
# a lossy chaos transport into a live popmerge — must land the
# merger's validate/merge spans in the pushing scan's trace.
echo "== tracing: determinism + hot-path allocs + tracez race gate =="
gate ./internal/pipeline/ TestTraceSampledSetDeterministic TestTraceHotPathAllocationFree TestTraceTracezScrapeDuringShutdown TestStageClockShared
echo "== tracing: Chrome export validity + cross-PoP propagation gate =="
gate ./cmd/tamperscan/ TestRunTraceProfileExport TestRunPushTraced TestRunFlightDumpOnRescan
gate ./internal/fleet/ TestFleetTraceContextPropagation TestEnvelopeMixedFleetParity

# Record-path allocation and ownership gate: the per-record heap
# allocations removed from the pcap tap to the aggregators stay
# removed, and the slabs behind them never hand memory out twice.
# Sharded.Observe with a tamperscan-shaped aggregator makes 0 allocs
# per record; pcap.Reader.Read at most 0.05 per packet, with every
# packet still owning its bytes; capture.Sampler at most 0.3 per
# short-flow connection, with drained records unchanged by later
# Inbound, DrainIdle, Drain and Reset calls, and collectable once
# dropped even beside long-lived open flows; the shared slab never
# hands a byte out twice; the simulator stays under
# its per-connection bound. The -v listing must equal its old fmt
# format byte for byte, reach stdout before the report when a pcap is
# cut mid-packet (exit 3) or the scan is interrupted, and -cpuprofile
# must leave the output unchanged. The allocation tests skip under
# -race, so they are gated here, outside the -race pass.
echo "== record-path allocation + -v listing gate =="
gate ./internal/analysis/ TestShardedObserveAllocFree
gate ./internal/pcap/ TestReaderAllocsPerPacket TestReaderPacketsOwnData
gate ./internal/capture/ TestSamplerAllocsPerConnection TestSamplerDrainedRecordsStayValid TestSamplerLongLivedFlowsReleaseDrainedRecords
gate ./internal/slab/ TestCarveNeverHandsOutMemoryTwice
gate ./internal/workload/ TestSimulateSteadyStateAllocs
gate ./cmd/tamperscan/ TestVerbosePrinterMatchesFmt TestRunVerboseTruncatedPcap TestRunSignalFlushesListing TestRunCPUProfile

# Fleet chaos-parity gate: 20 in-process PoPs (19 concurrent + one
# straggler past the quorum close) push per-epoch snapshots through a
# fault-injecting transport — drops, duplicates, truncations, 5xxs —
# into a live popmerge handler under the "lossy" grade. The merged
# report must be byte-identical to the single-process run, and a
# re-push of an already-ACKed frame must change nothing. The snapshot
# round-trip/merge-equivalence and (pop, epoch) idempotency property
# tests run alongside, focused and uncached.
echo "== fleet chaos parity gate (20 PoPs, lossy) =="
gate ./internal/fleet/ TestChaosParity20PoPs/lossy
gate ./internal/fleet/ TestMergerIdempotent TestMergerOrderAndDuplicationInvariance
gate ./internal/analysis/ TestSnapshotRoundTripParity TestSnapshotRestoreIsMerge

# Scenario preset gate: every embedded preset must parse, validate,
# and assemble; the codec must reject unknown fields, out-of-range
# intensities, and malformed phase tables; and a preset expanded twice
# must yield identical spec streams. Run focused and uncached.
echo "== scenario preset validation gate =="
gate ./internal/workload/ TestPresetsValid TestPresetRoundTrip TestPresetSpecsDeterministic TestScenarioFileRejections

# Arrival trace record/replay gate: a recorded trace must replay to a
# byte-identical capture and refuse mismatched scenarios or corrupted
# frames.
echo "== arrival trace record/replay gate =="
gate ./internal/workload/ TestTraceRoundTrip TestTraceRejectsMismatchedScenario TestTraceRejectsCorruption
gate ./cmd/trafficgen/ TestRunTraceRecordReplay

# Virtual-time determinism gate, at full paper scale: the 14-day-class
# iran2022 preset (408 virtual hours) must generate in under 60
# seconds of wall-clock, two same-seed runs at different worker counts
# must be byte-identical, and the capture timestamps must span the
# whole virtual window at 1-second granularity (the in-tree
# TestRunVirtualWindowCoverage / TestRunDeterministicAcrossWorkers
# cover the same contracts at test scale).
echo "== virtual-time determinism gate (full-scale iran2022) =="
gate ./cmd/trafficgen/ TestRunDeterministicAcrossWorkers TestRunVirtualWindowCoverage
det_dir="$(mktemp -d)"
go build -o "$det_dir/trafficgen" ./cmd/trafficgen
det_start="$(date +%s)"
"$det_dir/trafficgen" -scenario iran2022 -seed 2022 -workers 2 -o "$det_dir/a.tdcap" >/dev/null
det_end="$(date +%s)"
"$det_dir/trafficgen" -scenario iran2022 -seed 2022 -workers 8 -o "$det_dir/b.tdcap" >/dev/null
cmp "$det_dir/a.tdcap" "$det_dir/b.tdcap"
det_elapsed=$((det_end - det_start))
if [ "$det_elapsed" -ge 60 ]; then
	echo "FAIL: full-scale iran2022 generation took ${det_elapsed}s (acceptance bound: < 60s)" >&2
	rm -rf "$det_dir"
	exit 1
fi
echo "full-scale iran2022 generated in ${det_elapsed}s, runs byte-identical"
rm -rf "$det_dir"

# Smoke the perf harness: one short benchmark iteration, then assert
# the aggregator produced well-formed JSON. No timing assertions —
# shared CI machines make those flaky; the recorded trajectory is
# refreshed manually via `make bench`.
echo "== bench harness smoke =="
bench_out="$(mktemp)"
BENCH_COUNT=1 BENCH_TIME=1x BENCH_OUT="$bench_out" ./scripts/bench.sh >/dev/null
go run ./scripts/benchjson -validate "$bench_out"
rm -f "$bench_out"

echo "== fuzz smoke =="
./scripts/fuzz_smoke.sh

echo "tier-2 checks passed"
