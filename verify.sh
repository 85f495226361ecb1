#!/usr/bin/env sh
# verify.sh — the full verification gate, run from the repo root.
#
# Tier 1: build + tests (must stay green on every PR).
# Tier 2: go vet, gofmt, scionlint (the module's own static-analysis pass, see
#         docs/STATIC_ANALYSIS.md), the race detector over the
#         concurrency-heavy packages (including a chaos-harness subset,
#         see docs/CHAOS.md), fuzzer smoke runs, and a coverage floor
#         over internal/...
#
# Exits non-zero on the first failing tier. scionlint prints its own
# "scionlint: N findings in M packages (...)" summary line.
set -e

# Statement-coverage floor for ./internal/... (tier 2). Measured 89.5% after
# the multipath selection PR; the floor sits a point below so legitimate
# code growth doesn't trip it, while a test-free subsystem would.
COVERAGE_FLOOR=88.5

echo "== tier 1: go build ./..."
go build ./...

echo "== tier 2: go vet ./..."
go vet ./...

echo "== tier 2: gofmt -l . (must list nothing)"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt gate FAILED, unformatted files:"
	echo "$unformatted"
	exit 1
fi

echo "== tier 2: scionlint ./... (baseline must be empty; timing shows loader speedup)"
# Two runs against the checked-in (empty) baseline: sequential loader
# first, concurrent loader second. The -timing lines on stderr prove the
# concurrent package loader's wall-clock win in CI logs. -parallel 4 is
# explicit (not 0 = GOMAXPROCS) so the concurrent scheduler runs even on
# a single-CPU box, where overlapped parse I/O still wins.
go run ./cmd/scionlint -timing -parallel 1 -baseline lint-baseline.json ./...
go run ./cmd/scionlint -timing -parallel 4 -baseline lint-baseline.json ./...

echo "== tier 1: go test ./..."
go test ./...

echo "== tier 2: go test -race (concurrency-heavy packages)"
# docdb also smoke-runs its benchmark suite under the race detector so
# BenchmarkDocDB* (the BENCH_docdb.json trajectory, see docs/DOCDB.md)
# cannot rot — including the backend= sub-runs, which put the segment
# backend's sharded writers and group committer under the race detector.
# selection and upin carry the snapshot-serving concurrency tests
# (docs/SERVING.md): the randomized cache-vs-oracle interleavings and the
# serve-while-measure front-end test.
go test -race -bench=DocDB -benchtime=1x ./internal/docdb
go test -race ./internal/simnet ./internal/measure
go test -race ./internal/selection ./internal/upin
# segment carries the parallel-beaconing worker pool, pathmgr the
# combination cache (single-flight fill, invalidation, concurrent readers
# vs the naive-combiner oracle), and sciond the atomic combiner publication
# with double-checked refresh (docs/PATHDISC.md).
go test -race ./internal/segment ./internal/pathmgr ./internal/sciond
# cluster carries the sharded serving tier (admission gate, per-client
# limiter, response caches under concurrent invalidation) and load the
# client fleets hammering it over real HTTP (docs/LOAD.md).
go test -race ./internal/upin/cluster ./internal/load

echo "== tier 2: go test -shuffle=on ./internal/... (order independence)"
# Re-runs the internal suites in random order under the race detector's
# sibling gate: a test that only passes after a specific predecessor (a
# shared engine, a leaked clock advance) fails here. The shuffle seed is
# printed by go test for replaying a failure.
go test -shuffle=on ./internal/... >/dev/null

echo "== tier 2: chaos harness under the race detector (short subset)"
# Full chaotic runs (crash, truncate, resume, verify all four invariants)
# for a handful of seeds; the 50-seed sweep runs race-free in tier 1.
go test -race -run 'TestChaosSmall|TestPlanDeterminism' ./internal/chaos

echo "== tier 2: fuzzer smoke (10s each)"
# Differential fuzz of the compiled query filters against the naive
# evaluator, the segment-log replayer against corrupted shard files
# (truncations and bit flips must never panic or replay past a bad CRC),
# collection operation sequences (insert/upsert/update/delete/index/reopen
# against the shadow slice model, tombstones included), and the lint
# directive parser against arbitrary comment text. The
# checked-in corpora under testdata/fuzz/ always run as part of tier 1;
# this explores beyond them for a bounded time.
go test -run '^$' -fuzz '^FuzzCompileFilter$' -fuzztime 10s ./internal/docdb >/dev/null
go test -run '^$' -fuzz '^FuzzSegmentReplay$' -fuzztime 10s ./internal/docdb >/dev/null
go test -run '^$' -fuzz '^FuzzCollectionOps$' -fuzztime 10s ./internal/docdb >/dev/null
go test -run '^$' -fuzz '^FuzzIgnoreDirective$' -fuzztime 10s ./internal/lint >/dev/null

echo "== tier 2: coverage floor (internal/..., >= ${COVERAGE_FLOOR}%)"
coverprofile="$(mktemp)"
trap 'rm -f "$coverprofile"' EXIT
go test -coverprofile="$coverprofile" ./internal/... >/dev/null
go tool cover -func="$coverprofile" | awk -v floor="$COVERAGE_FLOOR" '
	/^total:/ {
		sub(/%$/, "", $NF)
		printf "coverage: %.1f%% of statements (floor %.1f%%)\n", $NF, floor
		if ($NF + 0 < floor + 0) {
			printf "coverage gate FAILED: %.1f%% < %.1f%%\n", $NF, floor
			exit 1
		}
	}'

echo "== tier 2: docdb benchmark smoke (-benchtime 1x)"
go test -run '^$' -bench=DocDB -benchtime=1x ./internal/docdb >/dev/null

echo "== tier 2: serving benchmark smoke (-benchtime 1x)"
# Keeps BenchmarkServing* (the BENCH_serving.json trajectory) and
# BenchmarkMultipath* (BENCH_multipath.json, see docs/SELECTION.md)
# runnable.
go test -run '^$' -bench='Serving|Multipath' -benchtime=1x ./internal/selection >/dev/null

echo "== tier 2: load harness benchmark smoke (-benchtime 1x)"
# Keeps BenchmarkLoad* (the BENCH_load.json trajectory, see docs/LOAD.md)
# runnable: the fleet x shards matrix, the 2x-overload probe, and the
# chaos-under-load recovery run.
go test -run '^$' -bench=Load -benchtime=1x ./internal/load >/dev/null

echo "== tier 2: path-discovery benchmark smoke (-benchtime 1x)"
# Keeps BenchmarkPathDisc* (the BENCH_pathdisc.json trajectory, see
# docs/PATHDISC.md) runnable, including the 1k/5k-AS generated worlds, and
# BenchmarkCollectPathsRepeat / BenchmarkCollectPathsOneChanged (the repeat
# collect on the 1000-AS world with nothing and with one destination
# changed, recorded in BENCH_docdb.json, see docs/CAMPAIGN.md).
go test -run '^$' -bench='PathDisc|CollectPaths(Repeat|OneChanged)' -benchtime=1x . >/dev/null

echo "== tier 2: parallel campaign smoke (testsuite --workers 4)"
go run ./cmd/testsuite 2 --servers 1,2,3 --workers 4 --no-bandwidth \
	--ping-count 5 --ping-interval 1ms >/dev/null

echo "verify.sh: all tiers passed"
