#!/bin/sh
# CI gate: formatting, vet, the project linter, build, race-enabled tests.
# Same steps as `make check`, runnable where make is absent.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

# All rules run (no -rules subsetting here, so CI can never drift from the
# full rule set); -v records per-rule wall time in the CI log. Baseline
# justifications are enforced by the lint.allow parser itself (non-trivially
# short, stale entries fail), so a bare `# why` can't slip through review.
echo "== ctslint =="
go run ./cmd/ctslint -v

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race -count=1 ./...

echo "== go test -race (experiments under -orderer=seq) =="
# The experiment suite reruns over the leader-sequencer orderer; tests that
# pin Totem wire behavior (token timing, suppression counts, rotation)
# skip themselves via totemOnly.
go test -race -count=1 ./internal/experiment -orderer=seq

echo "== deterministic benches: regenerate and compare with the committed files =="
# The equivalence proof for a refactor: Figure 5, the batched-round smoke,
# the campaign smoke (two 100-node cells) and the federation sweep run into a
# temp dir, and each JSON must equal the committed file byte for byte. The
# runs self-gate too: concurrent readers must coalesce rounds and at least
# halve the single-reader overhead, and every campaign and federation cell
# needs zero regressions, zero staleness violations and timely reconvergence.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/ctsbench -exp fig5 -trace "$tmp/fig5.trace.jsonl" -json "$tmp/BENCH_fig5.json"
go run ./cmd/ctsbench -exp fig5concurrent -jsonConcurrent "$tmp/BENCH_fig5_concurrent.json"
go run ./cmd/ctscampaign -scenarios churn-storm,slow-clocks -nodes 100 -json "$tmp/BENCH_campaign_smoke.json"
go run ./cmd/ctsbench -exp federation -jsonFederation "$tmp/BENCH_federation.json"
for f in BENCH_fig5.json BENCH_fig5_concurrent.json BENCH_campaign_smoke.json BENCH_federation.json; do
	cmp "$tmp/$f" "$f"
done

echo "== ctsload smoke: lease invariants under race (BENCH_timeserve_race.json) =="
go run -race ./cmd/ctsload -inprocess -duration 5s -min-qps 100000 -json BENCH_timeserve_race.json

echo "== ctsload batched kernel I/O (BENCH_timeserve.json) =="
# Plain-mode run over the recvmmsg/sendmmsg path with 8-datagram bursts;
# gates throughput and server syscalls per query.
go run ./cmd/ctsload -inprocess -duration 5s -dgrams 8 -min-qps 600000 -max-syscalls-per-query 0.25 -json BENCH_timeserve.json

echo "== zero-allocation gates (AllocFree tests, no race detector) =="
# The race step skips these: allocs/op under race instrumentation is not
# the program's. Codecs, batched serve cycle, leased read, oracle check.
go test -count=1 -run 'AllocFree$' ./internal/timeserve ./internal/core ./internal/oracle

echo "== ctsload forced-sequential fallback (-serve-io seq) =="
# Batching force-disabled end to end: the sequential path must still hold
# the invariants and meaningful throughput.
go run ./cmd/ctsload -inprocess -duration 2s -dgrams 4 -serve-io seq -min-qps 100000 -json ""

echo "== ctsload federated migrating clients =="
# Two federated in-process groups; each worker migrates across them every
# exchange, checking the global staleness floor and the (group, node)-keyed
# regression floors end to end over real UDP.
go run ./cmd/ctsload -inprocess -duration 2s -fed-groups 2 -min-qps 100000 -json ""

echo "CI checks passed."
