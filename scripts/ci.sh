#!/usr/bin/env sh
# ci.sh — the repository's full verification gate.
#
# Runs the build, vet, formatting, and test (including race) checks that
# must pass before merging. Usage: scripts/ci.sh [package-pattern]
# (defaults to ./...).
set -eu

cd "$(dirname "$0")/.."
pkgs="${1:-./...}"

echo "== go build =="
go build "$pkgs"

echo "== go vet =="
go vet "$pkgs"

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test =="
go test "$pkgs"

echo "== go test -race (evaluation engine) =="
# The batch evaluation engine's concurrency and staged-replay equivalence
# tests always run under the race detector, even when a narrower package
# pattern was requested: the stage cache and stack pool are shared across
# workers, so the bit-identity proofs must hold concurrently too.
go test -race -run 'TestPool|TestMemo|TestSeedFor|TestRunBatch|TestRunKernel|TestTune(ParallelDeterminism|Cancellation|Memoization)|TestTraceEvaluator|TestGate|TestEngineCrossSessionSharing|TestEngineRejectsNegativeCounts' ./internal/tuner .
go test -race -run 'TestStagedExec|TestStageCache|TestSharedStageCache|TestKernelStore|TestPooledStack' ./internal/replay
go test -race ./internal/cowmap

echo "== go test -race (tuning server) =="
# The server multiplexes concurrent tenants onto one shared engine
# (worker gate, kernel store, stage cache), so its whole test suite —
# including the concurrent-session and SSE streaming tests — runs under
# the race detector unconditionally.
go test -race ./internal/server

echo "== go test -race (signature/trace cross-validation) =="
# The static I/O signature must exactly match the recorded trace on every
# fixture workload (event counts and byte totals, no tolerance).
go test -race -run 'TestCrossValidate' ./internal/replay

echo "== statecheck (no package-level mutable state) =="
# The evaluation engine packages are shared across worker goroutines;
# allowlisted names are init-once lookup tables that are never written
# afterwards, plus ErrBudgetExceeded — a conventional sentinel error
# (assigned once, compared with errors.Is).
go run ./cmd/statecheck -allow wireFootprint,sigEventKind,ErrBudgetExceeded internal/cowmap internal/replay internal/tuner internal/server internal/train

echo "== fuzz smoke (interval lattice, format expansion) =="
go test -run=NONE -fuzz=FuzzIntervalJoinWiden -fuzztime=3s ./internal/analysis
go test -run=NONE -fuzz=FuzzExpandFormat -fuzztime=3s ./internal/analysis

echo "== go test -race =="
go test -race "$pkgs"

echo "== perfbench module (build, vet, test) =="
# perfbench is its own module (replace tunio => ../), so the root
# go build/test never compiles it; it calls internal/replay and
# internal/tuner APIs directly and must keep building against them.
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== iolint self-run (fixture corpus) =="
# Generate the built-in workload sources and lint them: the shipped
# fixtures must stay free of error-severity findings, and the verifier
# must accept every transform on them (their computed paths propagate to
# constants, so TR003 stays quiet).
fixdir="$(mktemp -d)"
trap 'rm -rf "$fixdir"' EXIT
go run ./cmd/iofixtures -dir "$fixdir" > /dev/null
go run ./cmd/iolint -verify "$fixdir"/*.c

echo "== CLI exit-code contract =="
sh scripts/test_cli.sh

echo "ci: all checks passed"
