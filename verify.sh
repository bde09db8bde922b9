#!/bin/sh
# verify.sh — the repo's pre-merge gate: formatting, vet, build, and
# the full test suite under the race detector.
set -e
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
# The examples tree is built explicitly: example programs have no
# tests, so only a build catches API drift there.
go build ./examples/...
# Layering table: one row per rule, "packages forbidden".  None of the
# comma-separated packages may depend, directly or not, on an
# internal package the forbidden alternation names.  The estimator
# kernels sit below the engine; the engine, the server and its binary
# link only what maest-serve serves, so the layout ground truth and
# the experiment harness stay out of them.
while read -r pkgs forbidden; do
    bad=$(go list -deps $(echo "$pkgs" | tr , ' ') | grep -E "^maest/internal/($forbidden)(/|\$)" || true)
    if [ -n "$bad" ]; then
        echo "layering: $pkgs must not depend on:" >&2
        echo "$bad" >&2
        exit 1
    fi
done <<'TABLE'
./internal/core,./internal/congest,./internal/prob engine
./internal/engine/...,./internal/serve,./cmd/maest-serve place|route|layout|baseline|gen|report
TABLE
# The load benchmark is its own module linking the serve and engine
# packages, so neither ./... run above reaches it; vet and short-test
# it so API drift there fails here rather than in a benchmark run.
(cd loadbench && go vet ./... && go test -short ./...)
# The engine and the serving layer share compiled plans across
# goroutines, the obs flight recorder is a lock-striped ring hammered
# by every request, and the persistent store mixes request-path reads
# with appends, seals and evictions from the serve write-behind goroutine,
# and the floorplan annealer runs as async jobs on a worker pool fed
# by the serve handlers; the cell expander feeds every cold estimate's
# Full-Custom side.  Their suites run first and explicitly under
# the race detector so a concurrency regression fails fast with a
# focused report before the full-tree run below repeats them in bulk.
go vet ./internal/engine/... ./internal/cells ./internal/serve ./internal/floorplan ./internal/obs ./internal/store ./cmd/maest-trace
go test -race ./internal/engine/... ./internal/cells ./internal/serve ./internal/floorplan ./internal/obs ./internal/store ./cmd/maest-trace
go test -race ./...
# Coverage ratchet: the packages carrying the incremental (ECO)
# re-estimation machinery, and the front end and circuit model every
# cold request parses through, must not lose test coverage.  Floors live in
# testdata/coverage_floor.txt, about a point under the measured figure
# — raise them when a package's coverage durably improves.
go test -cover $(awk '!/^#/ && NF { print $1 }' testdata/coverage_floor.txt) |
    awk -v floors=testdata/coverage_floor.txt '
    BEGIN {
        while ((getline line < floors) > 0) {
            if (line ~ /^#/ || line !~ /[^ ]/) continue
            split(line, f, " ")
            floor[f[1]] = f[2] + 0
        }
    }
    {
        print
        if ($1 == "ok" && match($0, /coverage: [0-9.]+%/)) {
            pct = substr($0, RSTART + 10, RLENGTH - 11) + 0
            if ($2 in floor) {
                seen[$2] = 1
                if (pct < floor[$2]) {
                    printf "coverage ratchet: %s at %.1f%% is below its %.1f%% floor\n", $2, pct, floor[$2] > "/dev/stderr"
                    bad = 1
                }
            }
        }
    }
    END {
        for (p in floor) if (!(p in seen)) {
            printf "coverage ratchet: no coverage figure for %s\n", p > "/dev/stderr"
            bad = 1
        }
        exit bad
    }'
# Distributed-trace e2e: a client calls a forwarding hop written in
# the test, which continues the W3C trace into a full maest-serve on
# real sockets; one trace id must run from the client through the hop
# to the serve flight record.  The trace-store restart e2e must render
# a pre-restart trace byte-identically after a kill + reopen.
go test -race -run 'TestTwoProcessTraceStitch|TestTraceStoreRestartEndToEnd' ./cmd/maest-serve
# Bench smoke: every benchmark must still compile and survive one
# iteration (catches bit-rot in the perf harness without timing it).
# The exact allocation ceilings ride along: BenchmarkParseMnet,
# BenchmarkDecodeBody, BenchmarkEstimateCacheHit and
# BenchmarkEstimateCacheMiss fail when testing.AllocsPerRun exceeds
# their budgets.
go test -run=NONE -bench=. -benchtime=1x ./...
# ECO gate: the incremental route (Plan.Delta + re-estimate, warm
# memo) must stay at least 5x faster per edit than the from-scratch
# route (apply, recompile, re-estimate, cold memo).  The two engine
# benchmarks time the same edit chain; the ratio holds across machines
# even though the raw ns/op do not.  Bit-identity of the two routes is
# pinned separately by the delta differential tests and FuzzPlanDelta;
# Table 1/2 accuracy at zero tolerance by
# TestBenchCompareAgainstCheckedInReference in the suite above.
go test -run '^$' -bench '^Benchmark(Full|Delta)ReEstimate$' ./internal/engine |
    awk -v min=5 '
    { print }
    $1 ~ /^BenchmarkFullReEstimate/ && $4 == "ns/op" { full = $3 }
    $1 ~ /^BenchmarkDeltaReEstimate/ && $4 == "ns/op" { delta = $3 }
    END {
        if (full <= 0 || delta <= 0) {
            print "eco gate: missing Full/DeltaReEstimate ns/op" > "/dev/stderr"
            exit 1
        }
        printf "eco gate: full %d ns/op / delta %d ns/op = %.1fx (min %dx)\n", full, delta, full / delta, min
        if (full < min * delta) {
            print "eco gate: delta route below the required speedup" > "/dev/stderr"
            exit 1
        }
    }'
echo "verify.sh: all checks passed"
