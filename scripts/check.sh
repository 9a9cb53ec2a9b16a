#!/usr/bin/env bash
# check.sh — the full verification gate, runnable locally and in CI.
#
#   usage: check.sh [lint|torture|concurrency|test|serve|all]   (default: all)
#
# The optional argument selects a step group, so CI can fan the gate out
# across parallel jobs while one local `./scripts/check.sh` still runs
# everything:
#
#   lint       go build ./..., go vet ./..., gofmt -l over every Go file
#              (any file listed fails), trasslint ./... (project-specific
#              analyzers, internal/lint: the syntactic checks, the flow-aware
#              durability/concurrency checks, and the interprocedural
#              suite — guardedby, golifetime, lockheldio, lockorder,
#              mustclose — built on call-graph summaries, plus waiverhygiene
#              policing the lint:ignore inventory). One trasslint run: the
#              ./... walk covers internal/lint, cmd/... and examples/... too.
#              trasslint supports -only to bisect a finding to one analyzer
#              locally; the gate always runs all of them.
#   torture    deterministic crash/error-injection suites (kv + cluster, the
#              store's put/re-put suite TestStorePutTorture, and the
#              vfs.WriteFileAtomic commit helper both manifests go through),
#              plus the WAL truncated at every byte offset and a kv ingest
#              failed or crashed at each of its operations; SHORT=1 runs the
#              strided subset, otherwise every fault point. Then, under -race,
#              writers re-put ids across index values and shards, and one
#              bulk PutBatch ingests a region's share as a table, beside
#              nearest and top-k searches with k above the store's size:
#              every id must appear exactly once in every answer (the
#              snapshot's value set must cover its rows)
#   concurrency  the concurrent-writer torture suites under -race: N writer
#              goroutines race group commits and background compactions while
#              faults fire at sampled points — crash, injected errors,
#              close-during-inflight, and WAL poison fan-out — plus the kv
#              and cluster snapshot suites (point-in-time views while writers,
#              flushes and compactions race), one multi-range kv iterator
#              checked against per-range scans beside a flushing and
#              compacting writer, and the write path's two
#              deterministic contracts: one commit group pays one WAL fsync,
#              and reads return while the committer is inside an fsync
#              (counts and ordering; no timing). Always -race (the
#              whole point is racing the committer and the compaction
#              supervisor); SHORT=1 samples fewer fault points
#   test       vet + test of the nested benchmark/ module (invisible to
#              ./...), then go test -race ./... and a 10s fuzz smoke of every
#              native fuzz target. With SHORT=1: the refine-pool,
#              best-first, streaming-pipeline, served-streaming, pushed-down
#              filter, kv block cache, kv multi-range iterator and store
#              snapshot/write/value-set tests alone
#              under -race (the parallel refine pool, the bounded
#              scan-to-refine stream, the ordered refine and seed of top-k
#              whose workers share the kth-distance bound, the NDJSON lines
#              trassd writes from those workers, the filter scratch that
#              concurrent region scans draw from one pool, the block cache
#              that snapshot reads and compaction installs both touch, and
#              the chunked value set whose untouched chunks queries share
#              with the writers that publish its next version are the code
#              most worth racing; the full gate's -race ./...
#              already covers them), then plain go test -short ./... and no
#              fuzz
#   serve      end-to-end over a real socket: build trassd + trass, generate
#              and load a dataset (at a non-default shape, so every reopen
#              adopts it), run the same queries embedded and against
#              the server, and require the same answer: threshold as a set
#              (sort | cmp), top-k byte for byte (cmp); a client -measure
#              beside -server must be refused. Finishes with a SIGTERM drain
#              that must exit 0.
#
# The gate measures nothing. Performance is benchmark/run.sh's job (see
# benchmark/README.md): four workloads against a checked-in baseline.
#
# SHORT=1 trades the race detector, full fault-point enumeration, and fuzz
# smoke for speed; CI always runs the full gate. The lint step is NOT trimmed
# by SHORT=1 — it takes seconds and the whole point of a static gate is that
# it never gets skipped. (The lint package's own module-wide test does honor
# -short and skips there, because the lint binary run below covers it.)
#
# TRASSLINT_FORMAT selects trasslint's output format (text locally; CI sets
# github for inline PR annotations). trasslint prints a one-line timing
# summary (packages, findings, elapsed) to stderr and follows the exit-code
# contract 0 clean / 1 findings / 2 load error, so a load regression fails
# the gate just as loudly as a finding.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"
case "$MODE" in
    lint|torture|concurrency|test|serve|all) ;;
    *) echo "check.sh: unknown step group '$MODE' (want lint, torture, concurrency, test, serve, or all)" >&2; exit 2 ;;
esac

step() { printf '\n== %s ==\n' "$*"; }

if [[ "$MODE" == "lint" || "$MODE" == "all" ]]; then
    step build
    go build ./...

    step vet
    go vet ./...

    step gofmt
    # Every Go file git tracks or would add, analyzer testdata included.
    unformatted=$(gofmt -l $(git ls-files -co --exclude-standard '*.go'))
    if [[ -n "$unformatted" ]]; then
        printf 'gofmt: not formatted:\n%s\n' "$unformatted" >&2
        exit 1
    fi

    step trasslint
    go run ./cmd/trasslint -format="${TRASSLINT_FORMAT:-text}" ./...
fi

if [[ "$MODE" == "torture" || "$MODE" == "all" ]]; then
    # Crash-safety torture: enumerate fault points and crash/fail at each one.
    # Deterministic (seeded workloads, FS-lock-ordered op numbering), so a
    # failure always names a reproducible fault point.
    # -skip Concurrent: the concurrent-writer suites belong to the
    # `concurrency` group, which always runs them under -race.
    if [[ "${SHORT:-0}" == "1" ]]; then
        step "crash torture (strided subset)"
        go test -short -count=1 -run 'Torture|Torn' -skip 'Concurrent' ./internal/kv ./internal/cluster ./internal/store ./internal/vfs
    else
        step "crash torture (every fault point)"
        go test -count=1 -run 'Torture|Torn' -skip 'Concurrent' ./internal/kv ./internal/cluster ./internal/store ./internal/vfs
    fi
    # Best-first searches prune by the snapshot's value set, so a re-put that
    # moves an id must never leave a snapshot whose set lacks the id's row —
    # nor may a bulk PutBatch whose shards commit concurrently, one of them
    # ingested as a table.
    step "re-put and bulk put beside best-first search (race)"
    if [[ "${SHORT:-0}" == "1" ]]; then
        go test -race -short -count=1 -run 'TestReputBesideSearch|TestBulkPutBesideSearch' ./internal/store
    else
        go test -race -count=1 -run 'TestReputBesideSearch|TestBulkPutBesideSearch' ./internal/store
    fi
fi

if [[ "$MODE" == "concurrency" || "$MODE" == "all" ]]; then
    # Concurrent-writer torture: writers race mid-group-commit and
    # mid-background-compaction while faults fire. Nondeterministic
    # interleavings by design, so fault points are sampled rather than
    # enumerated; the acked-writes oracle holds for any interleaving.
    # Always under -race — these suites exist to race the committer.
    if [[ "${SHORT:-0}" == "1" ]]; then
        step "concurrent torture (race, sampled subset)"
        go test -race -short -count=1 -run 'Concurrent|PoisonFanout|ManifestOrder|DegradedHealth|Snapshot|ScanRanges' ./internal/kv ./internal/cluster
    else
        step "concurrent torture (race)"
        go test -race -count=1 -run 'Concurrent|PoisonFanout|ManifestOrder|DegradedHealth|Snapshot|ScanRanges' ./internal/kv ./internal/cluster
    fi
fi

if [[ "$MODE" == "test" || "$MODE" == "all" ]]; then
    # benchmark/ is its own module, so `./...` below sees none of it: a
    # rename in the root module can break the harness that BENCHMARK.json
    # runs without any root test noticing. Vet and test it here.
    step "benchmark module (vet + test)"
    (cd benchmark && go vet ./... && go test -count=1 ./...)

    if [[ "${SHORT:-0}" == "1" ]]; then
        # SHORT=1 drops the race detector everywhere but here: the query
        # engine's refinement tests force the refine pool above one worker —
        # fed from the stream's bounded queue, or by best-first drains whose
        # workers read the kth-distance bound while merges tighten it — the
        # server's streaming tests write NDJSON from those workers, the filter
        # tests run one query's pushed-down filter from several region scans
        # at once, the cluster's
        # scan tests (its one scan entry, Snapshot.ScanStream's region funnel)
        # force mid-stream faults, the kv cache test reads retired tables
        # through a snapshot, the kv multi-range iterator seeks its sources
        # forward while a writer flushes and compacts beneath the snapshot,
        # and the store's Snapshot/PutBatch/ValueSet tests hold the
        # value set's chunks queries share while writers publish a new set
        # around them, so racing just
        # these is the cheapest way to keep that synchronization honest.
        # The full gate races them inside `go test -race ./...` below.
        step "refine pool, streaming, best-first and pushed-down filters (race)"
        go test -race -count=1 -run 'Refine|Stream|TopK|BestFirst|Filter|Window' ./internal/query

        step "served streaming (race)"
        # A reply's NDJSON lines are written by the search's sink,
        # which runs on the refine pool's workers, not on the handler's
        # goroutine: the pool's mutex and Search's join are what keep the
        # response writer, the line count and the per-request line buffer
        # every worker appends its match into race-free.
        go test -race -count=1 -run 'Wire|Stream|Drain' ./internal/server

        step "stream pipeline (race)"
        # 'Scan|Stream': every cluster scan test runs through ScanStream now,
        # whether or not its name says so.
        go test -race -count=1 -run 'Scan|Stream' ./internal/cluster
        go test -race -count=1 -run 'Cache|ScanRanges' ./internal/kv
        go test -race -count=1 -run 'Stream|Snapshot|PutBatch|ValueSet' ./internal/store

        step "test (short)"
        go test -short ./...
    else
        step "test (race)"
        go test -race ./...

        step "fuzz smoke (10s per target)"
        # Enumerate fuzz targets package by package: go test allows only one
        # -fuzz pattern per run.
        for pkg in $(go list ./...); do
            dir=$(go list -f '{{.Dir}}' "$pkg")
            # `|| true`: most packages have no fuzz targets and grep exits
            # nonzero, which set -o pipefail would otherwise turn fatal.
            targets=$(grep -hEo 'func (Fuzz[A-Za-z0-9_]+)' "$dir"/*_test.go 2>/dev/null | awk '{print $2}' | sort -u || true)
            for t in $targets; do
                echo "-- $pkg $t"
                go test -run=NONE -fuzz="^${t}\$" -fuzztime=10s "$pkg"
            done
        done
    fi
fi

if [[ "$MODE" == "serve" || "$MODE" == "all" ]]; then
    # Served-vs-embedded equivalence over a real socket. Every reply streams:
    # threshold lines arrive in the refine pipeline's completion order, so
    # that check compares the sorted sets; top-k lines arrive in (distance,
    # id) order, the embedded CLI's, so that check is byte for byte.
    step "serve e2e (build)"
    SERVE_TMP=$(mktemp -d)
    TRASSD_PID=""
    serve_cleanup() {
        if [[ -n "$TRASSD_PID" ]] && kill -0 "$TRASSD_PID" 2>/dev/null; then
            kill -KILL "$TRASSD_PID" 2>/dev/null || true
        fi
        rm -rf "$SERVE_TMP"
    }
    trap serve_cleanup EXIT
    go build -o "$SERVE_TMP/trassd" ./cmd/trassd
    go build -o "$SERVE_TMP/trass" ./cmd/trass

    step "serve e2e (dataset + embedded baseline)"
    "$SERVE_TMP/trass" gen -kind tdrive -n 2000 -seed 7 -out "$SERVE_TMP/data.txt"
    # A non-default shape: query and trassd have no shape flags, so every
    # comparison below runs on the shape the directory records, adopted.
    "$SERVE_TMP/trass" load -db "$SERVE_TMP/db" -in "$SERVE_TMP/data.txt" -shards 4 -resolution 12
    # Embedded runs happen before trassd opens the store.
    "$SERVE_TMP/trass" query -db "$SERVE_TMP/db" -id td000042 -eps 0.2deg 2>/dev/null > "$SERVE_TMP/embedded-threshold.txt"
    "$SERVE_TMP/trass" query -db "$SERVE_TMP/db" -id td000042 -k 20 2>/dev/null > "$SERVE_TMP/embedded-topk.txt"

    step "serve e2e (trassd round trip)"
    "$SERVE_TMP/trassd" -db "$SERVE_TMP/db" -addr 127.0.0.1:0 -addr-file "$SERVE_TMP/addr" &
    TRASSD_PID=$!
    for _ in $(seq 1 100); do
        [[ -s "$SERVE_TMP/addr" ]] && break
        if ! kill -0 "$TRASSD_PID" 2>/dev/null; then
            echo "serve e2e: trassd exited before listening" >&2; exit 1
        fi
        sleep 0.1
    done
    [[ -s "$SERVE_TMP/addr" ]] || { echo "serve e2e: trassd never wrote its address" >&2; exit 1; }
    ADDR=$(cat "$SERVE_TMP/addr")

    "$SERVE_TMP/trass" query -server "$ADDR" -id td000042 -eps 0.2deg 2>/dev/null > "$SERVE_TMP/wire-threshold.txt"
    sort "$SERVE_TMP/embedded-threshold.txt" > "$SERVE_TMP/embedded-threshold.sorted"
    sort "$SERVE_TMP/wire-threshold.txt" > "$SERVE_TMP/wire-threshold.sorted"
    cmp "$SERVE_TMP/embedded-threshold.sorted" "$SERVE_TMP/wire-threshold.sorted"
    # Top-k is emitted in (distance, id) order after the search, so it must
    # match the embedded answer byte for byte, unsorted.
    "$SERVE_TMP/trass" query -server "$ADDR" -id td000042 -k 20 2>/dev/null > "$SERVE_TMP/wire-topk.txt"
    cmp "$SERVE_TMP/embedded-topk.txt" "$SERVE_TMP/wire-topk.txt"

    # The measure is trassd's: a client-side -measure must be refused, not
    # silently answered under the server's measure.
    if "$SERVE_TMP/trass" query -server "$ADDR" -measure dtw -id td000042 -k 20 > /dev/null 2> "$SERVE_TMP/measure.err"; then
        echo "serve e2e: trass query -server accepted -measure" >&2; exit 1
    fi
    grep -q 'trassd -measure' "$SERVE_TMP/measure.err"

    step "serve e2e (SIGTERM drain)"
    kill -TERM "$TRASSD_PID"
    if ! wait "$TRASSD_PID"; then
        echo "serve e2e: trassd did not drain cleanly on SIGTERM" >&2; exit 1
    fi
    TRASSD_PID=""
    serve_cleanup
    trap - EXIT
fi

printf '\nAll checks passed (%s).\n' "$MODE"
