#!/usr/bin/env bash
# Tier-1 verification for the digiq workspace, runnable fully offline.
#
#   scripts/ci.sh                # build + tests + fmt check
#   scripts/ci.sh --smoke        # also run every bench binary (--small) and
#                                # the kernel micro-benchmarks in quick mode
#   scripts/ci.sh --engine-smoke # run a tiny 2-design x 2-benchmark engine
#                                # sweep with 2 workers and diff its JSON
#                                # against the checked-in golden file
#   scripts/ci.sh --cosim-smoke  # run the tiny cycle-accurate co-simulation
#                                # sweep (cosim --smoke) and diff its JSON
#                                # against tests/golden/cosim_smoke.json
#   scripts/ci.sh --pipeline-smoke # assert the default compile pipeline still
#                                # matches tests/golden/engine_smoke.json
#                                # byte-for-byte, then exercise the alternative
#                                # --router/--scheduler strategies
#   scripts/ci.sh --store-smoke  # artifact-store warm start + resume: run
#                                # sweep --smoke twice with one --cache-dir
#                                # (second run must report zero pass builds and
#                                # byte-identical JSON), then interrupt a sweep
#                                # and prove --resume merges byte-identically
#   scripts/ci.sh --dist-smoke   # distributed sweep: 4 worker processes
#                                # coordinating through claim files under one
#                                # --cache-dir must merge byte-identical to the
#                                # engine golden, including after a worker
#                                # holding a claim is killed mid-sweep
#   scripts/ci.sh --serve-smoke  # start the digiq-serve daemon on loopback,
#                                # drive it with loadgen (duplicate concurrent
#                                # requests must coalesce and every response
#                                # must match the sweep golden byte-for-byte),
#                                # then drain mid-sweep and prove a restarted
#                                # server resumes byte-identically
#   scripts/ci.sh --bench-json   # run the kernel micro-benchmarks and a
#                                # loadgen round against a local daemon, and
#                                # record the numbers in BENCH_<date>.json
#                                # (refuses to overwrite an existing record
#                                # for today unless --force is passed)
#   scripts/ci.sh --bench-compare # run the kernels fresh and diff against
#                                # the latest committed BENCH_*.json:
#                                # deterministic flop/alloc counter
#                                # regressions hard-fail, wall-time
#                                # regressions warn only; then record the
#                                # fresh numbers as a new BENCH file
#   scripts/ci.sh --bench-e2e    # run just the end-to-end rows (cold
#                                # sweep --full, paper-scale fig7, bounded
#                                # fig10, serve+loadgen) and diff their
#                                # deterministic checks against the latest
#                                # BENCH record's "e2e" section (records
#                                # predating the section pass with a note);
#                                # --bench-json/--bench-compare embed the
#                                # same rows in the record they write
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo fmt --check"
cargo fmt --check

# Lint gate: the whole workspace, tests, benches and binaries included,
# under -D warnings.
echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The ROADMAP's offline constraint: the dependency graph — dev edges
# included, test-only crates were the bulk of what PR 1 removed — must
# contain workspace members only (every crate line resolves to a path
# inside this repo, nothing from a registry).
echo "==> cargo tree --offline (workspace members only)"
externals=$(cargo tree --offline --workspace --edges normal,build,dev \
    | grep ' v' | grep -vF "($PWD" || true)
if [[ -n "$externals" ]]; then
    echo "external dependencies detected in cargo tree:" >&2
    echo "$externals" >&2
    exit 1
fi
echo "dependency graph is workspace-only"

# golden_smoke <label> <bin> <golden>: run `<bin> --smoke` (2 designs x
# 2 benchmarks, 2 workers) and diff its JSON against the committed golden.
golden_smoke() {
    local label=$1 bin=$2 golden=$3 tmp
    echo "==> $label smoke: 2 designs x 2 benchmarks, 2 workers, vs golden"
    tmp=$(mktemp)
    if ! cargo run -q --release --offline -p digiq-bench --bin "$bin" -- --smoke > "$tmp" \
        || ! diff -u "$golden" "$tmp"; then
        rm -f "$tmp"
        echo "$label smoke output diverged from $golden" >&2
        exit 1
    fi
    rm -f "$tmp"
    echo "$label smoke matches golden"
}

engine_smoke() {
    golden_smoke engine sweep tests/golden/engine_smoke.json
}

cosim_smoke() {
    golden_smoke cosim cosim tests/golden/cosim_smoke.json
}

# The default-pipeline golden-stability contract (see ROADMAP.md): the
# pass-pipeline refactor must keep `sweep --smoke` byte-identical to the
# committed golden, and every alternative strategy must still compile,
# validate and run end to end.
pipeline_smoke() {
    engine_smoke
    echo "==> alternative pipeline strategies (lookahead router, asap scheduler)"
    cargo run -q --release --offline -p digiq-bench --bin sweep -- \
        --small --workers 2 --router lookahead --scheduler asap > /dev/null
    cargo run -q --release --offline -p digiq-bench --bin cosim -- \
        --small --workers 2 --diff-analytic --json --router lookahead > /dev/null
    echo "alternative strategies OK"
}

# The artifact-store warm-start + resume contract: with a persistent
# --cache-dir, a second `sweep --smoke` run loads every compiled stage and
# baseline from disk (zero pass builds, byte-identical JSON — still matching
# the golden), and an interrupted sweep resumed with --resume merges
# byte-identically with an uninterrupted run.
store_smoke() {
    echo "==> artifact store smoke: warm start + resume, vs golden"
    local dir dir2 out1 out2 out3 err2
    dir=$(mktemp -d); dir2=$(mktemp -d)
    out1=$(mktemp); out2=$(mktemp); out3=$(mktemp); err2=$(mktemp)
    cargo run -q --release --offline -p digiq-bench --bin sweep -- \
        --smoke --cache-dir "$dir" > "$out1" 2>/dev/null
    cargo run -q --release --offline -p digiq-bench --bin sweep -- \
        --smoke --cache-dir "$dir" > "$out2" 2> "$err2"
    diff -u tests/golden/engine_smoke.json "$out1"
    diff -u "$out1" "$out2"
    if ! grep -q "pass_builds=0 " "$err2"; then
        echo "warm-started sweep rebuilt a pipeline stage:" >&2
        cat "$err2" >&2
        exit 1
    fi
    cargo run -q --release --offline -p digiq-bench --bin sweep -- \
        --smoke --cache-dir "$dir2" --resume --interrupt-after 1 >/dev/null 2>&1
    cargo run -q --release --offline -p digiq-bench --bin sweep -- \
        --smoke --cache-dir "$dir2" --resume > "$out3" 2>/dev/null
    diff -u "$out1" "$out3"
    rm -rf "$dir" "$dir2" "$out1" "$out2" "$out3" "$err2"
    echo "store smoke OK (warm start: zero pass builds; resume: byte-identical)"
}

# The distributed-sweep contract: N=4 single-thread worker processes
# coordinating through claim files under one --cache-dir merge
# byte-identical to the committed engine golden, and a worker killed
# while holding a claim leaves a sweep the survivors finish (stale-claim
# expiry) with the same bytes.
dist_smoke() {
    echo "==> distributed smoke: 4 worker processes + merge, vs golden"
    local dir out sweep=./target/release/sweep
    dir=$(mktemp -d); out=$(mktemp)
    "$sweep" --smoke --distributed --n-workers 4 --cache-dir "$dir" \
        > "$out" 2>/dev/null
    diff -u tests/golden/engine_smoke.json "$out"
    "$sweep" --smoke --merge --cache-dir "$dir" > "$out" 2>/dev/null
    diff -u tests/golden/engine_smoke.json "$out"
    rm -rf "$dir" "$out"

    echo "==> distributed smoke: kill a claim-holding worker, survivors finish"
    dir=$(mktemp -d); out=$(mktemp)
    # A doomed worker claims a job and sits on it; SIGKILL takes its
    # heartbeat with it, so the claim goes stale after the short TTL and
    # the fresh workers below reclaim the job.
    "$sweep" --smoke --worker-id 0 --n-workers 1 \
        --claim-ttl-ms 400 --dist-hold-ms 30000 --cache-dir "$dir" \
        >/dev/null 2>&1 &
    local doomed=$!
    sleep 1
    kill -9 "$doomed" 2>/dev/null || true
    wait "$doomed" 2>/dev/null || true
    "$sweep" --smoke --distributed --n-workers 2 --claim-ttl-ms 400 \
        --cache-dir "$dir" > "$out" 2>/dev/null
    diff -u tests/golden/engine_smoke.json "$out"
    rm -rf "$dir" "$out"
    echo "distributed smoke OK (merge byte-identical; killed worker reclaimed)"
}

# wait_for_serve <log>: poll the daemon's stdout for its bound address
# (port 0 resolves to a free port) and print it.
wait_for_serve() {
    local log=$1 addr i
    for i in $(seq 1 100); do
        addr=$(sed -n 's/^digiq-serve listening on //p' "$log" 2>/dev/null | head -n1)
        if [[ -n "$addr" ]]; then
            echo "$addr"
            return 0
        fi
        sleep 0.1
    done
    echo "digiq-serve did not come up; log:" >&2
    cat "$log" >&2
    return 1
}

# The sweep-service contract: responses byte-identical to the batch CLI
# golden, identical concurrent requests coalesced onto one evaluation,
# and graceful drain journaling in-flight sweeps so a restarted server
# resumes byte-identically.
serve_smoke() {
    echo "==> serve smoke: coalescing + golden byte-identity over the wire"
    local log addr pid dir
    log=$(mktemp)
    # --eval-delay-ms widens the (otherwise single-digit-ms) build
    # window so the duplicate requests deterministically coalesce.
    ./target/release/serve --workers 2 --eval-delay-ms 150 > "$log" &
    pid=$!
    addr=$(wait_for_serve "$log") || { kill "$pid" 2>/dev/null; exit 1; }
    if ! ./target/release/loadgen --addr "$addr" --clients 2 --requests 2 \
            --expect tests/golden/engine_smoke.json --assert-coalesced \
        || ! ./target/release/loadgen --addr "$addr" --clients 1 --requests 1 --cosim \
            --expect tests/golden/cosim_smoke.json --shutdown; then
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    wait "$pid"

    echo "==> serve smoke: drain mid-sweep, restart, resume byte-identically"
    dir=$(mktemp -d)
    : > "$log"
    ./target/release/serve --workers 2 --cache-dir "$dir" \
        --interrupt-after 1 --drain-after 1 > "$log" &
    pid=$!
    addr=$(wait_for_serve "$log") || { kill "$pid" 2>/dev/null; exit 1; }
    if ! ./target/release/loadgen --addr "$addr" --expect-interrupted; then
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    wait "$pid"
    : > "$log"
    ./target/release/serve --workers 2 --cache-dir "$dir" > "$log" &
    pid=$!
    addr=$(wait_for_serve "$log") || { kill "$pid" 2>/dev/null; exit 1; }
    if ! ./target/release/loadgen --addr "$addr" --clients 1 --requests 1 \
            --expect tests/golden/engine_smoke.json --shutdown; then
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    wait "$pid"
    rm -rf "$dir" "$log"
    echo "serve smoke OK (coalesced, byte-identical, drain-resumable)"
}

if [[ "${1:-}" == "--engine-smoke" ]]; then
    engine_smoke
fi

if [[ "${1:-}" == "--cosim-smoke" ]]; then
    cosim_smoke
fi

if [[ "${1:-}" == "--pipeline-smoke" ]]; then
    pipeline_smoke
fi

if [[ "${1:-}" == "--store-smoke" ]]; then
    store_smoke
fi

if [[ "${1:-}" == "--dist-smoke" ]]; then
    dist_smoke
fi

if [[ "${1:-}" == "--serve-smoke" ]]; then
    serve_smoke
fi

# The newest committed benchmark record (empty if none). Names embed an
# ISO date plus an optional _rN re-run suffix; N is compared numerically
# (lexicographic sort would put _r10 before _r2) with the plain date
# ranking as revision 0, i.e. before _r1.
latest_bench() {
    local f stem
    for f in BENCH_*.json; do
        [[ -e "$f" ]] || continue
        stem=${f%.json}
        if [[ "$stem" =~ ^(.*)_r([0-9]+)$ ]]; then
            printf '%s %08d %s\n' "${BASH_REMATCH[1]}" "${BASH_REMATCH[2]}" "$f"
        else
            printf '%s %08d %s\n' "$stem" 0 "$f"
        fi
    done | sort | tail -n1 | awk '{print $3}'
}

# bench_record <out_json> [extra kernel flags...]: run the kernel
# micro-benchmarks (quick mode), one loadgen round against a local serve
# daemon, and the end-to-end recorder, and write the combined record to
# <out_json>. Extra flags (e.g. --compare FILE) are passed to the kernels
# bench — and a --compare baseline is mirrored to the e2e recorder, which
# diffs its deterministic checks against the baseline's "e2e" section
# (records predating the section pass with a note). Any compare failure
# aborts before anything is written.
bench_record() {
    local out=$1; shift
    local kjson ljson ejson slog serve_pid serve_addr baseline="" prev=""
    local flag
    for flag in "$@"; do
        [[ "$prev" == "--compare" ]] && baseline=$flag
        prev=$flag
    done
    kjson=$(mktemp); ljson=$(mktemp); ejson=$(mktemp); slog=$(mktemp)
    echo "==> kernel micro-benchmarks (quick, json)"
    cargo bench --offline -p digiq-bench --bench kernels -- --quick --json-out "$kjson" "$@"
    echo "==> loadgen against a local serve daemon"
    ./target/release/serve --workers 2 > "$slog" &
    serve_pid=$!
    serve_addr=$(wait_for_serve "$slog") || { kill "$serve_pid" 2>/dev/null; exit 1; }
    if ! ./target/release/loadgen --addr "$serve_addr" --clients 4 --requests 2 \
            --json --shutdown > "$ljson"; then
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    wait "$serve_pid"
    echo "==> end-to-end rows (deterministic checks hard-fail, wall time warns)"
    if [[ -n "$baseline" ]]; then
        ./target/release/e2e --json-out "$ejson" --compare "$baseline"
    else
        ./target/release/e2e --json-out "$ejson"
    fi
    printf '{"date":"%s","kernels":%s,"loadgen":%s,"e2e":%s}\n' \
        "$(date +%F)" "$(cat "$kjson")" "$(cat "$ljson")" "$(cat "$ejson")" > "$out"
    rm -f "$kjson" "$ljson" "$ejson" "$slog"
    echo "benchmark numbers written to $out"
}

if [[ "${1:-}" == "--bench-json" ]]; then
    out="BENCH_$(date +%F).json"
    if [[ -e "$out" && "${2:-}" != "--force" ]]; then
        echo "$out already exists; pass --force to overwrite it" >&2
        exit 1
    fi
    bench_record "$out"
fi

if [[ "${1:-}" == "--bench-compare" ]]; then
    baseline=$(latest_bench)
    if [[ -z "$baseline" ]]; then
        echo "no committed BENCH_*.json to compare against" >&2
        exit 1
    fi
    # Never overwrite the baseline (or any same-day record): suffix re-runs
    # with _rN, which sorts after the plain date.
    out="BENCH_$(date +%F).json"
    n=2
    while [[ -e "$out" ]]; do
        out="BENCH_$(date +%F)_r${n}.json"
        n=$((n + 1))
    done
    echo "==> bench compare vs $baseline (counters hard-fail, wall time warn-only)"
    # Absolute path: cargo bench runs the binary with cwd = crates/bench.
    bench_record "$out" --compare "$PWD/$baseline"
fi

if [[ "${1:-}" == "--bench-e2e" ]]; then
    echo "==> end-to-end rows (bounded sizes; deterministic checks hard-fail, wall time warns)"
    baseline=$(latest_bench)
    if [[ -n "$baseline" ]]; then
        ./target/release/e2e --compare "$PWD/$baseline"
    else
        ./target/release/e2e
    fi
fi

if [[ "${1:-}" == "--smoke" ]]; then
    echo "==> bench binaries (--small)"
    for b in table1_design_space table2_parking table3_cells fig2_trajectory \
             fig3_cycle fig4_waveform fig7_cz_error fig8_synthesis \
             fig9_exec_time fig10_gate_error scalability sweep; do
        echo "--- $b"
        cargo run -q --release --offline -p digiq-bench --bin "$b" -- --small
    done

    echo "--- cosim (--diff-analytic)"
    cargo run -q --release --offline -p digiq-bench --bin cosim -- --diff-analytic --small

    pipeline_smoke
    cosim_smoke
    store_smoke
    dist_smoke
    serve_smoke

    echo "==> examples"
    for e in quickstart design_space_tour parking_frequencies sfq_bloch_trajectory; do
        echo "--- $e"
        cargo run -q --release --offline --example "$e"
    done

    echo "==> kernel micro-benchmarks (quick, vs latest BENCH record)"
    baseline=$(latest_bench)
    if [[ -n "$baseline" ]]; then
        # Compare-only (no new record): counter regressions hard-fail the
        # smoke, wall-time regressions warn (single-CPU CI is too noisy).
        # Absolute path: the bench binary's cwd is the package directory.
        cargo bench --offline -p digiq-bench --bench kernels -- --quick --compare "$PWD/$baseline"
    else
        cargo bench --offline -p digiq-bench --bench kernels -- --quick
    fi
fi

echo "CI OK"
