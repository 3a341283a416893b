#!/usr/bin/env bash
# Local pre-push gate: formatting, lints and the full test suite,
# mirroring .github/workflows/ci.yml. Components whose tools are not
# installed are skipped with a notice rather than failing the run.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
# Drills and gates write under target/ unless given --record, so the run
# must leave the tracked files exactly as it found them (status and
# content, so an append to an already-modified file counts too).
tree_state() { { git status --porcelain && git diff | cksum; } 2>/dev/null || true; }
tree_before=$(tree_state)

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check"
    cargo fmt --all --check || status=1
else
    echo "== cargo fmt not installed; skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy"
    cargo clippy --workspace --all-targets -- -D warnings || status=1
else
    echo "== cargo clippy not installed; skipping"
fi

# Deleting an item must not leave a dangling intra-doc link behind.
echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet || status=1

echo "== cargo test (OOD_THREADS=1, pool on)"
OOD_THREADS=1 OOD_POOL=1 cargo test --workspace --quiet || status=1

echo "== cargo test (OOD_THREADS=4, pool on)"
OOD_THREADS=4 OOD_POOL=1 cargo test --workspace --quiet || status=1

echo "== cargo test (OOD_THREADS=4, pool off)"
OOD_THREADS=4 OOD_POOL=0 cargo test --workspace --quiet || status=1

echo "== fault drill (kill+resume, NaN batches, inner spikes)"
cargo run -p bench --release --bin fault_drill >/dev/null || status=1

echo "== serve drill (shed, timeout, degrade, reload, drain, stage timing) at t=1 and t=4"
OOD_THREADS=1 cargo run -p bench --release --bin serve_drill >/dev/null || status=1
OOD_THREADS=4 cargo run -p bench --release --bin serve_drill >/dev/null || status=1

echo "== serve drill, socket mode (4 TCP clients, shed/slow-client/disconnect) at t=1 and t=4"
OOD_THREADS=1 cargo run -p bench --release --bin serve_drill -- --socket >/dev/null || status=1
OOD_THREADS=4 cargo run -p bench --release --bin serve_drill -- --socket >/dev/null || status=1
sock_trace=$(ls -t results/telemetry/serve_drill_socket-*.jsonl 2>/dev/null | head -1 || true)
if [ -n "$sock_trace" ]; then
    grep -q '"name":"serve_conn_open"' "$sock_trace" || status=1
    grep -q '"name":"serve_conn_close"' "$sock_trace" || status=1
    grep -q '"name":"serve_conn_shed"' "$sock_trace" || status=1
    test -s target/bench-results/serve_drill_socket.json || status=1
else
    echo "serve_drill: no recorded socket-mode trace found" >&2
    status=1
fi

echo "== oodbench smoke (served outputs bit for bit against in-process)"
bash crates/bench/src/bin/oodbench/run.sh --smoke >/dev/null || status=1

echo "== protocol differential fuzz, long run (typed decoder vs generic parser)"
cargo test --release -p oodgnn-serve --test protocol_fuzz -- --ignored >/dev/null || status=1

echo "== serve_top replay smoke (serve_stats snapshots in the recorded drill trace)"
drill_trace=$(ls -t results/telemetry/serve_drill-*.jsonl 2>/dev/null | head -1 || true)
if [ -n "$drill_trace" ]; then
    cargo run -p bench --release --bin serve_top -- \
        --replay --once --trace "$drill_trace" \
        | grep -q '^stage_compute_p95_ms=' || status=1
else
    echo "serve_top: no recorded serve_drill trace found" >&2
    status=1
fi

# The smoke run passes `--json -` so the fast numbers do not overwrite
# the committed full-run artifact (results/kernel_sweep.json).
echo "== kernel sweep smoke (per-kernel timing, output digests equal at t=1/2/4)"
OOD_BENCH_FAST=1 cargo run -p bench --release --bin kernel_sweep -- --json - >/dev/null || status=1

echo "== perf gate (baseline regression check, then the thread x pool matrix, at t=1 and t=4)"
gate_stamp=$(mktemp)
OOD_BENCH_FAST=1 OOD_THREADS=1 cargo run -p bench --release --bin perf_gate -- --tolerance 2 >/dev/null || status=1
OOD_BENCH_FAST=1 OOD_THREADS=4 cargo run -p bench --release --bin perf_gate -- --tolerance 2 >/dev/null || status=1
# Check the traces of both runs just made (t=1 and t=4), not only the newest.
mapfile -t gate_traces < <(find results/telemetry -name 'perf_gate-*.jsonl' -newer "$gate_stamp" 2>/dev/null)
rm -f "$gate_stamp"
if [ "${#gate_traces[@]}" -eq 2 ]; then
    for gate_trace in "${gate_traces[@]}"; do
        grep -q '"name":"tensor_memory"' "$gate_trace" || status=1
        grep -q '"name":"run_manifest"' "$gate_trace" || status=1
        grep -q '"vm_hwm_bytes"' "$gate_trace" || status=1
    done
else
    echo "perf_gate: expected the t=1 and t=4 traces, found ${#gate_traces[@]}" >&2
    status=1
fi

echo "== perf gate self-test (injected allocation spike must be caught)"
if OOD_BENCH_FAST=1 OOD_THREADS=1 cargo run -p bench --release --bin perf_gate -- --inject-alloc >/dev/null 2>&1; then
    echo "perf_gate: injected allocation spike was NOT caught" >&2
    status=1
fi

echo "== trace report smoke (span attribution covers >= 95% of wall)"
cargo run -p bench --release --bin trace_report -- --min-coverage 95 --out - >/dev/null || status=1

echo "== working tree unchanged by the checks"
if [ "$(tree_state)" != "$tree_before" ]; then
    echo "check.sh: the checks modified tracked files:" >&2
    git status --short >&2
    status=1
fi

if [ "$status" -ne 0 ]; then
    echo "check.sh: FAILED" >&2
else
    echo "check.sh: all checks passed"
fi
exit "$status"
