#!/bin/sh
# Full offline verification: release build, tests, formatting, lints.
# The workspace has no external dependencies, so everything here must
# succeed without network access.
set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# passed_gate MIN WHAT CARGO_TEST_ARGS... — run one test selection and
# fail unless at least MIN tests passed, summed over every test binary
# it ran, so a renamed or filtered-out suite cannot pass vacuously.
passed_gate() {
    gate_min=$1
    gate_what=$2
    shift 2
    echo "==> cargo test -q --offline $*"
    gate_out=$(cargo test -q --offline "$@" 2>&1) || {
        echo "$gate_out"
        exit 1
    }
    echo "$gate_out" | grep '^test result:'
    gate_passed=$(echo "$gate_out" | grep '^test result:' |
        sed -n 's/.* \([0-9][0-9]*\) passed.*/\1/p' | awk '{n += $1} END {print n}')
    if [ "${gate_passed:-0}" -lt "$gate_min" ]; then
        echo "error: expected at least $gate_min $gate_what, ran ${gate_passed:-0}" >&2
        exit 1
    fi
}

run cargo build --release --offline
# perfbench/ is its own Cargo package, so the workspace build never
# compiles it; build it here so a core or grid API change cannot break
# the benchmark unseen.
run cargo build --release --offline --manifest-path perfbench/Cargo.toml
run cargo test -q --offline
run cargo fmt --check
run cargo clippy --offline --workspace --all-targets -- -D warnings

# The telemetry crate's API examples are doctests; make sure they
# actually run (a crate-level cfg or harness slip that ignores them
# would otherwise pass silently).
echo "==> cargo test --offline -p mosaic-telemetry --doc (no skips)"
doc_out=$(cargo test --offline -p mosaic-telemetry --doc 2>&1) || {
    echo "$doc_out"
    exit 1
}
doc_summary=$(echo "$doc_out" | grep '^test result:' | tail -1)
echo "$doc_summary"
doc_passed=$(echo "$doc_summary" | sed -n 's/.* \([0-9][0-9]*\) passed.*/\1/p')
doc_ignored=$(echo "$doc_summary" | sed -n 's/.* \([0-9][0-9]*\) ignored.*/\1/p')
if [ "${doc_passed:-0}" -eq 0 ]; then
    echo "error: no mosaic-telemetry doctests ran" >&2
    exit 1
fi
if [ "${doc_ignored:-0}" -ne 0 ]; then
    echo "error: $doc_ignored mosaic-telemetry doctest(s) skipped" >&2
    exit 1
fi

# Fault-injection suite: the hardening layer must hold up against
# scripted hostile clients (oversized frames, slowloris, floods,
# mid-frame disconnects, stalled workers, panicking jobs).
passed_gate 5 "fault-injection tests" --test service_integration fault_

# Front-end differential suite: the epoll service and the gateway must
# stay byte-identical to the threaded oracle across the fault scripts
# (unterminated final frame and a half-close with a job in flight
# included), and both must hold the 1000-idle-connection soak.
passed_gate 8 "front-end differential tests" --test frontend_differential

# The front-end's telemetry names, as the service and the gateway
# register them, must be promised to dashboards: each must appear in
# the DESIGN.md §9 paper-quantity table (the lint checks the code side;
# this checks the exact rows survived doc edits).
for name in service_connections_open service_io_loop_wakeups_total \
    gateway_connections_timed_out_total gateway_connections_open \
    gateway_io_loop_wakeups_total; do
    if ! sed -n '/^## 9/,/^## [0-9]*[^9]/p' DESIGN.md | grep -q "$name"; then
        echo "error: telemetry name $name missing from DESIGN.md §9" >&2
        exit 1
    fi
done
echo "==> DESIGN.md §9 documents every front-end telemetry name"

# Fleet fault suite: the gateway must survive backend death mid-job,
# floods, and whole-fleet outages with typed refusals.
passed_gate 3 "fleet fault tests" --test gateway_fleet fault_

# Every crate's own unit, integration and doc tests. The root
# `cargo test` above runs only the root package's test binaries, so
# without this the tests of mosaic-gpu, mosaic-service, mosaic-gateway,
# mosaic-cli, mosaic-lint and mosaic-telemetry would gate nothing.
passed_gate 839 "workspace tests" --workspace

# Wire codec: the run-based JSON string codec, the table hex codec and
# the block newline scan must match their per-character test oracles
# on the deterministic fuzz inputs.
passed_gate 7 "codec oracle tests" -p photomosaic --lib codec_oracle

# The gateway forwards a job's request bytes and proxies the backend's
# reply bytes verbatim, and answers malformed requests itself.
passed_gate 2 "gateway verbatim-forwarding tests" --test gateway_fleet verbatim_

# A synth source's size is bounded at decode time, so one tiny request
# cannot make a backend allocate terabytes and abort.
passed_gate 1 "synth size-bound decode tests" -p photomosaic --lib synth_size_bound
passed_gate 1 "synth size-bound fleet tests" --test gateway_fleet synth_size_bound

# An exact optimal job polls the per-job deadline at every auction
# phase, every S bids and before every Jonker-Volgenant augmentation, so
# an S = 4096 solve from the wire cannot hold a worker past the deadline.
passed_gate 1 "optimal deadline test" --test service_integration fault_optimal

# A library job polls the per-job deadline before each stage, so a
# stalled library job is answered `deadline_exceeded` like a generation
# job.
passed_gate 1 "library deadline test" --test service_integration fault_library_deadline

# A job that panics is answered `error` and counted failed, and its
# worker serves the next job, on both front-ends.
passed_gate 2 "job panic tests" --test service_integration fault_job_panic

# A lane count from the wire (`threads`, `gpu-sim` `workers`) is clamped
# to the compute pool's lanes: 2^40 threads neither hangs a worker nor
# changes the result, and 0 gpu-sim workers no longer kills one.
passed_gate 2 "lane-count bound tests" --test service_integration fault_lane_count
passed_gate 1 "bounded search chunk test" -p photomosaic --lib huge_thread_count

# Load lanes block on sockets, so run_load keeps every one of them
# connected at once instead of queueing them on the compute pool.
passed_gate 1 "load lane test" -p mosaic-service --lib load_lanes

# Job keys route jobs across the fleet; both hash to pinned values.
passed_gate 2 "pinned cache-key tests" -p photomosaic -p mosaic-tilelib --lib cache_key_pinned

# Step 2 polls the job deadline on every backend: the serial build
# before each row on the calling thread, the simulated GPU before each
# block. A deadline that expires with rows or blocks left is an error;
# one that expires after the last keeps the matrix.
passed_gate 4 "Step-2 deadline tests" -p mosaic-grid -p photomosaic --lib step2_deadline

# Step 2: every backend (serial, pool at 1/2/3/7 threads, simulated
# GPU) must stay bit-identical to the view-based scalar oracle for
# every metric, both pixel types and every tile edge in 1..=33 and 64.
passed_gate 1 "Step-2 differential test" -p photomosaic --lib step2_differential

# A metric whose tile error can overflow a u32 matrix entry is a typed
# error on every builder, so one wire job cannot kill a service worker.
passed_gate 2 "u32-overflow regression tests" -p photomosaic -p mosaic-grid --lib overflowing_metric
passed_gate 1 "u32-overflow service test" --test service_integration fault_overflowing

# Pool stress suite: the persistent worker pool underpins every
# parallel stage, so its shutdown/panic/raggedness invariants are gated.
passed_gate 10 "pool stress tests" -p mosaic-pool --test stress

# The one panic contract: a panicking gang ticket finishes its phase,
# opens no later one, and its own payload reaches the caller.
passed_gate 1 "gang phase panic" -p mosaic-pool --test stress gang_panic

# Tile-library suite: the content-addressed store, clustering, pruning
# and rectangular sparse solve carry the `library` job kind end to end,
# so both the crate's own tests and the thousand-tile acceptance
# workload are gated.
passed_gate 47 "tilelib tests" -p mosaic-tilelib

# Warm tile libraries: a server keeps each store generation's verified
# tiles and clusterings, and a warm reply stays byte-identical to a cold
# one; an insert, a corrupt object, a deadline and `--cache 0` all
# behave as they do cold.
passed_gate 7 "warm-store tests" --workspace warm_store

# Store writes land whole (temporary file, then rename), so a racing
# load never sees a torn object and a torn one is rewritten on re-insert.
passed_gate 2 "atomic-write tests" -p mosaic-tilelib --lib atomic_write

# Every synth scene's renders are pinned by hash, so a faster renderer
# must stay pixel-identical.
passed_gate 1 "golden render test" -p mosaic-image --lib golden_render

passed_gate 1 "thousand-tile library acceptance tests" --test tilelib_library

# Assignment-solver suite: every exact solver (JV above all, which
# serves `Optimal` jobs) is checked against the Hungarian and
# brute-force oracles, including the tie-heavy instances and rendered
# mosaic matrices that leave most rows to JV's shortest-path search after
# its auction prefix. The floor counts the crate's unit, integration
# and doc tests.
passed_gate 70 "mosaic-assign tests" -p mosaic-assign

# The sort-free swap schedule must stay bit-identical to the sorted
# circle-method oracle (every Algorithm-2 decision depends on it).
passed_gate 1 "swap-schedule oracle tests" -p mosaic-edgecolor sort_free_groups_match_the_sorted_oracle

# SIMD differential suite: the dispatched SAD/SSD kernels must stay
# bit-identical to the scalar oracle on every tile-edge length.
passed_gate 5 "SIMD differential tests" -p mosaic-image --test simd_differential

# Published benchmark artifacts: the committed root BENCH_*.json files
# must exist and hold well-formed suites (BENCH_search.json: the
# reference search against the pool at 2 and 4 threads), parsed with the
# workspace's own Json reader by tests/bench_artifacts.rs.
for artifact in BENCH_search.json BENCH_tilelib.json BENCH_error_matrix.json; do
    if [ ! -f "$artifact" ]; then
        suite=$(echo "$artifact" | sed 's/^BENCH_//; s/\.json$//')
        echo "error: $artifact missing from the workspace root" >&2
        echo "regenerate: cargo run --release -p mosaic-bench --bin bench -- --suite $suite" >&2
        exit 1
    fi
done
run cargo test -q --offline --test bench_artifacts

# Static analysis: the workspace must be clean modulo the committed
# baseline. This is a hard gate — deny findings fail the build.
run cargo run --release --offline -q -p mosaic-lint

# The report must agree with the exit code: zero deny-severity findings,
# and the whole analysis (lex, semantic model, all rules) must stay
# inside its wall-clock budget. The full scan currently takes ~350 ms;
# the ceiling leaves headroom for slow CI, not for an accidental
# quadratic blowup.
lint_budget_ms=5000
lint_deny=$(sed -n 's/.*"deny":\([0-9][0-9]*\).*/\1/p' out/LINT.json)
lint_ms=$(sed -n 's/.*"analysis_ms":\([0-9][0-9]*\).*/\1/p' out/LINT.json)
echo "==> mosaic-lint report: deny=${lint_deny:-?} analysis_ms=${lint_ms:-?} (budget ${lint_budget_ms} ms)"
if [ "${lint_deny:-1}" -ne 0 ]; then
    echo "error: out/LINT.json reports ${lint_deny:-no} deny finding(s)" >&2
    exit 1
fi
if [ "${lint_ms:-999999}" -gt "$lint_budget_ms" ]; then
    echo "error: lint analysis took ${lint_ms:-?} ms, over the ${lint_budget_ms} ms budget" >&2
    exit 1
fi

# Negative checks: the lint must actually catch violations. Seed one
# violation per rule family into a throw-away mini-workspace, require a
# non-zero exit, and require the report to name the expected rule — a
# pass that fails for the wrong reason is no check at all.
seed_dir=$(mktemp -d)
trap 'rm -rf "$seed_dir"' EXIT

# seed_check NAME RULE SEED_PATH <<EOF ... — writes the seed file,
# runs the lint over the scratch tree, and asserts rejection + rule.
seed_check() {
    seed_name=$1
    seed_rule=$2
    seed_path=$3
    rm -rf "$seed_dir/tree"
    mkdir -p "$seed_dir/tree/$(dirname "$seed_path")"
    cat > "$seed_dir/tree/$seed_path"
    echo "==> mosaic-lint negative check: $seed_name"
    if cargo run --release --offline -q -p mosaic-lint -- \
        --root "$seed_dir/tree" --json "$seed_dir/report.json" > /dev/null 2>&1; then
        echo "error: mosaic-lint passed a workspace with a seeded $seed_name" >&2
        exit 1
    fi
    if ! grep -q "\"rule\":\"$seed_rule\"" "$seed_dir/report.json"; then
        echo "error: seeded $seed_name was rejected, but not by $seed_rule:" >&2
        cat "$seed_dir/report.json" >&2
        exit 1
    fi
    echo "seeded $seed_name rejected by $seed_rule, as it should be"
}

seed_check "raw .lock().unwrap()" "lock-discipline" "crates/demo/src/lib.rs" <<'EOF'
#![forbid(unsafe_code)]
use std::sync::Mutex;
pub fn peek(m: &Mutex<u64>) -> u64 {
    *m.lock().unwrap()
}
EOF

# Lock identity is file-qualified, so the AB-BA pair lives in one file —
# the workspace convention is one home file per mutex.
seed_check "AB-BA lock-order cycle" "lock-order" "crates/demo/src/lib.rs" <<'EOF'
#![forbid(unsafe_code)]
pub fn transfer(s: &S) {
    let a = lock_unpoisoned(&s.alpha);
    let b = lock_unpoisoned(&s.beta);
    use_both(&a, &b);
}
pub fn settle(s: &S) {
    let b = lock_unpoisoned(&s.beta);
    let a = lock_unpoisoned(&s.alpha);
    use_both(&a, &b);
}
EOF

seed_check "channel recv under a MutexGuard" "blocking-under-lock" "crates/demo/src/lib.rs" <<'EOF'
#![forbid(unsafe_code)]
pub fn drain(s: &S, rx: &Receiver<Job>) {
    let mut queue = lock_unpoisoned(&s.queue);
    let job = rx.recv();
    queue.push_job(job);
}
EOF

seed_check "dropped Deadline at a bounded callee" "deadline-propagation" "crates/demo/src/lib.rs" <<'EOF'
#![forbid(unsafe_code)]
pub fn outer_bounded(cfg: &Config, deadline: &Deadline) -> Result<(), Error> {
    deadline.check()?;
    inner_bounded(cfg)
}
pub fn inner_bounded(cfg: &Config, deadline: &Deadline) -> Result<(), Error> {
    deadline.check()?;
    run(cfg)
}
EOF

seed_check "half-wired wire word" "registry-drift" "crates/service/src/protocol.rs" <<'EOF'
#![forbid(unsafe_code)]
pub mod ops {
    pub const SUBMIT: &str = "submit";
    pub const CANCEL: &str = "cancel";
}
pub mod kinds {
    pub const ACCEPTED: &str = "accepted";
}
fn encode(req: &Request) -> Json {
    tag(ops::SUBMIT, ops::CANCEL, kinds::ACCEPTED)
}
fn decode(value: &Json) -> Request {
    untag(ops::SUBMIT, kinds::ACCEPTED)
}
EOF

echo "==> all checks passed"
