#!/usr/bin/env sh
# Repo CI gate: build, test, lint. Run from the repo root.
set -eu

# Two things the serving stack must not grow back, checked on the source
# because no test can see them. A sleep in the queue or its gates: a
# concurrency test proves its interleaving with a barrier, a manual
# drain_once or a counter wait, and the one sleep left (the open-loop
# pacer in workload.rs, where wall-clock time is the input) says so on its
# line. And a batching window: the queue is work-conserving, so
# QueueConfig has no `window` field and nothing may set one
# (tests/cli.rs holds `serve-bench --window-us` to the unknown-option error).
echo "==> grep: no sleeps in the serve queue or its gates, no QueueConfig window"
if grep -n "thread::sleep" crates/serve/src/*.rs tests/serve_*.rs | grep -v "// time is under test"; then
    echo "error: a sleep in the serving stack; force the interleaving instead, or mark the line '// time is under test'" >&2
    exit 1
fi
if grep -rnE --include='*.rs' '(^|[^_[:alnum:]])window:' crates src tests examples; then
    echo "error: a batching window is back: ServeQueue takes what is queued the moment a worker is free" >&2
    exit 1
fi

# The solver stores no residual and the factor store holds one matrix per
# mode: no config field, builder, kept structure or CLI option selects a
# layout (tests/cli.rs holds `complete --layout` and
# `serve-bench --shard-rows` to the unknown-option error). Tiled and CSF
# are kernel structures only benchmark/'s probes and layout.rs's own tests
# build.
echo "==> grep: no layout option in the solver, the CLI or the docs"
if grep -rnE --include='*.rs' 'with_layout|LayoutAccel|"layout"' crates src tests examples; then
    echo "error: a layout choice is back in the solver or the CLI; a solve sweeps the observed COO entries through their block cut" >&2
    exit 1
fi
if grep -n -e '--layout' README.md DESIGN.md EXPERIMENTS.md; then
    echo "error: the docs name a --layout option that does not exist" >&2
    exit 1
fi

# The residual is derived state: a function of the factors, which every
# sweep evaluates and folds without storing. No solver state, backend,
# checkpoint or streaming solver keeps it, and no solve enters on stored
# values: every one opens with the same refreshing prologue sweep. The
# second grep is scoped: the tensor layout layer's MttkrpWorkspace keeps
# its positions, and prose elsewhere uses the word "carry".
echo "==> grep: nothing stores the residual, every solve enters one way"
if grep -rnE 'residual_fresh|splice_values|EntryValues|ckpt\.residual|type Residual' crates src tests; then
    echo "error: a stored residual or a second way into a solve is back; every sweep derives the residual from the factors" >&2
    exit 1
fi
if grep -rnE '\bcarry\b|\.positions\b' crates/core crates/stream crates/partition; then
    echo "error: a carried residual or the blocking's entry positions are back; nothing maps a stored residual between orders" >&2
    exit 1
fi

# The blocking holds a DisTenC solve's one copy of the blocked entries,
# built once per solve, and DisTenC has one entry point, solve.
echo "==> grep: DisTenC holds its blocks once"
if grep -rnE "ResidualBlock|fn solve_from|position_of" crates/core/src/distenc.rs crates/core/src/solver/cluster.rs; then
    echo "error: a per-block entry copy, a position search or DisTenC::solve_from is back; the residual is values per block of the one blocking" >&2
    exit 1
fi

# Coordinate bookkeeping runs at memory speed: sort_dedup is one stable
# radix sort over bit-packed keys for every shape (the comparator sort it
# replaced is its oracle in coo.rs's test module), and
# StreamingSolver::apply locates its sorted batch by one forward walk per
# list (CooTensor::search_from), not a search of the whole entry list per
# cell.
echo "==> grep: one radix sort_dedup, one forward walk in apply"
if sed '/^#\[cfg(test)\]/,$d' crates/tensor/src/coo.rs | grep -nE 'sort(_unstable)?_by\(\|&a, &b\|'; then
    echo "error: a comparator sort over entry positions is back in coo.rs; sort_dedup is the radix sort" >&2
    exit 1
fi
if sed -n '/pub fn apply(/,/^    }$/p' crates/stream/src/solver.rs | grep -nE '\.search\(|position_of\('; then
    echo "error: StreamingSolver::apply searches the whole entry list per cell; walk the sorted batch with search_from" >&2
    exit 1
fi

# A solve has one schedule: the sweep that refreshes the residual banks
# every mode's next MTTKRP, on every backend (host, cluster). No
# config field or builder turns it off, no backend has a one-mode MTTKRP,
# and the core keeps no count of banked modes; tests/oracle.rs (a dense
# Algorithm 1) is the reference the one schedule answers to.
echo "==> grep: one schedule, every backend banks every mode"
if grep -rnE "with_fused|fused: (true|false|bool)|cfg\.fused|fn sparse_mttkrp|ws\.banked" crates src tests examples; then
    echo "error: a second schedule is back; the banking sweep is the only way a solve runs" >&2
    exit 1
fi

# The queue is one FIFO in front of one LiveEngine, pinning its
# generation once per batch; every engine owns its top-K cache; a ticket's
# holder blocks on a Condvar. None of a second backend, the
# generation-keyed shared cache or the hand-written park/unpark wake-up may
# come back.
echo "==> grep: one serve backend, per-engine top-K caches, no park/unpark ticket"
if grep -rnE "enum Backend|enum Fleet|SharedTopKCache|with_shared_cache|set_generation|fn retain|fair_quantum|thread::park|\.unpark\(" crates/serve; then
    echo "error: a second serve backend, a shared top-K cache, a quantum knob or a park/unpark ticket is back" >&2
    exit 1
fi

# No benchmark serves more than one model through the queue, so it keeps
# no tenancy: no model registry, per-tenant lanes or deficit round-robin,
# tenant-share shedder or tenant errors (tests/cli.rs holds
# `serve-bench --tenants`, `--tenant-zipf` and `--tenant-share` to the
# unknown-option error, their names spelled in parts). The open-loop
# trace's tenant field only labels a request.
echo "==> grep: one queue in front of one LiveEngine, no tenancy"
if grep -rnE "ModelRegistry|with_registry|TenantShare|tenant_share|UnknownTenant|AlreadyRegistered|drr_batch|FAIR_QUANTUM|fn occupancy" crates src tests examples; then
    echo "error: serve multi-tenancy is back; the queue fronts one LiveEngine" >&2
    exit 1
fi

# Top-K is the one exact, norm-bound-pruned scan: nothing caps it, samples
# its recall or sets its deadline window (a constant), and a publish is the
# one way to replace a served model. None of the approximate tier, its
# knobs and counters, or the refresh wrapper may come back (tests/cli.rs
# holds the three serve-bench options to the unknown-option error, their
# names spelled in parts so this gate stays empty).
echo "==> grep: one exact top-K, no approximate tier or its knobs"
if grep -rnE "ApproxTopK|approx_topk|topk_approx|recall_check_every|recall_at_k|scan_limit_for_coverage|norm_prefix|deadline_check_every|refresh_with|approx-scan|approx-coverage|recall-every" crates src tests examples; then
    echo "error: the approximate top-K tier or one of its knobs is back; top-K is exact" >&2
    exit 1
fi

# One way to make a machine slow, and no serving state nothing reads: a
# slow machine is a `Fault::Straggler` window in the FaultPlan, never a
# second ClusterConfig field; the factor store keeps no Gram (no serving
# path reads one), and the LRU cache keeps no free-slot list (an evicted
# slot is recycled in place, and nothing else frees one).
echo "==> grep: no ClusterConfig straggler, no served Gram, no LRU free list"
if grep -rnE --include='*.rs' 'cfg\.straggler|(^|[^_[:alnum:]])straggler:' crates src tests examples \
    || grep -nE 'grams' crates/serve/src/store.rs || grep -nwE 'free' crates/serve/src/cache.rs; then
    echo "error: a permanent straggler field, a stored Gram or the LRU free list is back" >&2
    exit 1
fi

# A solve has one thread count, `AdmmConfig::exec`, and each solve call
# builds one executor from it that its eigensolves and sweeps share
# (tests/pool_count.rs counts the pools): the simulated cluster is only a
# ledger, so neither its config nor the Cluster holds an executor, and
# the host's second pool for its eigensolves does not come back.
echo "==> grep: no executor in the cluster, one pool per solve call"
if grep -nE 'with_exec|Executor|ExecMode' crates/dataflow/src/cluster.rs crates/dataflow/src/config.rs \
    || grep -rn 'fn truncate_all' crates; then
    echo "error: a second thread count or a second pool per solve is back; the solve's AdmmConfig::exec builds the one executor" >&2
    exit 1
fi

# The core reports each phase of the schedule through one method,
# `StepBackend::charge(Phase)`, and the cluster's charges read a
# count-only view: `BlockMeta` holds a block's machine, nnz, coordinates
# and distinct rows per mode, never its entries, and nothing copies and
# sorts an index column to count those rows.
echo "==> grep: one accounting hook, a count-only BlockMeta"
if grep -rn 'fn on_' crates/core/src/solver || grep -rn 'active_indices' crates src tests \
    || sed -n '/struct BlockMeta/,/^}/p' crates/core/src/solver/cluster.rs | grep -n CooTensor; then
    echo "error: a per-phase hook or an entry-holding BlockMeta is back; charge through StepBackend::charge from counts" >&2
    exit 1
fi

# The solver core's seams carry only what they read: the backends hold
# the entries they sweep, a snapshot takes its shape and support size from
# the state, a DisTenC attempt sizes its state from the ledger's counts,
# `run` restores a checkpoint itself (no resume cursor type), and the
# trace clock takes no iteration.
echo "==> grep: no tensor across the solver core's seams"
seams=$(awk '/fn (fused_step|capture|run_attempt)\(/ { sig = 1 } sig { print } sig && /[{;]$/ { sig = 0 }' \
    crates/core/src/*.rs crates/core/src/solver/*.rs
    sed -n '/struct FileSink/,/^}/p;/struct ClusterSink/,/^}/p' crates/core/src/*.rs)
if grep -rn 'ResumePoint' crates src tests || grep -rnE 'clock\(&self, _?iter' crates \
    || echo "$seams" | grep -n CooTensor; then
    echo "error: a tensor crosses a solver seam, or ResumePoint or a clock(iter) is back; the backend holds the entries, the state the counts" >&2
    exit 1
fi

# Text is read one way: `.coo` files in blocks whose sub-ranges parse on
# the executor, Kruskal models through the same blocks, both in
# crates/tensor/src/io.rs. A line-at-a-time reader beside them would be a
# second, sequential body (the test oracle `read_coo_by_lines` splits a
# &str, which this does not match).
echo "==> grep: no line-at-a-time reader in the tensor text I/O"
if grep -nE "read_until|reader\.lines\(\)" crates/tensor/src/io.rs; then
    echo "error: a line-at-a-time reader is back in crates/tensor/src/io.rs; read through Blocks" >&2
    exit 1
fi

# The thread pool waits by spinning on its publish counter or parking on a
# Condvar, and its tests force their interleavings with barriers and the
# counts the pool keeps (parked workers, spins begun): no clock. A sleep
# would make a test prove a timing instead of the protocol, and a yield
# would hand a spinning thread's core to whatever the scheduler picks.
echo "==> grep: no sleep or yield in the thread pool"
if grep -nE "thread::sleep|yield_now" vendor/scoped_pool/src/lib.rs; then
    echo "error: a sleep or a yield in vendor/scoped_pool; wait on the pool's own counters instead" >&2
    exit 1
fi

# One measurement system: `benchmark/` (BENCHMARK.json), plus the three
# plain programs under crates/bench/benches/ that hold what it does not
# measure yet. Three things keep a second one from growing back, and keep
# the docs pointing at files that exist (benchmark/README.md is exempt: it
# names the legacy files as gone).
echo "==> grep: every bench file, bench name and BENCH json the docs cite exists"
missing=0
for ref in $(grep -ohE 'BENCH_[a-z_]+\.json|benches/[a-z_]+\.rs|--bench [a-z_]+' README.md DESIGN.md EXPERIMENTS.md \
    | sed -E 's|^--bench (.*)$|benches/\1.rs|' | sort -u); do
    case $ref in
        BENCH_*) path=$ref ;;
        *) path=crates/bench/$ref ;;
    esac
    if [ ! -e "$path" ]; then
        echo "error: README.md, DESIGN.md or EXPERIMENTS.md cites $ref, and $path does not exist" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] || exit 1
echo "==> grep: one env::var in the workspace, no criterion"
if [ "$(grep -rn "env::var" crates src tests vendor | cut -d: -f1)" != crates/dataflow/src/exec.rs ]; then
    grep -rn "env::var" crates src tests vendor >&2
    echo "error: DISTENC_THREADS (ExecMode::from_env) is the only environment variable the workspace reads" >&2
    exit 1
fi
# The crate, not the word: two doc comments say "convergence criterion".
if grep -n criterion Cargo.toml Cargo.lock crates/*/Cargo.toml || grep -rn criterion vendor \
    || grep -rnE 'criterion(::|_group|_main)' crates; then
    echo "error: criterion is back; a measurement is a plain fn main() that writes through distenc_bench::write_bench_json" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

# The hot kernels run from instantiations compiled for 256-bit lanes
# (distenc_linalg::isa::widest's avx2 arm), and both instantiations
# compute the same bits, so no test can see one go missing: a body that
# stops being `#[inline(always)]` all the way down is code-generated
# outside the wide function, which then holds a call and no vector code.
# So read the disassembly: every instantiation in the binary must use
# `ymm` registers, and at least one must be the entry sweep's (told apart
# by the line table: its instructions come from crates/tensor/src/fused.rs).
if [ "$(uname -m)" != x86_64 ]; then
    echo "==> wide-kernel check skipped: $(uname -m) has no avx2 arm"
elif ! command -v objdump >/dev/null || ! command -v nm >/dev/null; then
    echo "==> wide-kernel check skipped: objdump/nm not installed"
else
    echo "==> objdump: isa::widest's avx2 instantiations hold ymm code"
    wide=0
    sweeps=0
    for sym in $(nm target/release/distenc | awk '/isa6widest4wide/ { print $3 }'); do
        asm=$(objdump -d -l --no-show-raw-insn --disassemble="$sym" target/release/distenc)
        if ! echo "$asm" | grep -q ymm; then
            echo "error: $sym has no ymm operand: its body was not inlined into it" >&2
            exit 1
        fi
        wide=$((wide + 1))
        if echo "$asm" | grep -q 'tensor/src/fused\.rs'; then
            sweeps=$((sweeps + 1))
        fi
    done
    echo "==> $wide wide instantiations, $sweeps of them the entry sweep's"
    if [ "$sweeps" -eq 0 ]; then
        echo "error: no avx2 instantiation of the entry sweep in target/release/distenc" >&2
        exit 1
    fi
fi

# The whole workspace (default-members covers every crate and vendored
# shim), once per execution backend. ExecMode::default() reads
# DISTENC_THREADS (unset means a thread per host core, so both sweeps set
# it), so no test needs to opt in: the same binaries exercise the
# sequential path and a four-thread pool, and every result must be
# bit-identical (tests/parallel_equivalence.rs proves the contract). A
# value ExecMode::parse rejects fails the sweep loudly instead of running
# it sequentially.
#
# The named gates all live inside these two sweeps; each can be run alone
# with `DISTENC_THREADS=<n> cargo test -q --test <name>`:
#   streaming_equivalence, live_swap — warm re-solves are bit-identical to
#     solve_from on the final tensor; a model publish never fails a
#     concurrent read.
#   fault_recovery — injected crashes, flaky tasks and stragglers recover
#     to bit-identical factors/RMSE (lineage restart on the cluster,
#     checkpoint files + `resume` on the host) or surface a typed error:
#     never a panic, never silently different numerics. Recovery cost is
#     charged to the virtual clock, so an interval-1 resume must beat a
#     cold restart.
#   oracle — the one schedule answers to a dense, naive Algorithm 1: the
#     host on Sequential and Threads(4) and DisTenC on four machines track
#     it to frob_dist < 1e-8 per factor with equal iteration counts; at
#     α = 0 both solve with chain graphs to the graph-free bits.
#   serve_slo, serve_overload — fixed-work invariants of the serving
#     stack, never wall-clock and never paced by a sleep (the grep gate
#     above): every submission is exactly one of served /
#     typed shed / rejected and the metrics mirror the caller's counts;
#     a queue in front of a LiveEngine under concurrent hot-publishes
#     never fails a read; the same exactly-once accounting holds under a
#     multi-threaded past-capacity storm and a proptest sweep of small
#     queue configs. The queue counts into its engine's metrics, so
#     queue and engine counters are read from one snapshot. The gate
#     sizes its worker pool from ExecMode::default(), so the two sweeps
#     drain with one worker and with several.
#
# MIN_TESTS is the floor on what one sweep executes: the count at the
# commit that last added tests. A `default-members` or `--test` filter
# regression that silently drops suites shrinks the count and fails here
# instead of shrinking the gate. Raise it when a PR adds tests; lower it
# only with the tests it names as removed.
MIN_TESTS=556
executed=0
for threads in 1 4; do
    echo "==> DISTENC_THREADS=$threads cargo test -q"
    log=$(mktemp)
    DISTENC_THREADS=$threads cargo test -q >"$log" 2>&1 || { cat "$log"; rm -f "$log"; exit 1; }
    cat "$log"
    ran=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")
    rm -f "$log"
    echo "==> DISTENC_THREADS=$threads: $ran tests passed (floor $MIN_TESTS)"
    if [ "$ran" -lt "$MIN_TESTS" ]; then
        echo "error: the sweep executed $ran tests, fewer than the pinned $MIN_TESTS" >&2
        exit 1
    fi
    executed=$((executed + ran))
done

# The allocation-budget gate needs the counting global allocator, which
# only exists behind the alloc-count feature; it runs the solver itself,
# so it is kept out of the default feature set (and the two sweeps above).
# Single test thread: the counters are process-global, so the two tests
# in the binary would pollute each other's measured windows if they ran
# concurrently (a rare flake on busy hosts). Besides 0 allocations per
# steady-state iteration (also on a multi-block cut under Threads(4)) it
# holds the host's set-up, the block cut's partial banks, under one f64
# per nonzero, a whole cold solve under one f64 per nonzero (nothing
# stores the residual), a cold DisTenC solve under 12 doubles per nonzero
# (one copy of the blocked entries, no residual values), a snapshot under
# three copies of the factors and duals, and a cold or warm streaming
# solve under one f64 per nonzero.
echo "==> cargo test -q --features alloc-count --test alloc_budget -- --test-threads=1"
cargo test -q --features alloc-count --test alloc_budget -- --test-threads=1

# The pass-count gate pins how often a solve walks the nonzeros.
# Per steady-state iteration: once on the host under Sequential,
# Threads(2) and Threads(4) (the one sweep over the residual's block cut
# banks every mode's MTTKRP, nnz entries touched, also where the cut has
# several blocks) and on DisTenC under Sequential and Threads(4) (one
# block stage emits every mode's partial H). Per entry into a solve, cold
# or not (a streaming re-solve after an apply, AdmmSolver::resume): one
# refreshing prologue sweep banks every mode on every executor, so k
# iterations are exactly k + 1 sweeps (prologue, k − 1 banking sweeps,
# the last plain ‖E‖²), and an apply sweeps nothing.
# Counts tick once per kernel invocation (never per thread/chunk/block)
# and the test sets its executors itself, so DISTENC_THREADS does not move
# them; like alloc-count, the instrument stays out of the default feature
# set.
echo "==> cargo test -q --features pass-count --test pass_count"
cargo test -q --features pass-count --test pass_count

# The benchmark is a workspace of its own with path dependencies on
# crates/*, so nothing above compiles it: a signature change under
# crates/ could break it unnoticed. Its smoke run (all three workloads at
# about 1/20 size, a few seconds) builds it against this tree and checks
# the pipeline's outputs end to end. The traced pass runs too: its
# per-layer probes are the only callers outside layout.rs's unit tests of
# the tiled and CSF arms of TensorLayout::{build, workspace, mttkrp_into,
# fused_refresh_into, refresh_values}, whose signatures it pins.
for trace in 0 1; do
    echo "==> cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke --trace $trace"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke --trace $trace
done

# The rendered docs link nothing private and nothing that is gone: an
# intra-doc link to an item the `pub` audit narrowed is a dead link.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# --all-targets: tests, benches and examples stay lint-clean too, not
# just the library and binary code.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci.sh OK: $executed tests executed across the two sweeps"
