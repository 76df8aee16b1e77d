#!/usr/bin/env bash
# CI entry point: everything a PR must pass. Fully offline (all external
# dependencies are vendored), so it runs identically on a laptop and in
# the GitHub Actions workflow (.github/workflows/ci.yml).
set -euo pipefail

echo "==> cargo build --release"
cargo build --release --workspace --all-targets

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo test at two threads (the shim's spin/park handoff, the split minibatch tail)"
# The pool sizes itself to the cores, so on a one-vCPU runner it has no
# worker and tasks run inline: the shim's wake-up paths and the tail's
# split would go untested. Two threads start one worker on any runner.
RAYON_NUM_THREADS=2 cargo test -q -p rayon -p autocat-ppo

echo "==> cargo test --doc (trait-contract examples)"
cargo test -q --doc --workspace

echo "==> cargo test (scalar-fallback: the compile-time no-SIMD path stays green)"
# The `scalar-fallback` feature compiles the x86 kernel tiers out entirely;
# the kernel, training, and golden-fixture suites must pass with identical
# results — SIMD is an implementation detail, never a semantic.
cargo test -q -p autocat-nn -p autocat-ppo -p autocat-bench --features autocat-nn/scalar-fallback

echo "==> cargo test --ignored: exhaustive tanh (every tier == port == libm on all 2^32 inputs)"
# f32::tanh is the host's libm, so this pins glibc 2.36's tanhf, as the
# recorded digests already do. About two minutes on two threads.
cargo test -q --release -p autocat-nn --test tanh -- --ignored

echo "==> cargo test perf/ (the benchmark's smoke tests still build and pass)"
# perf/ builds against the crates by path, so an API change that breaks
# the benchmark fails here rather than in the benchmark run. Cargo
# rewrites perf/Cargo.lock whenever the crate graph has moved on from it,
# and perf/ must stay byte-identical, so the lockfile is saved first and
# restored on every exit path.
PERF_LOCK=$(mktemp)
cp perf/Cargo.lock "$PERF_LOCK"
restore_perf_lock() {
    cp "$PERF_LOCK" perf/Cargo.lock
    rm -f "$PERF_LOCK"
}
trap restore_perf_lock EXIT
cargo test -q --release --offline --manifest-path perf/Cargo.toml
restore_perf_lock
trap - EXIT

echo "==> cargo build --examples"
cargo build --release --examples

echo "==> cargo bench --no-run (criterion benches must keep compiling)"
cargo bench --no-run --workspace

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> autocat-lint (workspace invariant checker)"
# Deny-by-default static gates: D1 no hash-ordered collections in
# digest/report crates, D2 no wall-clock/entropy outside bench bins, D3
# env reads stay in the committed registry, D4 no libm tanh in the
# digest/report crates outside nn/src/math.rs, R1 no panic paths in the
# daemon request path, U1 every `unsafe` carries a SAFETY comment, A0
# suppression hygiene. The allow dump first, so CI logs always show every
# suppression and its reason; then the gate itself (exits nonzero on any
# unsuppressed violation).
cargo run --release -q -p autocat-lint -- --list-allows
cargo run --release -q -p autocat-lint

echo "==> layering: the daemon does not link the bench harness; nn has no threads; no serde"
# The shared train -> evaluate pipeline lives in autocat-scenario, so the
# daemon needs nothing from the harness crate; the numerics crate runs
# every kernel on the calling thread, so it does not link rayon (the
# callers own the parallelism); and serialization goes through the
# workspace's own value codec, so no manifest names serde.
# (Output captured first: `cargo tree | grep -q` under pipefail would let
# an early grep exit turn a hit into a pass.)
SERVE_TREE=$(cargo tree --offline -p autocat-serve -e normal)
if grep -q "autocat-bench" <<<"$SERVE_TREE"; then
    echo "error: autocat-serve depends on autocat-bench:" >&2
    echo "$SERVE_TREE" >&2
    exit 1
fi
NN_TREE=$(cargo tree --offline -p autocat-nn -e normal)
if grep -q "rayon" <<<"$NN_TREE"; then
    echo "error: autocat-nn depends on rayon:" >&2
    echo "$NN_TREE" >&2
    exit 1
fi
SERDE_MANIFESTS=$(git ls-files -- 'Cargo.toml' '*/Cargo.toml' | xargs grep -l "serde" || true)
if [ -n "$SERDE_MANIFESTS" ]; then
    echo "error: these manifests name serde:" >&2
    echo "$SERDE_MANIFESTS" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# End-to-end smoke gates: regressions on the *training path* (env, rollout,
# sharded PPO update, checkpointing, report pipeline) must fail CI, not just
# the unit suites.

echo "==> smoke: matmul-bench digest gate (SIMD vs scalar kernels, bit for bit)"
# Hard-fails on any SIMD/scalar kernel divergence, on every available tier,
# across aligned and ragged shapes. This is the cheap always-on version of
# the kernel property suite.
cargo run --release -q -p autocat-bench --bin matmul-bench -- --check

echo "==> smoke: train-bench digest gate (8 lanes, 8 shards, 1 and 2 threads)"
# The grouped rollout, the sharded update and the fused reduce and Adam
# passes at the lane and shard counts attack-fr trains with: both thread
# counts must end on the recorded weights. train-bench itself fails if
# the rows disagree; this pins them to the recorded digest as well.
TRAIN_BENCH_DIGEST=a9b90874b644e35b
TRAIN_BENCH_OUT=$(cargo run --release -q -p autocat-bench --bin train-bench -- \
    --scenario table4-6 --steps 16384 --lanes 8 --shards 8 --threads-list 1,2)
echo "$TRAIN_BENCH_OUT"
for threads in 1 2; do
    if ! grep -qE "^ +$threads +16384 .* $TRAIN_BENCH_DIGEST\$" <<<"$TRAIN_BENCH_OUT"; then
        echo "error: train-bench at $threads thread(s) did not print $TRAIN_BENCH_DIGEST" >&2
        exit 1
    fi
done

echo "==> smoke: train-bench digest gate, one shard (1 lane, 1 and 2 threads)"
# The unsharded update branch (`grad_shards` 1, the default, which the
# daemon's jobs train with unless a scenario asks for more): one shard
# over the whole minibatch, reading its rows from the per-update CSR and
# both heads as one product. Both thread counts must end on the
# recorded weights.
TRAIN_BENCH_ONE_DIGEST=72aae05f9ad15e04
TRAIN_BENCH_ONE_OUT=$(cargo run --release -q -p autocat-bench --bin train-bench -- \
    --scenario table4-6 --steps 16384 --lanes 1 --shards 1 --threads-list 1,2)
echo "$TRAIN_BENCH_ONE_OUT"
for threads in 1 2; do
    if ! grep -qE "^ +$threads +16384 .* $TRAIN_BENCH_ONE_DIGEST\$" <<<"$TRAIN_BENCH_ONE_OUT"; then
        echo "error: train-bench (one shard) at $threads thread(s) did not print $TRAIN_BENCH_ONE_DIGEST" >&2
        exit 1
    fi
done

echo "==> smoke: train-bench digest gate past the subnormal-moment point (65536 steps)"
# At 16384 steps no Adam first moment is subnormal yet; by 65536, 5,696
# are, and on the last step 328 16-lane blocks have every lane stuck at a
# fixed point of m <- 0.9*m. So this run takes Adam's stuck-moment fast
# path as well as the full formula; both thread counts must end on the
# recorded weights.
TRAIN_BENCH_LONG_DIGEST=66fb3a2d9ae2a52c
TRAIN_BENCH_LONG_OUT=$(cargo run --release -q -p autocat-bench --bin train-bench -- \
    --scenario table4-6 --steps 65536 --lanes 8 --shards 8 --threads-list 1,2)
echo "$TRAIN_BENCH_LONG_OUT"
for threads in 1 2; do
    if ! grep -qE "^ +$threads +65536 .* $TRAIN_BENCH_LONG_DIGEST\$" <<<"$TRAIN_BENCH_LONG_OUT"; then
        echo "error: train-bench (65536 steps) at $threads thread(s) did not print $TRAIN_BENCH_LONG_DIGEST" >&2
        exit 1
    fi
done

echo "==> smoke: scenario-run trains table4-6 for a short budget"
cargo run --release -q -p autocat-bench --bin scenario-run -- \
    --scenario table4-6 --steps 4096 --lanes 2 --shards 2

echo "==> smoke: daemon round trip is bit-identical to one-shot scenario-run"
# Boot the daemon on a free loopback port, train a short job through it,
# fetch the stored checkpoint, and compare byte-for-byte (plus both digest
# lines) against `scenario-run --ckpt` of the same scenario + budget. This
# is the service layer's determinism gate: the daemon must be a scheduler
# around the one-shot path, never a different trainer.
SERVE_OUT=$(mktemp -d)
SWEEP_OUT=$(mktemp -d)
GEN_OUT=$(mktemp -d)
GEN_OUT2=$(mktemp -d)
cleanup() {
    rm -rf "$SERVE_OUT" "$SWEEP_OUT" "$GEN_OUT" "$GEN_OUT2"
    [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true
}
trap cleanup EXIT
# Boots a daemon on a free loopback port with the given extra flags,
# logging its output to the file named first, and sets SERVE_PID and
# SERVE_ADDR. Fails with the daemon's log if it does not listen within
# 5 s.
start_daemon() {
    local log=$1
    shift
    cargo run --release -q -p autocat-serve -- daemon --addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 50); do
        SERVE_ADDR=$(sed -n 's/^autocat-serve: listening on //p' "$log")
        [ -n "$SERVE_ADDR" ] && return
        sleep 0.1
    done
    echo "error: the daemon did not listen within 5 s; its log:" >&2
    cat "$log" >&2
    exit 1
}
cargo build --release -q -p autocat-serve -p autocat-bench
cargo run --release -q -p autocat-bench --bin scenario-run -- \
    --scenario table4-6 --steps 1 --ckpt "$SERVE_OUT/oneshot.ckpt.bin" \
    | tee "$SERVE_OUT/oneshot.log"
start_daemon "$SERVE_OUT/daemon.log" --store "$SERVE_OUT/store"
cargo run --release -q -p autocat-serve -- submit --addr "$SERVE_ADDR" \
    --scenario table4-6 --steps 1 --wait | tee "$SERVE_OUT/daemon-job.log"
cargo run --release -q -p autocat-serve -- fetch --addr "$SERVE_ADDR" \
    --scenario table4-6 --out "$SERVE_OUT/daemon.ckpt.bin"
cargo run --release -q -p autocat-serve -- gc --addr "$SERVE_ADDR" --max-count 1
cargo run --release -q -p autocat-serve -- shutdown --addr "$SERVE_ADDR"
wait "$SERVE_PID"; SERVE_PID=
cmp "$SERVE_OUT/oneshot.ckpt.bin" "$SERVE_OUT/daemon.ckpt.bin"
diff <(grep -E "^(params|eval) digest" "$SERVE_OUT/oneshot.log") \
     <(grep -E "^(params|eval) digest" "$SERVE_OUT/daemon-job.log")

echo "==> smoke: job table survives SIGKILL; restart resumes bit-identically"
# A queue-only daemon (--workers 0) accepts and journals a job, a
# duplicate submit attaches to it (dedup, not a second run), then the
# daemon is SIGKILL'd — no graceful shutdown. A restarted daemon over the
# same store must re-enqueue the job from the journal and train it to the
# exact bytes the one-shot run above produced.
RESTART_STORE="$SERVE_OUT/restart-store"
start_daemon "$SERVE_OUT/daemon2.log" --store "$RESTART_STORE" --workers 0
cargo run --release -q -p autocat-serve -- submit --addr "$SERVE_ADDR" \
    --scenario table4-6 --steps 1 > "$SERVE_OUT/restart-submit.log"
grep -q "submitted job 1" "$SERVE_OUT/restart-submit.log"
cargo run --release -q -p autocat-serve -- submit --addr "$SERVE_ADDR" \
    --scenario table4-6 --steps 1 > "$SERVE_OUT/restart-dup.log"
grep -q "attached to job 1" "$SERVE_OUT/restart-dup.log"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=
start_daemon "$SERVE_OUT/daemon3.log" --store "$RESTART_STORE" --workers 1
grep -q "journal replayed" "$SERVE_OUT/daemon3.log"
cargo run --release -q -p autocat-serve -- watch --addr "$SERVE_ADDR" --job 1 \
    > "$SERVE_OUT/restart-job.log"
cargo run --release -q -p autocat-serve -- fetch --addr "$SERVE_ADDR" \
    --scenario table4-6 --out "$SERVE_OUT/restart.ckpt.bin"
# Dedup against the finished job resolves instantly after the restart.
cargo run --release -q -p autocat-serve -- submit --addr "$SERVE_ADDR" \
    --scenario table4-6 --steps 1 > "$SERVE_OUT/restart-dup2.log"
grep -q "attached to job 1" "$SERVE_OUT/restart-dup2.log"
cargo run --release -q -p autocat-serve -- shutdown --addr "$SERVE_ADDR"
wait "$SERVE_PID"; SERVE_PID=
cmp "$SERVE_OUT/oneshot.ckpt.bin" "$SERVE_OUT/restart.ckpt.bin"
diff <(grep -E "^(params|eval) digest" "$SERVE_OUT/oneshot.log") \
     <(grep -E "^(params|eval) digest" "$SERVE_OUT/restart-job.log")

echo "==> smoke: sweep golden round trip (report-only must regenerate bytes)"
# Train a tiny sweep into a scratch directory, snapshot the reports as the
# run's golden, then regenerate them from the artifacts alone. The
# checkpoint resume guarantee makes the regenerated reports byte-identical;
# any divergence means trainer persistence or the report pipeline broke.
# (Golden artifacts are produced fresh here because a committed checkpoint
# would weigh ~2 MB; determinism makes the fresh run just as binding.)
cargo run --release -q -p autocat-bench --bin sweep -- \
    --filter table4-6 --steps 1 --seed 1 --lanes 2 --shards 2 --out "$SWEEP_OUT" >/dev/null
# --resume with an up-to-date manifest must skip the (re)training entirely.
# (stderr to a file, not a grep -q pipe: -q exits at first match and the
# still-writing sweep would die of EPIPE.)
cargo run --release -q -p autocat-bench --bin sweep -- \
    --filter table4-6 --steps 1 --seed 1 --lanes 2 --shards 2 --out "$SWEEP_OUT" \
    --resume >/dev/null 2>"$SWEEP_OUT/resume.log"
grep -q "already complete, skipping" "$SWEEP_OUT/resume.log"
cp "$SWEEP_OUT/report.md" "$SWEEP_OUT/golden-report.md"
cp "$SWEEP_OUT/report.json" "$SWEEP_OUT/golden-report.json"
cargo run --release -q -p autocat-bench --bin sweep -- \
    --report-only --out "$SWEEP_OUT" >/dev/null
cmp "$SWEEP_OUT/report.md" "$SWEEP_OUT/golden-report.md"
cmp "$SWEEP_OUT/report.json" "$SWEEP_OUT/golden-report.json"

echo "==> smoke: generated sweep + census are byte-identical across runs"
# The scenario generator's determinism contract, gated end to end: two
# independent full runs over the same (--generate, --gen-seed) must produce
# byte-identical scenario sidecars, Table IV report, and census report.
# Then the census must also regenerate byte-identically from the artifacts
# alone (--report-only), like the main report above.
cargo run --release -q -p autocat-bench --bin sweep -- \
    --generate 8 --gen-seed 1 --steps 1 --seed 1 --eval-episodes 25 \
    --census --out "$GEN_OUT" >/dev/null
cargo run --release -q -p autocat-bench --bin sweep -- \
    --generate 8 --gen-seed 1 --steps 1 --seed 1 --eval-episodes 25 \
    --census --out "$GEN_OUT2" >/dev/null
cmp "$GEN_OUT/report.json" "$GEN_OUT2/report.json"
cmp "$GEN_OUT/census.md" "$GEN_OUT2/census.md"
cmp "$GEN_OUT/census.json" "$GEN_OUT2/census.json"
for f in "$GEN_OUT"/*.scenario.json; do
    cmp "$f" "$GEN_OUT2/$(basename "$f")"
done
cp "$GEN_OUT/census.md" "$GEN_OUT/golden-census.md"
cp "$GEN_OUT/census.json" "$GEN_OUT/golden-census.json"
cargo run --release -q -p autocat-bench --bin sweep -- \
    --report-only --census --out "$GEN_OUT" >/dev/null
cmp "$GEN_OUT/census.md" "$GEN_OUT/golden-census.md"
cmp "$GEN_OUT/census.json" "$GEN_OUT/golden-census.json"

echo "==> smoke: eval-bench batched vs serial on the sweep artifacts"
# Reuses the sweep gate's checkpoint. eval-bench hard-fails if the batched
# evaluator at 1 lane diverges from the serial evaluator by a single bit,
# so this is the evaluation-path regression gate.
cargo run --release -q -p autocat-bench --bin eval-bench -- \
    --dir "$SWEEP_OUT" --eval-episodes 40 --lanes 4

echo "==> smoke: eval-bench thread sweep (per-scenario digests at 1 and 2 threads)"
# One child per thread count through the shared harness driver; it fails
# unless every scenario's stats digest is the same at both counts.
cargo run --release -q -p autocat-bench --bin eval-bench -- \
    --dir "$SWEEP_OUT" --eval-episodes 40 --lanes 4 --threads-list 1,2

echo "==> smoke: eval-bench thread sweep over two lane groups (8 lanes, 1 and 2 threads)"
# At 8 lanes the evaluation splits into two row-block lane groups: pool
# tasks at 2 threads, inline at 1. Both thread counts must print each
# scenario's recorded stats digest.
EVAL_BENCH_OUT=$(cargo run --release -q -p autocat-bench --bin eval-bench -- \
    --dir "$SWEEP_OUT" --eval-episodes 40 --lanes 8 --threads-list 1,2)
echo "$EVAL_BENCH_OUT"
for pin in table4-6:715db82a9a01b26b; do
    scenario=${pin%%:*}
    digest=${pin#*:}
    for threads in 1 2; do
        if ! grep -qE "^ +$threads +$scenario +$digest\$" <<<"$EVAL_BENCH_OUT"; then
            echo "error: eval-bench at 8 lanes, $threads thread(s) did not print $digest for $scenario" >&2
            exit 1
        fi
    done
done

echo "==> smoke: rollout-bench thread sweep (per-lane-count digests at 1 and 2 threads)"
# The fused rollout at 1/2/4/8 lanes; it fails unless every lane count
# collects bit-identical batches at both thread counts. This pins each
# lane count's batches to the recorded digest as well.
ROLLOUT_BENCH_OUT=$(cargo run --release -q -p autocat-bench --bin rollout-bench -- \
    --threads-list 1,2)
echo "$ROLLOUT_BENCH_OUT"
for pin in 1:bf25b88ee950649d 2:ef6e8f9d0ff252e6 4:ecd301d5067be9e2 8:0a10f69d6e6523ff; do
    lanes=${pin%%:*}
    digest=${pin#*:}
    for threads in 1 2; do
        if ! grep -qE "^ +$threads +$lanes .* $digest\$" <<<"$ROLLOUT_BENCH_OUT"; then
            echo "error: rollout-bench at $lanes lane(s), $threads thread(s) did not print $digest" >&2
            exit 1
        fi
    done
done

echo "CI OK"
