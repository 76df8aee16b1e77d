//! Dense-kernel benchmark: GMAC/s per matmul kernel per shape, every
//! available SIMD tier versus the forced-scalar path, plus a bitwise
//! SIMD/scalar digest gate.
//!
//! ```text
//! matmul-bench             # print the GMAC/s table (all tiers vs scalar)
//! matmul-bench --write     # also record BENCH_matmul.json
//! matmul-bench --check     # digest gate only: SIMD and scalar kernels must
//!                          # agree bit-for-bit on every kernel and shape
//! ```
//!
//! The gate also covers the other tier-dispatched kernels: the sparse
//! input layer's `SparseRows::matmul` and `SparseRows::matmul_tn` (on the
//! CSR compaction of a mostly-zero operand, compaction included in the
//! timing, GMAC/s counted as if dense), and
//! `autocat_nn::math::tanh_in_place` on each check shape's `m * k`
//! elements.
//!
//! Every tier at or below the dispatch tier is measured, not just the one
//! the dispatcher picked: the tiers are bit-identical by contract, so tier
//! choice is purely a throughput knob, and which tier wins is a property
//! of the *machine* (e.g. parts with one 512-bit FMA port and an AVX-512
//! license downclock run the two-rounding mul+add kernels faster on the
//! avx2 tier). Recording all tiers makes the committed baseline say so
//! instead of hiding it; `SIMD_TIER=avx2` is the production override.
//!
//! All kernel calls run under `with_inline_kernels`, for two reasons: the
//! forced SIMD tier is thread-local (it would not reach rayon pool
//! workers), and the point of this harness is the single-thread kernel
//! rate — thread scaling is the train/eval/rollout benches' axis. GMAC/s
//! counts one multiply-accumulate per `m*k*n` product term.
//!
//! The `--check` gate exists because the scalar path is not a test-only
//! artifact: it is what the `scalar-fallback` build and non-x86 targets
//! execute. Kernel results are *defined* by their canonical accumulation
//! orders, so any SIMD/scalar divergence is a bug, and CI runs this gate
//! on every push.

use autocat::nn::math::tanh_in_place;
use autocat::nn::matrix::with_inline_kernels;
use autocat::nn::state::fnv1a;
use autocat::nn::{Matrix, SparseRows};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const REPS: usize = 3;
/// Product terms (m*k*n) to aim for per timed repetition, so every
/// shape's measurement runs long enough to dominate timer noise.
const MACS_PER_REP: usize = 1 << 27;

/// Benchmark shapes `(label, m, k, n)` for `A(m,k) * B(k,n)`; transposed
/// kernels reuse the same operand volumes. The first two mirror the real
/// workload (a fused rollout group forward and a training minibatch
/// against the default 128-wide MLP trunk); the next two probe square and
/// wide-reduction regimes. The last two are the policy head of a
/// 64-wide trunk on one 32-row gradient shard: its forward (11 outputs,
/// narrower than one column block, as `matmul`) and its input gradient
/// `dx = dy·Wᵀ` (as `matmul_nt`).
const SHAPES: [(&str, usize, usize, usize); 6] = [
    ("group_fwd_4x132x128", 4, 132, 128),
    ("train_256x128x128", 256, 128, 128),
    ("square_128", 128, 128, 128),
    ("deep_k_64x512x64", 64, 512, 64),
    ("head_fwd_32x64x11", 32, 64, 11),
    ("head_dx_32x11x64", 32, 11, 64),
];

/// Ragged shapes for the digest gate: off-block row counts, non-multiple
/// -of-8 widths, and sub-block sizes that force every tail path (89 =
/// 64 + 16 + 8 + 1 takes each column section of the sparse forward).
/// Then the real head shapes of a 64-wide trunk: the value head (1 output)
/// and the policy head (11) on a 32-row gradient shard, an 8-lane rollout
/// step, one-row inference and a whole 256-row minibatch, all narrower
/// than one column block; and the heads' `dx = dy·Wᵀ` on a shard, which
/// `matmul_nt` runs 16 outputs at a time.
const CHECK_SHAPES: [(usize, usize, usize); 14] = [
    (4, 132, 128),
    (7, 33, 19),
    (1, 1, 1),
    (3, 8, 16),
    (13, 71, 5),
    (64, 100, 37),
    (9, 48, 89),
    (32, 64, 1),
    (32, 64, 11),
    (8, 64, 1),
    (1, 64, 11),
    (256, 64, 11),
    (32, 1, 64),
    (32, 11, 64),
];

fn dense(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// Mostly-zero matrix, about one entry in ten nonzero, like a batch of
/// one-hot observations: `matmul_sparse` runs the dense kernel on it (which
/// must still equal the sparse kernels' bits), the `sparse_rows_*` kernels
/// its CSR compaction.
fn sparse(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| {
                if rng.gen_range(0..10) == 0 {
                    rng.gen_range(-1.0f32..1.0)
                } else {
                    0.0
                }
            })
            .collect(),
    )
}

struct Kernel {
    name: &'static str,
    /// Builds `(a, b)` for shape `(m, k, n)` such that `run` performs
    /// `m*k*n` multiply-accumulates.
    make: fn(usize, usize, usize, &mut StdRng) -> (Matrix, Matrix),
    run: fn(&Matrix, &Matrix) -> Matrix,
}

const KERNELS: [Kernel; 6] = [
    Kernel {
        name: "matmul",
        make: |m, k, n, rng| (dense(m, k, rng), dense(k, n, rng)),
        run: |a, b| a.matmul(b),
    },
    Kernel {
        name: "matmul_sparse",
        make: |m, k, n, rng| (sparse(m, k, rng), dense(k, n, rng)),
        run: |a, b| a.matmul(b),
    },
    Kernel {
        name: "matmul_tn",
        make: |m, k, n, rng| (dense(k, m, rng), dense(k, n, rng)),
        run: |a, b| a.matmul_tn(b),
    },
    Kernel {
        name: "matmul_nt",
        make: |m, k, n, rng| (dense(m, k, rng), dense(n, k, rng)),
        run: |a, b| a.matmul_nt(b),
    },
    Kernel {
        name: "sparse_rows_matmul",
        make: |m, k, n, rng| (sparse(m, k, rng), dense(k, n, rng)),
        run: |a, b| SparseRows::from_dense(a).matmul(b),
    },
    Kernel {
        name: "sparse_rows_matmul_tn",
        make: |m, k, n, rng| (sparse(k, m, rng), dense(k, n, rng)),
        run: |a, b| SparseRows::from_dense(a).matmul_tn(b),
    },
];

fn digest(m: &Matrix) -> u64 {
    fnv1a(m.as_slice().iter().flat_map(|v| v.to_le_bytes()))
}

/// Times `kernel` on `(m, k, n)` under `tier`, returning GMAC/s (best of
/// `REPS` interleaved-within-shape repetitions).
fn bench_one(kernel: &Kernel, m: usize, k: usize, n: usize, tier: simd::Tier) -> f64 {
    let mut rng = StdRng::seed_from_u64(11);
    let (a, b) = (kernel.make)(m, k, n, &mut rng);
    let iters = (MACS_PER_REP / (m * k * n)).max(1);
    let mut best = f64::INFINITY;
    simd::with_forced_tier(tier, || {
        with_inline_kernels(|| {
            // Warm-up (allocator, page faults) before timing.
            std::hint::black_box((kernel.run)(&a, &b));
            for _ in 0..REPS {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box((kernel.run)(&a, &b));
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
        })
    });
    (iters * m * k * n) as f64 / best / 1e9
}

/// The SIMD/scalar digest gate: every kernel (the dense and sparse
/// matmuls and `tanh_in_place`) must produce bit-identical output under
/// the detected tier and the forced scalar path, on aligned and ragged
/// shapes. Returns the number of mismatches.
fn run_check(tier: simd::Tier) -> usize {
    let mut mismatches = 0;
    for &(m, k, n) in &CHECK_SHAPES {
        for kernel in &KERNELS {
            let mut rng = StdRng::seed_from_u64(23);
            let (a, b) = (kernel.make)(m, k, n, &mut rng);
            let fast =
                simd::with_forced_tier(tier, || with_inline_kernels(|| (kernel.run)(&a, &b)));
            let slow = simd::with_forced_tier(simd::Tier::Scalar, || {
                with_inline_kernels(|| (kernel.run)(&a, &b))
            });
            let (df, ds) = (digest(&fast), digest(&slow));
            if df != ds {
                eprintln!(
                    "error: {} {}x{}x{}: {} tier digest {:016x} != scalar digest {:016x}",
                    kernel.name,
                    m,
                    k,
                    n,
                    tier.name(),
                    df,
                    ds
                );
                mismatches += 1;
            }
        }
        // tanh on `m * k` elements: half random bit patterns (NaNs,
        // infinities and subnormals included), half the activation range.
        let mut rng = StdRng::seed_from_u64(29);
        let xs: Vec<f32> = (0..m * k)
            .map(|i| {
                if i % 2 == 0 {
                    f32::from_bits(rng.gen())
                } else {
                    rng.gen_range(-12.0..12.0)
                }
            })
            .collect();
        let tanh_digest = |t: simd::Tier| {
            let mut ys = xs.clone();
            simd::with_forced_tier(t, || tanh_in_place(&mut ys));
            fnv1a(ys.iter().flat_map(|v| v.to_le_bytes()))
        };
        let (df, ds) = (tanh_digest(tier), tanh_digest(simd::Tier::Scalar));
        if df != ds {
            eprintln!(
                "error: tanh_in_place over {} elements: {} tier digest {:016x} != scalar \
                 digest {:016x}",
                m * k,
                tier.name(),
                df,
                ds
            );
            mismatches += 1;
        }
    }
    mismatches
}

fn main() {
    let write = std::env::args().any(|a| a == "--write");
    let check_only = std::env::args().any(|a| a == "--check");
    let dispatch = simd::tier();
    // Every SIMD tier this build/CPU can run (dispatch tier and below);
    // empty on non-x86 or a scalar-fallback build, where only the gate's
    // trivial scalar-vs-scalar leg remains meaningful.
    let tiers: Vec<simd::Tier> = [simd::Tier::Avx2, simd::Tier::Avx512]
        .into_iter()
        .filter(|&t| t <= dispatch)
        .collect();

    let gate_tiers = if tiers.is_empty() {
        // Still exercise the gate machinery (trivially scalar-vs-scalar)
        // so `--check` cannot silently become a no-op on such builds.
        vec![simd::Tier::Scalar]
    } else {
        tiers.clone()
    };
    for &tier in &gate_tiers {
        let mismatches = run_check(tier);
        if mismatches > 0 {
            eprintln!(
                "error: {mismatches} SIMD/scalar kernel divergence(s) on the {} tier",
                tier.name()
            );
            std::process::exit(1);
        }
        println!(
            "digest gate: {} tier and scalar agree bit-for-bit on {} kernel/shape pairs \
             (dense and sparse matmuls, and tanh)",
            tier.name(),
            CHECK_SHAPES.len() * (KERNELS.len() + 1)
        );
    }
    if check_only {
        return;
    }

    println!(
        "matmul kernel throughput, all tiers vs forced scalar (dispatch tier {}, best of {REPS})",
        dispatch.name()
    );
    println!(
        "{:>14} {:>22} {:>8} {:>12} {:>12} {:>9}",
        "kernel", "shape", "tier", "simd GMAC/s", "scal GMAC/s", "speedup"
    );
    let mut rows = Vec::new();
    for kernel in &KERNELS {
        for &(label, m, k, n) in &SHAPES {
            let slow = bench_one(kernel, m, k, n, simd::Tier::Scalar);
            for &tier in &tiers {
                let fast = bench_one(kernel, m, k, n, tier);
                println!(
                    "{:>14} {:>22} {:>8} {:>12.2} {:>12.2} {:>8.2}x",
                    kernel.name,
                    label,
                    tier.name(),
                    fast,
                    slow,
                    fast / slow
                );
                rows.push((kernel.name, label, tier, fast, slow));
            }
        }
    }

    if write {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let entries: Vec<String> = rows
            .iter()
            .map(|(kernel, shape, tier, fast, slow)| {
                format!(
                    "    {{\"kernel\": \"{kernel}\", \"shape\": \"{shape}\", \
                     \"tier\": \"{}\", \"simd_gmacs\": {fast:.3}, \
                     \"scalar_gmacs\": {slow:.3}, \"speedup\": {:.2}}}",
                    tier.name(),
                    fast / slow
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"benchmark\": \"matmul_kernels\",\n  \"dispatch_tier\": \"{}\",\n  \
             \"available_cpus\": {cpus},\n  \"reps\": {REPS},\n  \"results\": [\n{}\n  ]\n}}\n",
            dispatch.name(),
            entries.join(",\n")
        );
        std::fs::write("BENCH_matmul.json", &json).expect("write BENCH_matmul.json");
        println!("wrote BENCH_matmul.json");
    }
}
