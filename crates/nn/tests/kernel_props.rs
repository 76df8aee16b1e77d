//! Property tests for the four matmul kernels against naive triple-loop
//! references on ragged shapes, plus bitwise cross-tier digests.
//!
//! Three kinds of claim, deliberately separated:
//!
//! * **Bit-exactness vs a naive reference** for the kernels whose
//!   canonical accumulation order *is* plain ascending-`k`: `matmul`
//!   (its register-blocked kernel, narrow outputs included) and
//!   `matmul_tn`. The blocked/vectorized kernels reorder reads and pack
//!   operands, but every output element must still accumulate its products
//!   in ascending-`k` order with one rounding per multiply and one per add
//!   — so a scalar triple loop reproduces them to the last bit.
//! * **Bit-exactness vs a scalar reference of the striped order** for
//!   `matmul_nt`, whose canonical order is the striped `dot_canonical`
//!   reduction documented in `matrix.rs`, not ascending-`k`. The reference
//!   spells that order out in plain scalar code, and every tier of both of
//!   the kernel's paths (one dot product per output, or 16 outputs per
//!   vector) must reproduce it. The naive ascending loop only bounds its
//!   error.
//! * **Bitwise tier agreement**: every SIMD tier agrees with the scalar
//!   instantiation of the same kernel.
//!
//! Zero handling: the naive references multiply every entry, and the
//! kernels skip some zeros: `matmul_tn` skips zero `a` entries, or zero
//! `b` entries when `b` is narrower than one column block, and the CSR
//! input layer skips zero inputs. A skipped product is `±0` while the
//! operands are finite, and a `±0` addend cannot change a sum that started
//! at `+0`, so skipping changes no bit. Most properties draw operands
//! without exact zeros, so no product is a signed zero at all; the
//! `matmul_sparse` property holds the dense kernel to naive on mostly-zero
//! inputs (the CSR input layer, `tests/sparse.rs`, is held to the dense
//! kernel's bits on such inputs), and the narrow-path property pins the
//! finite-operand argument on ReLU-like inputs against `±0` weights.

use autocat_nn::state::fnv1a;
use autocat_nn::{Matrix, NtPanels};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform in (-1, 1) with exact zeros (and near-zeros, for clarity of
/// intent) nudged away from zero.
fn nonzero(rng: &mut StdRng) -> f32 {
    let v: f32 = rng.gen_range(-1.0..1.0);
    if v.abs() < 1e-6 {
        0.5
    } else {
        v
    }
}

fn dense(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| nonzero(rng)).collect())
}

/// ~1-in-10 nonzero entries, like a batch of one-hot observations.
fn sparse(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| {
                if rng.gen_range(0..10) == 0 {
                    nonzero(rng)
                } else {
                    0.0
                }
            })
            .collect(),
    )
}

/// Uniform in (-1, 1) with about one entry in ten `+0` and one in ten
/// `−0`.
fn signed_zeros(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| match rng.gen_range(0..10) {
                0 => 0.0,
                1 => -0.0,
                _ => nonzero(rng),
            })
            .collect(),
    )
}

/// About half exact `+0`, the rest in (0, 1): a batch of ReLU-like
/// activations.
fn relu_like(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| nonzero(rng).max(0.0)).collect(),
    )
}

/// Every tier this build and CPU can run, the scalar tier included (on a
/// scalar-fallback build or a non-x86 host, only the scalar tier).
fn tiers() -> Vec<simd::Tier> {
    [simd::Tier::Scalar, simd::Tier::Avx2, simd::Tier::Avx512]
        .into_iter()
        .filter(|&t| t <= simd::tier())
        .collect()
}

/// Runs `kernel` under each of [`tiers`] and checks its output
/// against `want` bit for bit.
fn assert_every_tier(kernel: &dyn Fn() -> Matrix, want: &[f32], what: &str) -> Result<(), String> {
    for tier in tiers() {
        let got = simd::with_forced_tier(tier, kernel);
        assert_bits_equal(&got, want, &format!("{what} ({} tier)", tier.name()))?;
    }
    Ok(())
}

/// Ascending-`k` triple loop for `a(m,k) * b(k,n)`.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a.as_slice()[i * k + kk];
            for j in 0..n {
                out[i * n + j] += av * b.as_slice()[kk * n + j];
            }
        }
    }
    out
}

/// Ascending-`k` triple loop for `a(k,m)^T * b(k,n)`.
fn naive_matmul_tn(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for kk in 0..k {
        for i in 0..m {
            let av = a.as_slice()[kk * m + i];
            for j in 0..n {
                out[i * n + j] += av * b.as_slice()[kk * n + j];
            }
        }
    }
    out
}

/// Ascending-`k` dot products for `a(m,k) * b(n,k)^T`.
fn naive_matmul_nt(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.as_slice()[i * k + kk] * b.as_slice()[j * k + kk];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// `a(m,k) * b(k,n)` in the zero-skipping axpy order: each output starts
/// at `+0` and takes `out + a·b` for every nonzero `a` entry of its row,
/// in ascending `k`.
fn skipping_matmul(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a.as_slice()[i * k + kk];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b.as_slice()[kk * n + j];
            }
        }
    }
    out
}

/// `a(k,m)^T * b(k,n)` in the zero-skipping axpy order: each output
/// starts at `+0` and takes `out + a·b` for every nonzero `a` entry of its
/// column, in ascending `k`.
fn skipping_matmul_tn(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f32; m * n];
    for kk in 0..k {
        for i in 0..m {
            let av = a.as_slice()[kk * m + i];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b.as_slice()[kk * n + j];
            }
        }
    }
    out
}

/// `matmul_nt`'s canonical dot product in plain scalar code: element `k`
/// of 8-element chunk `c = k / 8` accumulates into stripe `c mod 4`, lane
/// `k mod 8`, from `+0`; the stripes combine per lane as
/// `(s0+s1) + (s2+s3)`, the lanes as `((l0+l1)+(l2+l3)) +
/// ((l4+l5)+(l6+l7))`, and the products past the last full chunk are added
/// in ascending `k`. (IEEE addition is commutative, so `acc += a·b` is the
/// kernels' `a·b + acc`.)
fn striped_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [[0.0f32; 8]; 4];
    let k8 = a.len() / 8 * 8;
    for k in 0..k8 {
        let (stripe, lane) = ((k / 8) % 4, k % 8);
        acc[stripe][lane] += a[k] * b[k];
    }
    let l: Vec<f32> = (0..8)
        .map(|lane| (acc[0][lane] + acc[1][lane]) + (acc[2][lane] + acc[3][lane]))
        .collect();
    let mut sum = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
    for k in k8..a.len() {
        sum += a[k] * b[k];
    }
    sum
}

/// [`striped_dot`] for every output of `a(m,k) * b(n,k)^T`.
fn striped_matmul_nt(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = striped_dot(
                &a.as_slice()[i * k..(i + 1) * k],
                &b.as_slice()[j * k..(j + 1) * k],
            );
        }
    }
    out
}

fn assert_bits_equal(got: &Matrix, want: &[f32], what: &str) -> Result<(), String> {
    for (i, (g, w)) in got.as_slice().iter().zip(want.iter()).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(format!(
                "{what}: element {i}: kernel {g} ({:#010x}) != naive {w} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            ));
        }
    }
    Ok(())
}

fn digest(m: &Matrix) -> u64 {
    fnv1a(m.as_slice().iter().flat_map(|v| v.to_le_bytes()))
}

/// `matmul_nt` against `Wᵀ` packed ahead of the call equals the call
/// that packs for itself, and the striped reference, bit for bit on every
/// tier: outputs and rows on both sides of the 16-wide panel, including
/// the shapes the packing call sends to its per-element path, with one
/// pack buffer reused across every shape.
#[test]
fn prepacked_matmul_nt_equals_matmul_nt_bit_for_bit() {
    const SIDES: [usize; 5] = [1, 15, 16, 17, 64];
    let mut rng = StdRng::seed_from_u64(21);
    let mut packed = NtPanels::default();
    for cols in [1, 11, 64] {
        for n in SIDES {
            let b = dense(n, cols, &mut rng);
            packed.pack(&b);
            assert_eq!(packed.shape(), (n, cols));
            for m in SIDES {
                let a = signed_zeros(m, cols, &mut rng);
                let what = format!("{m}x{cols}x{n}");
                let want = striped_matmul_nt(&a, &b);
                assert_every_tier(&|| a.matmul_nt(&b), &want, &what).unwrap();
                let prepacked = || {
                    let mut out = Matrix::full(3, 2, f32::NAN);
                    a.matmul_nt_packed_into(&packed, &mut out);
                    assert_eq!((out.rows(), out.cols()), (m, n), "{what}");
                    out
                };
                assert_every_tier(&prepacked, &want, &format!("prepacked {what}")).unwrap();
            }
        }
    }
}

proptest! {
    #[test]
    fn matmul_dense_matches_naive_bit_for_bit(
        m in 1usize..20,
        k in 1usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = dense(m, k, &mut rng);
        let b = dense(k, n, &mut rng);
        let got = a.matmul(&b);
        assert_bits_equal(&got, &naive_matmul(&a, &b), "matmul dense")?;
    }

    #[test]
    fn matmul_sparse_matches_naive_bit_for_bit(
        m in 1usize..20,
        k in 1usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = sparse(m, k, &mut rng);
        let b = dense(k, n, &mut rng);
        let got = a.matmul(&b);
        assert_bits_equal(&got, &naive_matmul(&a, &b), "matmul sparse")?;
    }

    #[test]
    fn matmul_tn_matches_naive_bit_for_bit(
        m in 1usize..20,
        k in 1usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = dense(k, m, &mut rng);
        let b = dense(k, n, &mut rng);
        let got = a.matmul_tn(&b);
        assert_bits_equal(&got, &naive_matmul_tn(&a, &b), "matmul_tn")?;
    }

    #[test]
    fn matmul_nt_matches_naive_within_reassociation_error(
        m in 1usize..20,
        k in 1usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = dense(m, k, &mut rng);
        let b = dense(n, k, &mut rng);
        let got = a.matmul_nt(&b);
        let want = naive_matmul_nt(&a, &b);
        for (i, (g, w)) in got.as_slice().iter().zip(want.iter()).enumerate() {
            // Reassociating a k-term dot product perturbs it by at most
            // ~k ulps of the magnitude sum; |terms| < 1 here so the sum of
            // |products| is < k.
            let bound = (k as f32) * (k as f32) * f32::EPSILON + 1e-30;
            prop_assert!(
                (g - w).abs() <= bound,
                "matmul_nt: element {i}: kernel {g} vs naive {w} exceeds bound {bound}"
            );
        }
    }

    /// `matmul_nt` equals the scalar striped reference bit for bit on
    /// every tier: under 16 rows or outputs (one dot product per output)
    /// and from 16 up (16 outputs per vector), for `k` under 8 (no full
    /// chunk), between 8 and 16, and on both sides of each 32-element
    /// stripe group, with `±0` operands.
    #[test]
    fn matmul_nt_matches_striped_reference_bit_for_bit(
        m in 1usize..40,
        k in 0usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = signed_zeros(m, k, &mut rng);
        let b = signed_zeros(n, k, &mut rng);
        let want = striped_matmul_nt(&a, &b);
        assert_every_tier(&|| a.matmul_nt(&b), &want, &format!("matmul_nt {m}x{k}x{n}"))?;
    }

    /// The narrow paths (`n < 16`: the policy and value heads) of `matmul`
    /// and `matmul_tn` equal the zero-skipping axpy loops bit for bit on
    /// every tier, with ReLU-like inputs (about half exact zeros, which
    /// the kernels multiply or skip differently) against weights and
    /// gradients that include `±0`, at inference (1 row), ragged and
    /// shard-sized (32 rows) batches.
    #[test]
    fn narrow_matmul_and_matmul_tn_match_zero_skipping_loops(
        rows in prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(32)],
        k in 1usize..140,
        n in 1usize..16,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = relu_like(rows, k, &mut rng);
        let w = signed_zeros(k, n, &mut rng);
        let dy = signed_zeros(rows, n, &mut rng);
        let shape = format!("{rows}x{k}x{n}");
        assert_every_tier(&|| h.matmul(&w), &skipping_matmul(&h, &w), &format!("matmul {shape}"))?;
        assert_every_tier(
            &|| h.matmul_tn(&dy),
            &skipping_matmul_tn(&h, &dy),
            &format!("matmul_tn {shape}"),
        )?;
    }

    /// The bitwise SIMD-vs-scalar property on random ragged shapes: every
    /// kernel, instantiated for the dispatch tier, must agree with the
    /// scalar instantiation to the last bit. (On a scalar-fallback build
    /// or non-x86 host the dispatch tier *is* scalar and this passes
    /// trivially; the real coverage runs wherever AVX tiers exist, and
    /// `matmul-bench --check` gates the same property in CI on fixed
    /// shapes.)
    #[test]
    fn kernels_agree_with_scalar_tier_bit_for_bit(
        m in 1usize..20,
        k in 1usize..140,
        n in 1usize..140,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = dense(m, k, &mut rng);
        let a_sparse = sparse(m, k, &mut rng);
        let b = dense(k, n, &mut rng);
        let a_t = dense(k, m, &mut rng);
        let b_t = dense(n, k, &mut rng);
        let runs: [(&str, &dyn Fn() -> Matrix); 4] = [
            ("matmul", &|| a.matmul(&b)),
            ("matmul_sparse", &|| a_sparse.matmul(&b)),
            ("matmul_tn", &|| a_t.matmul_tn(&b)),
            ("matmul_nt", &|| a.matmul_nt(&b_t)),
        ];
        for (name, run) in runs {
            let fast = simd::with_forced_tier(simd::tier(), run);
            let slow = simd::with_forced_tier(simd::Tier::Scalar, run);
            prop_assert!(
                digest(&fast) == digest(&slow),
                "{name} {m}x{k}x{n}: {} tier digest {:016x} != scalar {:016x}",
                simd::tier().name(),
                digest(&fast),
                digest(&slow)
            );
        }
    }
}
