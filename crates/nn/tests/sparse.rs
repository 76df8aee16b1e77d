//! The sparse input-layer contract, bit for bit on every SIMD tier:
//!
//! * CSR compaction keeps exactly the entries the dense kernels' zero
//!   test keeps: `−0` becomes `+0` on the round trip, while NaN, ±inf and
//!   subnormals survive with their bits.
//! * [`SparseRows::matmul`] equals [`Matrix::matmul`] of the dense batch
//!   and the naive ascending-`k` loop (finite weights).
//! * [`SparseRows::matmul_tn`], added into nonzero starting gradients as
//!   `Linear::backward_params` does, equals the dense [`Matrix::matmul_tn`]
//!   added the same way.
//! * [`SparseRows::gather_rows`] of a batch's compaction equals the
//!   compaction of the gathered dense rows.
//!
//! Each check runs on every tier this build and CPU can run, each tier is
//! compared with the scalar tier, and the whole file also passes in the
//! `scalar-fallback` build. Shapes cover 0 rows, empty rows, an all-zero
//! batch, full-window rows at 25% density (the density the deleted
//! per-block census sent to the dense kernel) and every column-tail path:
//! `n` ∈ {1, 7, 8, 15, 16, 17, 64, 65}.

use autocat_nn::layers::Linear;
use autocat_nn::{Matrix, NtPanels, SparseRows};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simd::Tier;

const WIDTHS: [usize; 8] = [1, 7, 8, 15, 16, 17, 64, 65];

/// Every tier this build and CPU can run, scalar first.
fn tiers() -> Vec<Tier> {
    [Tier::Scalar, Tier::Avx2, Tier::Avx512]
        .into_iter()
        .filter(|&t| t <= simd::tier())
        .collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` on every tier and asserts every tier's bits equal the scalar
/// tier's; returns the scalar result.
fn on_every_tier(what: &str, f: impl Fn() -> Matrix) -> Matrix {
    let scalar = simd::with_forced_tier(Tier::Scalar, &f);
    for tier in tiers() {
        let got = simd::with_forced_tier(tier, &f);
        assert_eq!(
            bits(&got),
            bits(&scalar),
            "{what}: {} tier differs from the scalar tier",
            tier.name()
        );
    }
    scalar
}

/// Uniform in (-1, 1), never zero: finite weights whose products with a
/// nonzero input are never a signed zero.
fn weight(rng: &mut StdRng) -> f32 {
    let v: f32 = rng.gen_range(-1.0..1.0);
    if v == 0.0 {
        0.5
    } else {
        v
    }
}

fn weights(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| weight(rng)).collect())
}

/// A cache-game-like batch: 16-wide tokens with a latency and an action
/// one-hot, a step fraction and sometimes a victim flag; a row fills a
/// random prefix of its window (so empty rows and empty tails occur), and
/// every fifth row is a full window with all four features set, 25%
/// dense.
fn token_batch(rows: usize, tokens: usize, rng: &mut StdRng) -> Matrix {
    let mut x = Matrix::zeros(rows, tokens * 16);
    for r in 0..rows {
        let full = r % 5 == 4;
        let filled = if full {
            tokens
        } else {
            rng.gen_range(0..=tokens)
        };
        let row = x.row_mut(r);
        for t in 0..filled {
            let token = &mut row[t * 16..(t + 1) * 16];
            token[rng.gen_range(0..3usize)] = 1.0;
            token[3 + rng.gen_range(0..11usize)] = 1.0;
            token[14] = (t + 1) as f32 / tokens as f32;
            if full || rng.gen_range(0..4) == 0 {
                token[15] = 1.0;
            }
        }
    }
    x
}

/// Ascending-`k` triple loop for `a(m,k) * b(k,n)`, every product included.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            for j in 0..n {
                out[(i, j)] += a[(i, kk)] * b[(kk, j)];
            }
        }
    }
    out
}

/// Checks the forward and backward kernels on `x` against the dense
/// kernels and the naive loop, on every tier, for every width.
fn check_kernels(x: &Matrix, seed: u64) {
    let csr = SparseRows::from_dense(x);
    let mut rng = StdRng::seed_from_u64(seed);
    for n in WIDTHS {
        let w = weights(x.cols(), n, &mut rng);
        let shape = format!("{}x{}x{n}", x.rows(), x.cols());
        let sparse = on_every_tier(&format!("sparse matmul {shape}"), || csr.matmul(&w));
        let dense = on_every_tier(&format!("matmul {shape}"), || x.matmul(&w));
        assert_eq!(
            bits(&sparse),
            bits(&dense),
            "sparse vs dense matmul {shape}"
        );
        assert_eq!(
            bits(&sparse),
            bits(&naive_matmul(x, &w)),
            "sparse matmul vs naive {shape}"
        );

        let dy = weights(x.rows(), n, &mut rng);
        let sparse = on_every_tier(&format!("sparse matmul_tn {shape}"), || csr.matmul_tn(&dy));
        let dense = on_every_tier(&format!("matmul_tn {shape}"), || x.matmul_tn(&dy));
        assert_eq!(
            bits(&sparse),
            bits(&dense),
            "sparse vs dense matmul_tn {shape}"
        );
    }
}

#[test]
fn compaction_round_trips_every_kept_value() {
    let specials = [
        0.0,
        -0.0,
        1.0,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fa0_0001), // a signalling NaN pattern
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),            // smallest subnormal
        -f32::from_bits(0x007f_ffff), // largest subnormal, negative
        f32::MIN_POSITIVE,
        f32::MAX,
        -3.5,
    ];
    // Three rows: the specials spread over 40 columns (crossing the 16-wide
    // zero-test chunks), an all-`±0` row, and a row with one late nonzero.
    let cols = 40;
    let mut x = Matrix::zeros(3, cols);
    for (i, &v) in specials.iter().enumerate() {
        x[(0, i * 3)] = v;
    }
    for c in 0..cols {
        x[(1, c)] = if c % 2 == 0 { -0.0 } else { 0.0 };
    }
    x[(2, cols - 1)] = -7.0;

    let csr = SparseRows::from_dense(&x);
    assert_eq!((csr.rows(), csr.cols()), (3, cols));
    let kept: Vec<_> = x.as_slice().iter().filter(|&&v| v != 0.0).collect();
    assert_eq!(csr.nnz(), kept.len());
    assert_eq!(csr.row(1).0.len(), 0, "an all-±0 row stores nothing");
    assert_eq!(csr.row(2), (&[cols as u32 - 1][..], &[-7.0f32][..]));
    for r in 0..csr.rows() {
        let (idx, _) = csr.row(r);
        assert!(idx.windows(2).all(|p| p[0] < p[1]), "row {r} ascending");
    }

    let back = csr.to_dense();
    for (i, (&orig, &got)) in x.as_slice().iter().zip(back.as_slice()).enumerate() {
        let want = if orig == 0.0 { 0.0f32 } else { orig };
        assert_eq!(got.to_bits(), want.to_bits(), "element {i}: {orig:?}");
    }
    assert_eq!(
        bits(&SparseRows::from_dense(&back).to_dense()),
        bits(&back),
        "compaction is idempotent"
    );
}

/// A row of specials and signed zeros: every value compaction must keep
/// or drop, at random columns of a `cols`-wide row.
fn special_row(cols: usize, rng: &mut StdRng) -> Vec<f32> {
    const SPECIALS: [f32; 9] = [
        -0.0,
        f32::NAN,
        f32::from_bits(0x7fa0_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::from_bits(0x007f_ffff),
        1.0,
        -2.5,
    ];
    (0..cols)
        .map(|_| match rng.gen_range(0..4) {
            0 => SPECIALS[rng.gen_range(0..SPECIALS.len())],
            _ => 0.0,
        })
        .collect()
}

/// Gathering rows out of a batch's compaction equals compacting the
/// gathered dense rows, bit for bit: random selections with repeated
/// rows, empty rows, `−0`, NaN, ±inf and subnormals, into one reused
/// buffer.
#[test]
fn gathered_rows_equal_the_compaction_of_the_gathered_dense_rows() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut csr = SparseRows::default();
    for (rows, cols) in [(12usize, 40usize), (1, 17), (30, 64), (5, 3), (0, 8)] {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            match r % 4 {
                0 => data.extend(std::iter::repeat_n(0.0, cols)),
                1 => data.extend((0..cols).map(|c| if c % 2 == 0 { -0.0 } else { 0.0 })),
                _ => data.extend(special_row(cols, &mut rng)),
            }
        }
        let x = Matrix::from_vec(rows, cols, data);
        let batch = SparseRows::from_dense(&x);
        for len in [0, 1, rows, 2 * rows + 3] {
            let selection: Vec<usize> = (0..len)
                .map(|_| rng.gen_range(0..rows.max(1)))
                .filter(|&r| r < rows)
                .collect();
            csr.gather_rows(&batch, &selection);
            let want = SparseRows::from_dense(&x.gather_rows(&selection));
            assert_eq!(
                (csr.rows(), csr.cols(), csr.nnz()),
                (want.rows(), want.cols(), want.nnz())
            );
            for r in 0..want.rows() {
                let ((got_idx, got_val), (want_idx, want_val)) = (csr.row(r), want.row(r));
                assert_eq!(got_idx, want_idx, "{rows}x{cols}, row {r}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got_val), bits(want_val), "{rows}x{cols}, row {r}");
            }
        }
    }
}

#[test]
fn compact_reuses_a_buffer_across_shapes() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut csr = SparseRows::default();
    assert_eq!((csr.rows(), csr.cols(), csr.nnz()), (0, 0, 0));
    for (rows, tokens) in [(9, 24), (0, 24), (3, 2), (1, 24)] {
        let x = token_batch(rows, tokens, &mut rng);
        csr.compact(&x);
        assert_eq!(csr, SparseRows::from_dense(&x));
        assert_eq!(bits(&csr.to_dense()), bits(&x));
    }
}

#[test]
fn kernels_match_dense_and_naive_on_token_batches() {
    let mut rng = StdRng::seed_from_u64(2);
    for (rows, tokens) in [(1, 24), (4, 24), (9, 24), (13, 3), (5, 1)] {
        let x = token_batch(rows, tokens, &mut rng);
        check_kernels(&x, rows as u64);
    }
}

#[test]
fn kernels_handle_degenerate_batches() {
    // No rows, an all-zero batch (every row empty), and a batch mixing
    // empty rows with one nonzero in the last column.
    check_kernels(&Matrix::zeros(0, 48), 3);
    check_kernels(&Matrix::zeros(6, 48), 4);
    let mut x = Matrix::zeros(7, 33);
    x[(2, 32)] = 0.75;
    x[(5, 0)] = -1.25;
    check_kernels(&x, 5);
}

#[test]
fn kernels_match_dense_on_fully_dense_rows() {
    let mut rng = StdRng::seed_from_u64(6);
    let x = weights(9, 37, &mut rng);
    check_kernels(&x, 7);
}

#[test]
fn sparse_backward_params_equals_dense_into_nonzero_gradients() {
    let mut rng = StdRng::seed_from_u64(8);
    let x = token_batch(11, 24, &mut rng);
    for n in WIDTHS {
        let layer = Linear::new(x.cols(), n, &mut rng);
        // Nonzero starting gradients, a `−0` among them: both paths add a
        // whole zero-initialised `dW` into them.
        let mut w_grad = weights(x.cols(), n, &mut rng);
        w_grad[(x.cols() - 1, 0)] = -0.0;
        let start = vec![w_grad, weights(1, n, &mut rng)];
        let dy = weights(x.rows(), n, &mut rng);
        let y_dense = layer.forward_inference(&x);
        let mut dense = start.clone();
        layer.backward_params(&x, &dy, &mut dense);
        let y_sparse = on_every_tier("Linear::forward_into", || {
            let mut csr = SparseRows::default();
            let mut grads = start.clone();
            let mut y = Matrix::default();
            csr.compact(&x);
            layer.forward_into(&csr, &mut y);
            layer.backward_params(&csr, &dy, &mut grads);
            assert_eq!(bits(&grads[0]), bits(&dense[0]), "dW, n = {n}");
            assert_eq!(bits(&grads[1]), bits(&dense[1]), "db, n = {n}");
            y
        });
        assert_eq!(bits(&y_sparse), bits(&y_dense), "forward, n = {n}");
        assert_eq!(
            bits(&layer.forward_sparse_inference(&x)),
            bits(&y_dense),
            "inference forward, n = {n}"
        );
        // A CSR buffer reused from a different batch backpropagates from
        // the latest compaction only.
        let mut csr = SparseRows::default();
        csr.compact(&token_batch(5, 24, &mut rng));
        csr.compact(&x);
        let mut grads = start.clone();
        layer.backward_params(&csr, &dy, &mut grads);
        assert_eq!(bits(&grads[0]), bits(&dense[0]), "dW from a reused buffer");
        // The write-into backward over a selection of rows, into tensors
        // holding stale values, writes the product the accumulating
        // backward adds onto zeros: the rows gathered out of `x`'s
        // compaction equal the compaction of their dense gather.
        let rows: Vec<usize> = (0..x.rows()).rev().step_by(2).collect();
        let gathered = x.gather_rows(&rows);
        let dy_rows = dy.gather_rows(&(0..rows.len()).collect::<Vec<_>>());
        let mut zeroed = vec![Matrix::zeros(x.cols(), n), Matrix::zeros(1, n)];
        layer.backward_params(&gathered, &dy_rows, &mut zeroed);
        let batch_csr = SparseRows::from_dense(&x);
        let mut wt = NtPanels::default();
        wt.pack(&layer.w.value);
        on_every_tier("Linear::backward_into", || {
            let mut csr = SparseRows::default();
            csr.gather_rows(&batch_csr, &rows);
            assert_eq!(csr, SparseRows::from_dense(&gathered));
            let mut written = start.clone();
            let mut dx = Matrix::full(2, 3, f32::NAN);
            layer.backward_into(&csr, &dy_rows, &wt, &mut written, &mut dx);
            assert_eq!(
                bits(&dx),
                bits(&dy_rows.matmul_nt(&layer.w.value)),
                "dx, n = {n}"
            );
            assert_eq!(bits(&written[0]), bits(&zeroed[0]), "written dW, n = {n}");
            assert_eq!(bits(&written[1]), bits(&zeroed[1]), "written db, n = {n}");
            written.swap_remove(0)
        });
    }
}

proptest! {
    #[test]
    fn kernels_match_dense_on_random_sparse_batches(
        rows in 0usize..12,
        cols in 1usize..80,
        n in 1usize..70,
        one_in in 1u32..12,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| if rng.gen_range(0..one_in) == 0 { weight(&mut rng) } else { 0.0 })
                .collect(),
        );
        let w = weights(cols, n, &mut rng);
        let dy = weights(rows, n, &mut rng);
        let csr = SparseRows::from_dense(&x);
        let fwd = on_every_tier("sparse matmul", || csr.matmul(&w));
        prop_assert_eq!(bits(&fwd), bits(&x.matmul(&w)));
        let bwd = on_every_tier("sparse matmul_tn", || csr.matmul_tn(&dy));
        prop_assert_eq!(bits(&bwd), bits(&x.matmul_tn(&dy)));
    }
}
