//! Compressed sparse rows and the two kernels a network's input layer
//! runs on them.
//!
//! AutoCAT's observation is a window of one-hot tokens (latency, action,
//! step fraction, victim flag): at most four nonzeros per token, and an
//! unfilled window tail is all zeros.
//! [`SparseRows`] holds such a batch as CSR (`ptr`/`idx`/`val`), and the
//! input layer multiplies only the nonzeros:
//!
//! * [`SparseRows::matmul`] — `y = x·W`. Each output element starts at
//!   `+0` and receives `acc = w·v + acc` (multiply, then add: two
//!   roundings) for every nonzero `v` of its row in ascending column
//!   order: the zero-skipping axpy order. The dense [`Matrix::matmul`]
//!   differs only by the extra products of zero inputs, which are `±0` as
//!   long as the
//!   weights are finite, and a `±0` addend cannot change a sum that
//!   started at `+0` (`+0 + −0 = +0`, and the sum never becomes `−0`).
//!   So under finite weights this equals [`Matrix::matmul`] bit for bit.
//! * [`SparseRows::matmul_tn`] — `dW = xᵀ·dy`, a scatter-add into only
//!   the rows of a zeroed `dW` that the batch touches. Each element
//!   accumulates over batch rows in ascending order, which is
//!   [`Matrix::matmul_tn`]'s zero-skipping order: for a `dy` at least
//!   [`Matrix::MM_COL_BLOCK`] wide the two are equal bit for bit with no
//!   assumption on the values. A narrower `dy` takes `matmul_tn`'s swapped
//!   path, which skips zero `dy` entries instead, so there they are equal
//!   for finite values.
//!
//! Compaction keeps every entry with `v != 0.0`: NaN, infinities and
//! subnormals are kept and `−0` is dropped, exactly the entries the
//! dense kernels' zero test skips. A row's entries depend on that row
//! alone, so a trainer compacts a whole batch once and each shard copies
//! its rows' spans out of it ([`SparseRows::gather_rows`]): the same
//! entries, in the same order, as compacting the shard's dense rows.
//! Both kernels are tier-dispatched through `tiered_kernel!` like the
//! dense ones, and their tiers agree bit for bit (`matmul-bench --check`
//! and `crates/nn/tests/sparse.rs`).

use crate::matrix::{axpy_row, tiered_kernel, Matrix};
use simd::{Isa, SimdF32x16, SimdF32x8};
use std::cell::Cell;

/// A batch of rows in compressed sparse row form: row `r`'s nonzeros are
/// `idx[ptr[r]..ptr[r + 1]]` (ascending column indices) with values
/// `val[..]` at the same positions.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseRows {
    cols: usize,
    ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f32>,
}

impl Default for SparseRows {
    /// An empty batch: zero rows, zero columns.
    fn default() -> Self {
        Self {
            cols: 0,
            ptr: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }
}

/// Width of [`SparseRows::compact`]'s zero test: one test per 16 floats,
/// which is one token of the cache-game observation.
const ZERO_CHUNK: usize = 16;

/// One bit per entry of a chunk of at most 32 floats that compaction
/// keeps (`v != 0.0`). A chunk whose bits are all `±0` costs one test:
/// shifting out the sign bit maps `±0` to 0 and every other value, NaN
/// included, to a nonzero word.
#[inline(always)]
fn kept_mask(chunk: &[f32]) -> u32 {
    if chunk.iter().fold(0, |bits, v| bits | (v.to_bits() << 1)) == 0 {
        return 0;
    }
    chunk
        .iter()
        .enumerate()
        .fold(0u32, |mask, (j, &v)| mask | (u32::from(v != 0.0) << j))
}

/// The number of entries of `row` that compaction keeps.
fn nonzeros(row: &[f32]) -> usize {
    row.chunks(ZERO_CHUNK)
        .map(|chunk| kept_mask(chunk).count_ones() as usize)
        .sum()
}

thread_local! {
    /// The compaction buffer [`with_compacted`] reuses across calls on
    /// this thread. It is taken out while in use, so a nested call would
    /// find an empty one and allocate instead of aliasing it.
    static SCRATCH: Cell<SparseRows> = Cell::new(SparseRows::default());
}

/// Runs `f` on `x` compacted into this thread's reused [`SparseRows`]:
/// the `&self` inference path's stand-in for a cached buffer.
pub(crate) fn with_compacted<T>(x: &Matrix, f: impl FnOnce(&SparseRows) -> T) -> T {
    let mut csr = SCRATCH.take();
    csr.compact(x);
    let out = f(&csr);
    SCRATCH.set(csr);
    out
}

impl SparseRows {
    /// Compacts a dense batch (see [`SparseRows::compact`]).
    pub fn from_dense(x: &Matrix) -> Self {
        let mut csr = Self::default();
        csr.compact(x);
        csr
    }

    /// Refills this batch with the nonzeros of `x`, reusing its storage.
    ///
    /// Keeps every entry with `v != 0.0`, so `−0` is dropped and NaN,
    /// infinities and subnormals are kept. A chunk of 16 floats whose bits
    /// are all `±0` costs one test. The buffers grow to the nonzeros `x`
    /// holds and one row's width to spare: the first row that might not
    /// fit counts what is left, so a reused buffer ends one row wider than
    /// the largest batch's nonzeros, and a batch no larger counts nothing.
    ///
    /// # Panics
    ///
    /// Panics if `x` has more than `u32::MAX` nonzeros or columns.
    pub fn compact(&mut self, x: &Matrix) {
        let cols = x.cols();
        assert!(
            u32::try_from(cols).is_ok(),
            "SparseRows holds at most u32::MAX columns, got {cols}"
        );
        self.cols = cols;
        self.ptr.clear();
        self.idx.clear();
        self.val.clear();
        self.ptr.reserve_exact(x.rows() + 1);
        self.ptr.push(0);
        for r in 0..x.rows() {
            let row = x.row(r);
            if self.idx.len() + row.len() > self.idx.capacity() {
                let rest = row.len() + (r..x.rows()).map(|r| nonzeros(x.row(r))).sum::<usize>();
                self.idx.reserve_exact(rest);
                self.val.reserve_exact(rest);
            }
            for (c, chunk) in row.chunks(ZERO_CHUNK).enumerate() {
                let mut kept = kept_mask(chunk);
                // One step per set bit: no branch on the (unpredictable)
                // position of each one-hot.
                while kept != 0 {
                    let j = kept.trailing_zeros() as usize;
                    kept &= kept - 1;
                    self.idx.push((c * ZERO_CHUNK + j) as u32);
                    self.val.push(chunk[j]);
                }
            }
            self.push_row_end();
        }
    }

    /// Refills this batch with the rows of `src` that `rows` selects, in
    /// that order, reusing its storage: each row's span of column indices
    /// and values is copied as it is, so the result is the compaction of
    /// the dense rows `rows` selects, bit for bit. The buffers grow to
    /// exactly the selection's nonzeros.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range or the selection has more
    /// than `u32::MAX` nonzeros.
    pub fn gather_rows(&mut self, src: &SparseRows, rows: &[usize]) {
        let span = |r: usize| src.ptr[r] as usize..src.ptr[r + 1] as usize;
        let nnz: usize = rows.iter().map(|&r| span(r).len()).sum();
        self.cols = src.cols;
        self.ptr.clear();
        self.idx.clear();
        self.val.clear();
        self.ptr.reserve_exact(rows.len() + 1);
        self.idx.reserve_exact(nnz);
        self.val.reserve_exact(nnz);
        self.ptr.push(0);
        for &r in rows {
            self.idx.extend_from_slice(&src.idx[span(r)]);
            self.val.extend_from_slice(&src.val[span(r)]);
            self.push_row_end();
        }
    }

    /// Closes the row being filled at the current nonzero count.
    fn push_row_end(&mut self) {
        let end =
            u32::try_from(self.idx.len()).expect("SparseRows holds at most u32::MAX nonzeros");
        self.ptr.push(end);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Number of columns of the dense batch this was compacted from.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Row `r`'s column indices (ascending) and values.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let span = self.ptr[r] as usize..self.ptr[r + 1] as usize;
        (&self.idx[span.clone()], &self.val[span])
    }

    /// Expands back to a dense matrix (absent entries are `+0`).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), self.cols);
        for r in 0..self.rows() {
            let (idx, val) = self.row(r);
            let row = out.row_mut(r);
            for (&c, &v) in idx.iter().zip(val) {
                row[c as usize] = v;
            }
        }
        out
    }

    /// Product `self * w` from the nonzeros only; equal bit for bit to
    /// `self.to_dense().matmul(w)` when `w` is finite (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != w.rows()`.
    pub fn matmul(&self, w: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(w, &mut out);
        out
    }

    /// [`SparseRows::matmul`] into `out`, reshaped to the product's shape
    /// and reusing its storage: the same bits, whatever `out` held.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != w.rows()`.
    pub fn matmul_into(&self, w: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            w.rows(),
            "sparse matmul shape mismatch: {}x{} * {}x{}",
            self.rows(),
            self.cols,
            w.rows(),
            w.cols()
        );
        // The kernel writes every element: a row without nonzeros gets
        // its accumulators' `+0`.
        out.set_shape(self.rows(), w.cols());
        sparse_matmul_dispatch(
            &self.ptr,
            &self.idx,
            &self.val,
            w.as_slice(),
            w.cols(),
            out.as_mut_slice(),
        );
    }

    /// Product `selfᵀ * dy` scattered from the nonzeros only; equal bit for
    /// bit to `self.to_dense().matmul_tn(dy)` (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != dy.rows()`.
    pub fn matmul_tn(&self, dy: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_tn_into(dy, &mut out);
        out
    }

    /// [`SparseRows::matmul_tn`] into `out`, reshaped to the product's
    /// shape and reusing its storage: `out` is zeroed and the nonzeros
    /// scattered into it, so the bits are the same whatever it held.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != dy.rows()`.
    pub fn matmul_tn_into(&self, dy: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            dy.rows(),
            "sparse matmul_tn shape mismatch: ({}x{})^T * {}x{}",
            self.rows(),
            self.cols,
            dy.rows(),
            dy.cols()
        );
        out.set_shape(self.cols, dy.cols());
        out.fill_zero();
        self.scatter_tn(dy, out, &mut []);
    }

    /// [`SparseRows::matmul_tn_into`] into a target whose only nonzero
    /// rows are those `touched` lists, when it knows them. A row this
    /// batch scatters into is zeroed just before its first product lands
    /// (its lines are being written anyway), and of the other rows only
    /// those `touched` lists are zeroed; with `touched` unknown the whole
    /// target is. `touched` then lists the rows this scatter wrote. The
    /// same bits as `matmul_tn_into`, without zeroing every row of a wide
    /// input's `dW`.
    pub(crate) fn matmul_tn_into_touched(
        &self,
        dy: &Matrix,
        out: &mut Matrix,
        touched: &mut TouchedRows,
    ) {
        assert_eq!(self.rows(), dy.rows(), "sparse matmul_tn row mismatch");
        let shape = (self.cols, dy.cols());
        let TouchedRows { known, rows, fresh } = touched;
        fresh.clear();
        fresh.resize(self.cols.div_ceil(64), 0);
        for &c in &self.idx {
            fresh[c as usize / 64] |= 1 << (c % 64);
        }
        if *known && (out.rows(), out.cols()) == shape {
            for &r in rows.iter() {
                if fresh[r as usize / 64] & (1 << (r % 64)) == 0 {
                    out.row_mut(r as usize).fill(0.0);
                }
            }
        } else {
            out.set_shape(shape.0, shape.1);
            out.fill_zero();
        }
        rows.clear();
        for (w, &word) in fresh.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                rows.push((w * 64) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        *known = true;
        self.scatter_tn(dy, out, fresh);
    }

    /// `out += selfᵀ·dy` over the nonzeros, `out` already shaped; a row
    /// whose bit is set in `fresh` is zeroed at its first product and its
    /// bit cleared.
    fn scatter_tn(&self, dy: &Matrix, out: &mut Matrix, fresh: &mut [u64]) {
        sparse_matmul_tn_dispatch(
            &self.ptr,
            &self.idx,
            &self.val,
            dy.as_slice(),
            dy.cols(),
            out.as_mut_slice(),
            fresh,
        );
    }
}

/// Which rows of a [`SparseRows::matmul_tn_into_touched`] target may be
/// nonzero: the columns of the last batch scattered into it. Unknown at
/// first and after [`TouchedRows::forget`], when the next scatter zeroes
/// the whole target.
#[derive(Clone, Debug, Default)]
pub(crate) struct TouchedRows {
    known: bool,
    rows: Vec<u32>,
    /// One bit per target row: the rows the current scatter has yet to
    /// write.
    fresh: Vec<u64>,
}

impl TouchedRows {
    /// A target known to be all zero.
    pub(crate) fn none() -> Self {
        Self {
            known: true,
            ..Self::default()
        }
    }

    /// The target was written by something else: zero it in full next.
    pub(crate) fn forget(&mut self) {
        self.known = false;
    }
}

tiered_kernel! {
    /// Tier-dispatched [`sparse_matmul_body`] (CSR rows times dense `w`).
    fn sparse_matmul_dispatch / sparse_matmul_body(
        ptr: &[u32],
        idx: &[u32],
        val: &[f32],
        w: &[f32],
        n: usize,
        out_rows: &mut [f32],
    )
}

tiered_kernel! {
    /// Tier-dispatched [`sparse_matmul_tn_body`] (CSR rows, transposed,
    /// times dense `dy`).
    fn sparse_matmul_tn_dispatch / sparse_matmul_tn_body(
        ptr: &[u32],
        idx: &[u32],
        val: &[f32],
        dy: &[f32],
        n: usize,
        dw: &mut [f32],
        fresh: &mut [u64],
    )
}

/// Serial `x * w` over the CSR rows `ptr` delimits (`ptr.len() - 1` rows,
/// offsets into `idx`/`val`), writing one `n`-wide output row each. Every
/// output element is a register accumulator that starts at `+0` and takes
/// `w[k][j] * v + acc` for the row's nonzeros in ascending `k`. Columns go
/// in groups of four 16-wide blocks (four independent add chains per
/// nonzero), then single 16-wide blocks, one 8-wide block and an
/// ascending scalar tail.
#[inline(always)]
fn sparse_matmul_body<I: Isa>(
    ptr: &[u32],
    idx: &[u32],
    val: &[f32],
    w: &[f32],
    n: usize,
    out_rows: &mut [f32],
) {
    const CB: usize = Matrix::MM_COL_BLOCK;
    const G: usize = 4;
    debug_assert_eq!(CB, I::F16::LANES);
    if n == 0 {
        return;
    }
    for (out, span) in out_rows.chunks_exact_mut(n).zip(ptr.windows(2)) {
        let nz = span[0] as usize..span[1] as usize;
        let (ks, vs) = (&idx[nz.clone()], &val[nz]);
        let mut j0 = 0;
        while j0 + G * CB <= n {
            let mut acc = [I::F16::zero(); G];
            for (&k, &v) in ks.iter().zip(vs) {
                let w_row = &w[k as usize * n + j0..];
                let v = I::F16::splat(v);
                for (g, acc_g) in acc.iter_mut().enumerate() {
                    *acc_g = I::F16::from_slice(&w_row[g * CB..]).mul_add(v, *acc_g);
                }
            }
            for (g, acc_g) in acc.iter().enumerate() {
                acc_g.write_to_slice(&mut out[j0 + g * CB..]);
            }
            j0 += G * CB;
        }
        while j0 + CB <= n {
            let mut acc = I::F16::zero();
            for (&k, &v) in ks.iter().zip(vs) {
                acc = I::F16::from_slice(&w[k as usize * n + j0..]).mul_add(I::F16::splat(v), acc);
            }
            acc.write_to_slice(&mut out[j0..]);
            j0 += CB;
        }
        if j0 + I::F8::LANES <= n {
            let mut acc = I::F8::zero();
            for (&k, &v) in ks.iter().zip(vs) {
                acc = I::F8::from_slice(&w[k as usize * n + j0..]).mul_add(I::F8::splat(v), acc);
            }
            acc.write_to_slice(&mut out[j0..]);
            j0 += I::F8::LANES;
        }
        for (j, o) in out.iter_mut().enumerate().skip(j0) {
            let mut acc = 0.0f32;
            for (&k, &v) in ks.iter().zip(vs) {
                acc += v * w[k as usize * n + j];
            }
            *o = acc;
        }
    }
}

/// `dw += xᵀ * dy` for the CSR rows `ptr` delimits: for every batch row
/// in order and every nonzero `(k, v)` of it, `dw[k] += v * dy[row]` as
/// one axpy, the order of [`Matrix::matmul_tn`]'s zero-skipping kernel
/// for a wide `dy`. A row `k` whose bit is set in `fresh` (missing words
/// count as clear) holds stale values: it is zeroed before its first axpy
/// and its bit cleared, so it too accumulates from `+0`.
#[inline(always)]
fn sparse_matmul_tn_body<I: Isa>(
    ptr: &[u32],
    idx: &[u32],
    val: &[f32],
    dy: &[f32],
    n: usize,
    dw: &mut [f32],
    fresh: &mut [u64],
) {
    if n == 0 {
        return;
    }
    for (dy_row, span) in dy.chunks_exact(n).zip(ptr.windows(2)) {
        let nz = span[0] as usize..span[1] as usize;
        for (&k, &v) in idx[nz.clone()].iter().zip(&val[nz]) {
            let k = k as usize;
            let out = &mut dw[k * n..(k + 1) * n];
            if let Some(word) = fresh.get_mut(k / 64) {
                let bit = 1 << (k % 64);
                if *word & bit != 0 {
                    *word &= !bit;
                    out.fill(0.0);
                }
            }
            axpy_row::<I>(out, v, dy_row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compaction sizes a buffer to the nonzeros it must hold and one
    /// 40-wide row, from empty and from a buffer that overflows partway,
    /// and not at all for a batch that fits; gathering sizes it to exactly
    /// the nonzeros.
    #[test]
    fn buffers_grow_to_the_nonzeros() {
        let dense = |rows: usize, ones: &[(usize, usize)]| {
            let mut x = Matrix::zeros(rows, 40);
            ones.iter().for_each(|&(r, c)| x[(r, c)] = 1.0);
            x
        };
        let seven = dense(
            5,
            &[(0, 3), (0, 17), (1, 39), (3, 0), (3, 1), (3, 2), (4, 20)],
        );
        let capacity = |csr: &SparseRows| (csr.idx.capacity(), csr.val.capacity());
        let mut csr = SparseRows::from_dense(&dense(2, &[(0, 5), (1, 6)]));
        assert_eq!(capacity(&csr), (42, 42));
        csr.compact(&seven);
        assert_eq!(capacity(&csr), (47, 47));
        csr.compact(&dense(1, &[(0, 9)]));
        csr.compact(&seven);
        assert_eq!(capacity(&csr), (47, 47));
        assert_eq!(capacity(&SparseRows::from_dense(&seven)), (47, 47));
        let mut gathered = SparseRows::default();
        gathered.gather_rows(&SparseRows::from_dense(&seven), &[3, 2, 3]);
        assert_eq!((gathered.nnz(), capacity(&gathered)), (6, (6, 6)));
    }
}
