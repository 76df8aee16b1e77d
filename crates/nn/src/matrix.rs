//! Dense row-major `f32` matrix with the kernels needed by the layers.
//!
//! # Kernel layer
//!
//! The matmul-family kernels are written once as `#[inline(always)]`
//! bodies generic over a [`simd::Isa`] (the per-tier 8- and 16-lane
//! vector backend) and instantiated per instruction-set tier under
//! `#[target_feature]` wrappers (see the `tiered_kernel!` macro below).
//! Every vector op
//! is lane-wise IEEE single precision with `mul_add` defined as
//! multiply-then-add (two roundings, never fused), and cross-lane
//! reductions go through the shim's fixed documented tree — so the
//! scalar, AVX2, and AVX-512 tiers produce **identical bits** and differ
//! only in speed. The scalar tier is also available as a compile-time
//! build via the `scalar-fallback` cargo feature; CI gates
//! simd-vs-fallback bit-identity.
//!
//! The canonical (bit-defining) accumulation orders are:
//!
//! * [`Matrix::matmul`] / [`Matrix::matmul_tn`]: vectorized across output
//!   *columns*, so each output element still accumulates its products in
//!   ascending-`k` order — unchanged from the pre-SIMD scalar kernels.
//! * [`Matrix::matmul_nt`]: each output element is `dot_canonical` —
//!   8-lane partial sums over `k` (lane `l` holds `k ≡ l (mod 8)`) in four
//!   stripes, combined with [`simd::f32x8::reduce_add`]'s fixed tree, then
//!   the ascending scalar tail. This order replaced the old linear-`k`
//!   scalar order when the kernels were vectorized; training digests were
//!   re-pinned once at that point.
//!
//! Outputs narrower than one 16-lane vector (the policy and value heads)
//! keep these orders with full vectors: `matmul` runs its register-blocked
//! kernel over one 16-wide block and drops the dead columns, `matmul_tn`
//! computes the transposed product so its axpys span the wide side, and
//! `matmul_nt` evaluates `dot_canonical` for 16 outputs at once. The
//! operand copies and packs these need live in per-thread scratch that is
//! reused across calls; a weight that many products read transposed is
//! packed once instead ([`NtPanels`]).

use simd::{Isa, SimdF32x16, SimdF32x8};
use std::cell::Cell;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::thread::LocalKey;

/// A dense row-major matrix of `f32` values.
///
/// This is intentionally small: just the operations the manual-backprop
/// layers in [`crate::layers`] need, implemented straightforwardly. All
/// shape mismatches panic — inside a training loop a shape mismatch is a
/// programming error, not a recoverable condition.
#[derive(Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Reuses `self`'s storage, so refilling a long-lived buffer from a
    /// same-sized matrix does not allocate.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Row-block size of the register-blocked [`Matrix::matmul`] kernel.
    pub const MM_ROW_BLOCK: usize = 4;
    /// Column-block size of the register-blocked [`Matrix::matmul`] kernel.
    pub const MM_COL_BLOCK: usize = 16;
    /// Creates a `rows` x `cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows` x `cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a 1 x `n` row matrix from a slice.
    pub fn from_row(row: &[f32]) -> Self {
        Self::from_vec(1, row.len(), row.to_vec())
    }

    /// Creates a matrix from nested row slices — how the batched evaluator
    /// assembles the live-lane observation batch each step (the rows of
    /// quiet lanes are simply absent).
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row lengths");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the underlying row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new matrix consisting of the given rows (gather).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &idx in indices {
            data.extend_from_slice(self.row(idx));
        }
        Matrix::from_vec(indices.len(), self.cols, data)
    }

    /// Reshapes to `rows x cols`, reusing the storage. The elements keep
    /// whatever the storage held (zero past its old length): for callers
    /// that write every element next.
    pub(crate) fn set_shape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self * other`.
    ///
    /// Row blocks of [`Self::MM_ROW_BLOCK`] rows are packed k-major and
    /// multiplied with a register-blocked kernel: [`Self::MM_COL_BLOCK`]
    /// output columns accumulate in registers while each loaded `other`
    /// value serves the whole row block, so batched forwards (many rows per
    /// call) amortize the weight traffic that dominates one-row inference.
    /// Narrow outputs (`n < MM_COL_BLOCK`: the value head, small policy
    /// heads) run the same kernel as one `MM_COL_BLOCK`-wide block over a
    /// copy of `other` with a zero tail, and keep the `n` live columns.
    ///
    /// Every output element starts at `+0` and takes `a·b + acc` for each
    /// `k` in ascending order, zero inputs included. A zero input's product
    /// is `±0` while `other` is finite, and a `±0` addend cannot change a
    /// sum that started at `+0`, so the result also equals the
    /// zero-skipping order of [`crate::SparseRows::matmul`], which sparse
    /// inputs (one-hot observations) go through.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into `out`, reshaped to the product's shape and
    /// reusing its storage: the same bits, and no allocation once `out`
    /// has held a product at least this large.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        const CB: usize = Matrix::MM_COL_BLOCK;
        let (m, inner, n) = (self.rows, self.cols, other.cols);
        out.set_shape(m, n);
        if inner == 0 || n == 0 {
            out.fill_zero(); // every element is the empty sum, +0
            return;
        }
        let mut run = |b: &[f32]| self.matmul_rows(b, n, &mut out.data);
        if n >= CB {
            run(&other.data);
        } else {
            // The narrow kernel reads each row of `other` as one 16-lane
            // vector; the lanes past its end, and past the last row into a
            // zero tail, are dropped.
            with_scratch(&OPERAND_SCRATCH, other.len() + CB, |copy| {
                copy[..other.len()].copy_from_slice(&other.data);
                run(copy);
            });
        }
    }

    /// Serial matmul kernel writing all `self.rows() * n` output values.
    /// `b` is `other`'s data, followed by a zero tail when
    /// `n < MM_COL_BLOCK`. The pack and the narrow path's staged block come
    /// from this thread's scratch.
    fn matmul_rows(&self, b: &[f32], n: usize, out: &mut [f32]) {
        const RB: usize = Matrix::MM_ROW_BLOCK;
        const CB: usize = Matrix::MM_COL_BLOCK;
        // A one-row call takes the kernel's pack-free fast path.
        let pack = if self.rows > 1 { RB * self.cols } else { 0 };
        let staged = if n < CB { RB * CB } else { 0 };
        with_scratch(&KERNEL_SCRATCH, pack + staged, |work| {
            let (pack, staged) = work.split_at_mut(pack);
            let (a, inner) = (&self.data, self.cols);
            if n >= CB {
                matmul_rows_dispatch(a, b, inner, n, out, pack);
            } else {
                matmul_narrow_rows_dispatch(a, b, inner, n, out, pack, staged);
            }
        });
    }

    /// Matrix product `self^T * other` without materializing the transpose.
    ///
    /// Each output element starts at `+0` and accumulates its products in
    /// ascending shared-row order, skipping zero `self` entries. A narrow
    /// `other` (`n < MM_COL_BLOCK`: the heads' `dW = hᵀ·dy`) is computed
    /// as `(otherᵀ·self)ᵀ` instead, in this thread's scratch, so each axpy
    /// runs across the wide side. That skips zero `other` entries rather
    /// than zero `self` entries: the same bits while both operands are
    /// finite (see [`Matrix::matmul`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] into `out`, reshaped to the product's shape
    /// and reusing its storage: the same bits, whatever `out` held.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        out.set_shape(m, n);
        if k == 0 || m == 0 || n == 0 || n >= Matrix::MM_COL_BLOCK {
            // The wide kernel accumulates from `+0`; with no shared rows
            // every element is the empty sum.
            out.fill_zero();
            self.matmul_tn_cols(other, &mut out.data);
            return;
        }
        // Narrow: (otherᵀ·self)ᵀ, so each axpy runs across the wide side.
        with_scratch(&OPERAND_SCRATCH, n * m, |swapped| {
            other.matmul_tn_cols(self, swapped);
            for (j, col) in swapped.chunks_exact(m).enumerate() {
                for (out_row, &v) in out.data.chunks_exact_mut(n).zip(col) {
                    out_row[j] = v;
                }
            }
        });
    }

    /// Serial `self^T * other` kernel writing all `self.cols() *
    /// other.cols()` output values.
    fn matmul_tn_cols(&self, other: &Matrix, out: &mut [f32]) {
        matmul_tn_dispatch(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            out,
        );
    }

    /// Matrix product `self * other^T` without materializing the transpose.
    ///
    /// Each output element is the striped dot product over the shared `k`
    /// axis that `dot_canonical` documents: 8-lane partial sums in four
    /// stripes, combined in a fixed tree, then an ascending tail. That
    /// order is the *definition* of this kernel's result — identical
    /// across tiers, thread counts, and the scalar-fallback build.
    ///
    /// With at least [`Self::MM_COL_BLOCK`] rows and outputs, the kernel
    /// evaluates that order for 16 outputs at once (`dot_canonical_lanes`)
    /// against `other^T`, copied into this thread's scratch as 16-wide
    /// panels. The copy is one scalar pass over `other`, which fewer rows
    /// do not amortize, and fewer outputs would leave most lanes idle; such
    /// shapes take one `dot_canonical` per output element instead.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] into `out`, reshaped to the product's shape
    /// and reusing its storage: the same bits, whatever `out` held.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        const CB: usize = Matrix::MM_COL_BLOCK;
        let (m, cols, n) = (self.rows, self.cols, other.rows);
        out.set_shape(m, n);
        if cols == 0 || n == 0 {
            out.fill_zero(); // every element is the empty sum, +0
            return;
        }
        if m < CB || n < CB {
            matmul_nt_dispatch(&self.data, cols, &other.data, n, &mut out.data);
            return;
        }
        with_scratch(&OPERAND_SCRATCH, cols * n.next_multiple_of(CB), |panels| {
            other.pack_nt_panels(panels);
            matmul_nt_panels_dispatch(&self.data, cols, panels, n, &mut out.data);
        });
    }

    /// [`Matrix::matmul_nt_into`] against `other^T` packed ahead of the
    /// call ([`NtPanels::pack`]), for a weight many products read: the
    /// same panel kernel on the same panels, and so the same bits, with
    /// no pack per call. Fewer than [`Self::MM_COL_BLOCK`] rows or outputs
    /// run the panel kernel too: its lanes keep `dot_canonical`'s order,
    /// so they give the per-element path's bits.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt_packed_into(&self, other: &NtPanels, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, cols, n) = (self.rows, self.cols, other.rows);
        out.set_shape(m, n);
        if cols == 0 || n == 0 {
            out.fill_zero(); // every element is the empty sum, +0
            return;
        }
        matmul_nt_panels_dispatch(&self.data, cols, &other.data, n, &mut out.data);
    }

    /// Writes `self^T` into the zeroed `out` as column panels of
    /// [`Self::MM_COL_BLOCK`] rows of `self` each: panel `p` holds rows
    /// `16p..16p + 16` k-major (`out[p * cols * 16 + k * 16 + j] =
    /// self[16p + j][k]`), zero-padded past the last row. This is the
    /// operand layout [`Matrix::matmul_nt`]'s kernel reads.
    fn pack_nt_panels(&self, out: &mut [f32]) {
        const CB: usize = Matrix::MM_COL_BLOCK;
        for (rows, panel) in self
            .data
            .chunks(CB * self.cols)
            .zip(out.chunks_exact_mut(CB * self.cols))
        {
            for (j, row) in rows.chunks_exact(self.cols).enumerate() {
                for (&v, dst) in row.iter().zip(panel.chunks_exact_mut(CB)) {
                    dst[j] = v;
                }
            }
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "add_assign");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale(&mut self, scale: f32) {
        for a in &mut self.data {
            *a *= scale;
        }
    }

    /// Adds a row vector to every row in place (broadcast add).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, b) in row.iter_mut().zip(bias.iter()) {
                *a += b;
            }
        }
    }

    /// Sums over rows, returning a vector of length `cols`.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] written into `out`: each element is `+0`, then
    /// the rows added in order.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.cols()`.
    pub fn sum_rows_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "sum_rows length mismatch");
        out.fill(0.0);
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
    }

    /// Mean over rows, returning a vector of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has zero rows.
    pub fn mean_rows(&self) -> Vec<f32> {
        assert!(self.rows > 0, "mean_rows on empty matrix");
        let mut out = self.sum_rows();
        let inv = 1.0 / self.rows as f32;
        for o in &mut out {
            *o *= inv;
        }
        out
    }

    /// Row-wise softmax, returning a new matrix.
    ///
    /// Numerically stabilized by subtracting the row max.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            softmax_inplace(row);
        }
        out
    }

    /// Fills the matrix with zeros.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "{} shape mismatch: {}x{} vs {}x{}",
            op,
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

/// A matrix's transpose packed as [`Matrix::matmul_nt`]'s panel kernel
/// reads it: what [`Matrix::matmul_nt_packed_into`] multiplies by. A
/// training pass packs each weight its backward reads transposed once per
/// minibatch, and every shard's `dx = dy·Wᵀ` reads the one pack; it is
/// stale once the weight changes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NtPanels {
    /// Rows of the packed matrix: the product's output width.
    rows: usize,
    /// Columns of the packed matrix: the product's shared axis.
    cols: usize,
    data: Vec<f32>,
}

impl NtPanels {
    /// Packs `w`, reusing this pack's storage.
    pub fn pack(&mut self, w: &Matrix) {
        const CB: usize = Matrix::MM_COL_BLOCK;
        self.rows = w.rows;
        self.cols = w.cols;
        self.data.clear();
        self.data.resize(w.cols * w.rows.next_multiple_of(CB), 0.0);
        w.pack_nt_panels(&mut self.data);
    }

    /// `(rows, cols)` of the packed matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

thread_local! {
    /// A reshaped copy of one kernel operand or result:
    /// [`Matrix::matmul`]'s narrow `other` with a zero tail,
    /// [`Matrix::matmul_nt`]'s `other^T` panels and [`Matrix::matmul_tn`]'s
    /// swapped narrow product.
    static OPERAND_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// The workspace of one [`Matrix::matmul`] call: the k-major pack and
    /// the narrow path's staged output block.
    static KERNEL_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on this thread's `key` buffer, zeroed to `len` elements. The
/// buffer keeps its capacity across calls, so the kernels stop allocating
/// once a thread has seen its largest shape. It is taken out while in
/// use: a nested call on the same key allocates instead of aliasing it.
fn with_scratch<T>(
    key: &'static LocalKey<Cell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> T,
) -> T {
    let mut buf = key.take();
    buf.clear();
    buf.resize(len, 0.0);
    let out = f(&mut buf);
    key.set(buf);
    out
}

/// Instantiates one generic kernel body per SIMD tier and dispatches on
/// [`simd::tier()`]. Each tier pairs a `#[target_feature]` wrapper with
/// that tier's [`simd::Isa`] vector backend: the body (and every helper it
/// calls) is `#[inline(always)]`, so LLVM flattens the whole kernel into
/// the wrapper and the backend's intrinsics become single 256/512-bit
/// instructions there. (Instantiating the plain-array backend under the
/// wrappers is not enough — LLVM refuses to form 512-bit ops for array
/// loops and length-specializes them into spill-heavy code, which is why
/// the backends exist.) The arithmetic is lane-wise IEEE in every backend
/// (see the `simd` crate docs), so the tiers differ only in speed —
/// bit-identity across tiers is asserted by tests and the
/// `matmul-bench --check` CI gate.
macro_rules! tiered_kernel {
    (
        $(#[$meta:meta])*
        $vis:vis fn $dispatch:ident / $body:ident ( $($arg:ident : $ty:ty),* $(,)? )
            $(-> $ret:ty)?
    ) => {
        $(#[$meta])*
        #[allow(clippy::too_many_arguments)] // mirrors the kernel body signature
        $vis fn $dispatch($($arg: $ty),*) $(-> $ret)? {
            #[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
            {
                // SAFETY: unsafe only because of `#[target_feature]` — the
                // body is safe code; callers must guarantee AVX/AVX2 are
                // available (the dispatch below does, via CPUID).
                #[target_feature(enable = "avx,avx2")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body::<simd::Avx2Isa>($($arg),*)
                }
                // SAFETY: as for `avx2`, with AVX-512F/VL additionally
                // required of the caller.
                #[target_feature(enable = "avx,avx2,avx512f,avx512vl")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx512($($arg: $ty),*) $(-> $ret)? {
                    $body::<simd::Avx512Isa>($($arg),*)
                }
                match simd::tier() {
                    // SAFETY: `simd::tier()` reports a SIMD tier only after
                    // runtime CPUID detection (forced tiers re-assert
                    // detection), so the enabled features are present.
                    simd::Tier::Avx2 => return unsafe { avx2($($arg),*) },
                    // SAFETY: same detection argument, AVX-512 tier.
                    simd::Tier::Avx512 => return unsafe { avx512($($arg),*) },
                    simd::Tier::Scalar => {}
                }
            }
            $body::<simd::ScalarIsa>($($arg),*)
        }
    };
}
// `math::tanh_in_place`, `grad::reduce_sq_sum` and `optim::adam_update`
// are dispatched through the same macro.
pub(crate) use tiered_kernel;

tiered_kernel! {
    /// Tier-dispatched [`matmul_rows_body`] (serial `a * b`).
    fn matmul_rows_dispatch / matmul_rows_body(
        a: &[f32],
        b: &[f32],
        inner: usize,
        n: usize,
        out: &mut [f32],
        pack: &mut [f32],
    )
}

tiered_kernel! {
    /// Tier-dispatched [`matmul_narrow_rows_body`] (serial `a * b`, for `b`
    /// narrower than one column block).
    fn matmul_narrow_rows_dispatch / matmul_narrow_rows_body(
        a: &[f32],
        b: &[f32],
        inner: usize,
        n: usize,
        out: &mut [f32],
        pack: &mut [f32],
        staged: &mut [f32],
    )
}

tiered_kernel! {
    /// Tier-dispatched [`matmul_tn_body`] (serial `a^T * b`).
    fn matmul_tn_dispatch / matmul_tn_body(
        a: &[f32],
        a_rows: usize,
        a_cols: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    )
}

tiered_kernel! {
    /// Tier-dispatched [`matmul_nt_body`] (serial `a * b^T`).
    fn matmul_nt_dispatch / matmul_nt_body(
        a: &[f32],
        cols: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    )
}

tiered_kernel! {
    /// Tier-dispatched [`matmul_nt_panels_body`] (serial `a * b^T`, against
    /// `b^T` in 16-wide panels).
    fn matmul_nt_panels_dispatch / matmul_nt_panels_body(
        a: &[f32],
        cols: usize,
        panels: &[f32],
        n: usize,
        out: &mut [f32],
    )
}

/// Lane-wise `out[j] += a * b[j]` across a full row: 16-lane main loop,
/// one optional 8-lane step, then an ascending scalar tail. Per output
/// element this is exactly one mul and one add in the caller's `k` order —
/// bit-identical to the scalar loop it replaced, at any vector width.
#[inline(always)]
pub(crate) fn axpy_row<I: Isa>(out: &mut [f32], a: f32, b: &[f32]) {
    let n16 = out.len() & !(I::F16::LANES - 1);
    let av16 = I::F16::splat(a);
    for (oc, bc) in out[..n16]
        .chunks_exact_mut(I::F16::LANES)
        .zip(b[..n16].chunks_exact(I::F16::LANES))
    {
        I::F16::from_slice(bc)
            .mul_add(av16, I::F16::from_slice(oc))
            .write_to_slice(oc);
    }
    let mut j = n16;
    if j + I::F8::LANES <= out.len() {
        I::F8::from_slice(&b[j..])
            .mul_add(I::F8::splat(a), I::F8::from_slice(&out[j..]))
            .write_to_slice(&mut out[j..]);
        j += I::F8::LANES;
    }
    for (o, &bv) in out[j..].iter_mut().zip(b[j..].iter()) {
        *o += a * bv;
    }
}

/// Canonical dot product defining [`Matrix::matmul_nt`]'s result.
///
/// Four `f32x8` stripe accumulators: 8-element chunk `c` of the shared
/// axis accumulates into stripe `c mod 4` as `a·b + acc` from `+0` (the
/// stripes exist to break the loop-carried add-latency chain a single
/// accumulator would serialize on). The stripes then combine **lane-wise**
/// in the fixed pair order `((s0+s1) + (s2+s3))`, the 8 lanes collapse via
/// [`simd::SimdF32x8::reduce_add`]'s fixed tree
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, and the sub-chunk tail is
/// added as `sum + a·b` in ascending `k` order. Every step is pinned, so
/// the result is identical across tiers, thread counts, and the
/// scalar-fallback build; [`dot_canonical_lanes`] computes the same order
/// for 16 outputs at once.
#[inline(always)]
fn dot_canonical<I: Isa>(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    const S: usize = 4;
    const L: usize = 8;
    debug_assert_eq!(L, I::F8::LANES);
    let mut acc = [I::F8::zero(); S];
    // Main loop: S chunks per iteration, one per stripe.
    let k_blk = (a.len() / (S * L)) * (S * L);
    for (ac, bc) in a[..k_blk]
        .chunks_exact(S * L)
        .zip(b[..k_blk].chunks_exact(S * L))
    {
        for (s, acc_s) in acc.iter_mut().enumerate() {
            *acc_s =
                I::F8::from_slice(&ac[s * L..]).mul_add(I::F8::from_slice(&bc[s * L..]), *acc_s);
        }
    }
    // Leftover full chunks keep the same rule: chunk c -> stripe c mod 4
    // (their global chunk indices continue from the blocked prefix).
    let k8 = (a.len() / L) * L;
    for (s, (ac, bc)) in a[k_blk..k8]
        .chunks_exact(L)
        .zip(b[k_blk..k8].chunks_exact(L))
        .enumerate()
    {
        acc[s] = I::F8::from_slice(ac).mul_add(I::F8::from_slice(bc), acc[s]);
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])).reduce_add();
    for (&x, &y) in a[k8..].iter().zip(b[k8..].iter()) {
        sum += x * y;
    }
    sum
}

/// [`dot_canonical`] evaluated for 16 outputs at once: lane `j` of the
/// result is the canonical dot product of `a` and `b_j`, where
/// `panel[k * 16 + j]` holds `b_j[k]`.
///
/// Per output, element `k` of 8-element chunk `c = k / 8` accumulates
/// into stripe `c mod 4`, lane `k mod 8`, as `a·b + acc` from `+0`
/// (the four stripes break the loop-carried add chain). The stripes
/// combine per lane as `(s0+s1) + (s2+s3)`, the 8 lanes in the fixed tree
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` (the order of
/// [`simd::SimdF32x8::reduce_add`]), and the sub-chunk tail is added as
/// `sum + a·b` in ascending `k`. Under 8 elements every accumulator is
/// `+0`, so the tree is `+0` and only the tail remains. Every step and
/// operand order is pinned, so the result is identical across tiers,
/// thread counts and the scalar-fallback build.
#[inline(always)]
fn dot_canonical_lanes<I: Isa>(a: &[f32], panel: &[f32]) -> I::F16 {
    const L: usize = 8;
    const CB: usize = Matrix::MM_COL_BLOCK;
    let k8 = a.len() / L * L;
    let mut sum = I::F16::zero();
    if k8 > 0 {
        // Plain `#[inline(always)]` calls, not closures: a closure is a
        // separate function that need not inline into the
        // `#[target_feature]` wrapper, and outside it the vector types
        // compile to slow emulation.
        let lo = (stripe_lane::<I>(a, panel, 0) + stripe_lane::<I>(a, panel, 1))
            + (stripe_lane::<I>(a, panel, 2) + stripe_lane::<I>(a, panel, 3));
        let hi = (stripe_lane::<I>(a, panel, 4) + stripe_lane::<I>(a, panel, 5))
            + (stripe_lane::<I>(a, panel, 6) + stripe_lane::<I>(a, panel, 7));
        sum = lo + hi;
    }
    for (&x, b) in a[k8..].iter().zip(panel[k8 * CB..].chunks_exact(CB)) {
        sum = sum + I::F16::splat(x) * I::F16::from_slice(b);
    }
    sum
}

/// Lane `l` of [`dot_canonical_lanes`]'s 8-lane partial sums, for 16
/// outputs: its four stripes accumulated over every full chunk, then
/// combined as `(s0+s1) + (s2+s3)`.
#[inline(always)]
fn stripe_lane<I: Isa>(a: &[f32], panel: &[f32], l: usize) -> I::F16 {
    const S: usize = 4;
    const L: usize = 8;
    const CB: usize = Matrix::MM_COL_BLOCK;
    let mut acc = [I::F16::zero(); S];
    // Main loop: S chunks per iteration, one per stripe.
    let a_groups = a.chunks_exact(S * L);
    let (a_rest, panel_rest) = (
        a_groups.remainder(),
        &panel[a.len() / (S * L) * S * L * CB..],
    );
    for (ag, pg) in a_groups.zip(panel.chunks_exact(S * L * CB)) {
        for (s, acc_s) in acc.iter_mut().enumerate() {
            let k = s * L + l;
            *acc_s = I::F16::splat(ag[k]).mul_add(I::F16::from_slice(&pg[k * CB..]), *acc_s);
        }
    }
    // Leftover full chunks keep the rule: chunk c -> stripe c mod 4.
    for (acc_s, (ac, pc)) in acc
        .iter_mut()
        .zip(a_rest.chunks_exact(L).zip(panel_rest.chunks_exact(L * CB)))
    {
        *acc_s = I::F16::splat(ac[l]).mul_add(I::F16::from_slice(&pc[l * CB..]), *acc_s);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Serial matmul kernel body: every row block goes through
/// [`dense_block_matmul`], with `pack` as its k-major repack (empty for a
/// one-row call).
#[inline(always)]
fn matmul_rows_body<I: Isa>(
    a: &[f32],
    b: &[f32],
    inner: usize,
    n: usize,
    out: &mut [f32],
    pack: &mut [f32],
) {
    const RB: usize = Matrix::MM_ROW_BLOCK;
    for (block_a, out_block) in a.chunks(RB * inner).zip(out.chunks_mut(RB * n)) {
        let rb = out_block.len() / n;
        dense_block_matmul::<I>(block_a, b, out_block, rb, inner, n, n, pack);
    }
}

/// [`matmul_rows_body`] for a narrow `n < MM_COL_BLOCK`, run as one
/// `MM_COL_BLOCK`-wide block: row `k`'s 16 lanes are read from
/// `b[k * n..]`, so lanes past `n` hold the next rows' values (`b` ends
/// in a zero tail for the last rows) and are dropped. Each block's output
/// lands in `staged` and only its `n` live columns are kept. A kernel of
/// its own: inlined beside the wide loop in one function, it cost that
/// loop a register and 20–30% on wide shapes.
#[inline(always)]
fn matmul_narrow_rows_body<I: Isa>(
    a: &[f32],
    b: &[f32],
    inner: usize,
    n: usize,
    out: &mut [f32],
    pack: &mut [f32],
    staged: &mut [f32],
) {
    const RB: usize = Matrix::MM_ROW_BLOCK;
    const CB: usize = Matrix::MM_COL_BLOCK;
    for (block_a, out_block) in a.chunks(RB * inner).zip(out.chunks_mut(RB * n)) {
        let rb = out_block.len() / n;
        let staged = &mut staged[..rb * CB];
        dense_block_matmul::<I>(block_a, b, staged, rb, inner, CB, n, pack);
        for (dst, src) in out_block.chunks_exact_mut(n).zip(staged.chunks_exact(CB)) {
            dst.copy_from_slice(&src[..n]);
        }
    }
}

/// Serial `a^T * b` kernel body (output rows = columns of `a`): k-row
/// outer loop, zero-skipping axpy across output columns.
#[inline(always)]
fn matmul_tn_body<I: Isa>(
    a: &[f32],
    a_rows: usize,
    a_cols: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    for k in 0..a_rows {
        let a_row = &a[k * a_cols..(k + 1) * a_cols];
        let b_row = &b[k * n..(k + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            axpy_row::<I>(&mut out[i * n..(i + 1) * n], av, b_row);
        }
    }
}

/// Serial `a * b^T` kernel body: every output element is one
/// `dot_canonical` over the shared `cols` axis.
#[inline(always)]
fn matmul_nt_body<I: Isa>(a: &[f32], cols: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for (a_row, out_row) in a.chunks_exact(cols).zip(out.chunks_exact_mut(n)) {
        for (j, out) in out_row.iter_mut().enumerate() {
            *out = dot_canonical::<I>(a_row, &b[j * cols..(j + 1) * cols]);
        }
    }
}

/// Serial `a * b^T` kernel body. `panels` holds `b^T` as [`Matrix::MM_COL_BLOCK`]-wide column panels (see
/// [`Matrix::pack_nt_panels`]): each run of 16 outputs of a row is one
/// [`dot_canonical_lanes`] against its panel, and a last partial run keeps
/// only its live lanes. Panels go outermost so one stays in cache across
/// the rows.
#[inline(always)]
fn matmul_nt_panels_body<I: Isa>(
    a: &[f32],
    cols: usize,
    panels: &[f32],
    n: usize,
    out: &mut [f32],
) {
    const CB: usize = Matrix::MM_COL_BLOCK;
    for (j0, panel) in (0..n).step_by(CB).zip(panels.chunks_exact(cols * CB)) {
        let live = (n - j0).min(CB);
        for (a_row, out_row) in a.chunks_exact(cols).zip(out.chunks_exact_mut(n)) {
            let dots = dot_canonical_lanes::<I>(a_row, panel);
            if live == CB {
                dots.write_to_slice(&mut out_row[j0..]);
            } else {
                let mut staged = [0.0f32; CB];
                dots.write_to_slice(&mut staged);
                out_row[j0..].copy_from_slice(&staged[..live]);
            }
        }
    }
}

/// Dense register-blocked micro-kernel behind [`Matrix::matmul`]: computes
/// `out_block = a_block * b` for a block of `rb <= MM_ROW_BLOCK` rows and
/// `n` output columns, reading row `k` of `b` at `b[k * ldb..]`.
/// `a_block` is repacked k-major into `pack` so the inner loop reads it
/// contiguously; one 16-lane accumulator per row covers a full
/// [`Matrix::MM_COL_BLOCK`]-column block (a 512-bit register each on the
/// AVX-512 tier) and stays live across the whole k walk, so each loaded
/// `b` vector serves the entire row block. Column handling is full
/// 16-wide blocks, then one 8-wide block, then an ascending scalar tail —
/// every output element accumulates in ascending-`k` order regardless of
/// which section it lands in (and of the vector width that carries it).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat-slice kernel ABI: dims are positional
fn dense_block_matmul<I: Isa>(
    a_block: &[f32],
    b: &[f32],
    out_block: &mut [f32],
    rb: usize,
    inner: usize,
    n: usize,
    ldb: usize,
    pack: &mut [f32],
) {
    const RB: usize = Matrix::MM_ROW_BLOCK;
    const CB: usize = Matrix::MM_COL_BLOCK;
    const L: usize = 8;
    debug_assert!(rb <= RB && (rb == 1 || pack.len() >= RB * inner));
    debug_assert_eq!(CB, I::F16::LANES);
    debug_assert_eq!(L, I::F8::LANES);
    if rb == 1 {
        // One row is already k-contiguous; packing would only add traffic.
        let a_row = &a_block[..inner];
        let mut j0 = 0;
        while j0 + CB <= n {
            let mut acc = I::F16::zero();
            for (k, &a) in a_row.iter().enumerate() {
                acc = I::F16::from_slice(&b[k * ldb + j0..]).mul_add(I::F16::splat(a), acc);
            }
            acc.write_to_slice(&mut out_block[j0..]);
            j0 += CB;
        }
        if j0 + L <= n {
            let mut acc = I::F8::zero();
            for (k, &a) in a_row.iter().enumerate() {
                acc = I::F8::from_slice(&b[k * ldb + j0..]).mul_add(I::F8::splat(a), acc);
            }
            acc.write_to_slice(&mut out_block[j0..]);
            j0 += L;
        }
        for (j, out) in out_block.iter_mut().enumerate().skip(j0) {
            let mut acc = 0.0f32;
            for (k, &a) in a_row.iter().enumerate() {
                acc += a * b[k * ldb + j];
            }
            *out = acc;
        }
        return;
    }
    // Repack k-major: pack[k*RB + r] = a_block[r*inner + k]; unused rows of
    // a partial block are zero so the kernel below needs no edge cases.
    for k in 0..inner {
        for r in 0..RB {
            pack[k * RB + r] = if r < rb { a_block[r * inner + k] } else { 0.0 };
        }
    }
    let pack = &pack[..inner * RB];
    let mut j0 = 0;
    while j0 + CB <= n {
        let mut acc = [I::F16::zero(); RB];
        for (k, av) in pack.chunks_exact(RB).enumerate() {
            let bv = I::F16::from_slice(&b[k * ldb + j0..]);
            for (acc_r, &a) in acc.iter_mut().zip(av.iter()) {
                *acc_r = bv.mul_add(I::F16::splat(a), *acc_r);
            }
        }
        for (r, acc_r) in acc.iter().enumerate().take(rb) {
            acc_r.write_to_slice(&mut out_block[r * n + j0..]);
        }
        j0 += CB;
    }
    if j0 + L <= n {
        let mut acc = [I::F8::zero(); RB];
        for (k, av) in pack.chunks_exact(RB).enumerate() {
            let bv = I::F8::from_slice(&b[k * ldb + j0..]);
            for (acc_r, &a) in acc.iter_mut().zip(av.iter()) {
                *acc_r = bv.mul_add(I::F8::splat(a), *acc_r);
            }
        }
        for (r, acc_r) in acc.iter().enumerate().take(rb) {
            acc_r.write_to_slice(&mut out_block[r * n + j0..]);
        }
        j0 += L;
    }
    for j in j0..n {
        let mut acc = [0.0f32; RB];
        for (k, av) in pack.chunks_exact(RB).enumerate() {
            let bv = b[k * ldb + j];
            for (acc_r, &a) in acc.iter_mut().zip(av.iter()) {
                *acc_r += a * bv;
            }
        }
        for (r, &acc_r) in acc.iter().enumerate().take(rb) {
            out_block[r * n + j] = acc_r;
        }
    }
}

/// In-place numerically-stable softmax over a slice: `e_i = exp(l_i −
/// max)` once per element, then each scaled by `1 / Σ e` (left
/// unnormalised when that sum is not positive, e.g. NaN). Returns the row
/// max and the sum `Σ e`, from which the log-sum-exp is `max + ln(Σ e)`
/// (see [`crate::Categorical`]).
pub fn softmax_inplace(row: &mut [f32]) -> (f32, f32) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    (max, sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_and_index() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 1)], 4.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    /// Naive triple loop, the correctness oracle for the blocked kernel.
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_matches_naive_across_shapes() {
        // Exercise every block-edge case: under, exactly at, and past the
        // 4x16 register blocks, plus single rows/cols and sparse inputs.
        let shapes = [
            (1, 1, 1),
            (1, 384, 128),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 33),
            (8, 128, 11),
            (9, 2, 50),
        ];
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        for &(m, k, n) in &shapes {
            let mut a = Matrix::zeros(m, k);
            for v in a.as_mut_slice() {
                // Half the entries zero to exercise the sparsity skip.
                let x = next();
                *v = if x > 0.0 { x } else { 0.0 };
            }
            let mut b = Matrix::zeros(k, n);
            for v in b.as_mut_slice() {
                *v = next();
            }
            let fast = a.matmul(&b);
            let naive = matmul_naive(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(naive.as_slice().iter()) {
                assert!((x - y).abs() < 1e-4, "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-1.0, 2.0]]);
        let via_tn = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        assert_eq!(via_tn, explicit);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, 2.0], &[-1.0, 2.0, 0.0]]);
        let via_nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose());
        assert_eq!(via_nt, explicit);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotonicity: larger logits -> larger probabilities.
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
    }

    #[test]
    fn softmax_stability_with_large_values() {
        let m = Matrix::from_row(&[1000.0, 1000.0, 999.0]);
        let s = m.softmax_rows();
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        let sum: f32 = s.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sum_rows_and_mean_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum_rows(), vec![4.0, 6.0]);
        assert_eq!(m.mean_rows(), vec![2.0, 3.0]);
    }

    #[test]
    fn add_row_broadcast() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn gather_rows_selects_rows() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = m.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[3.0, 1.0]);
    }

    /// The `_into` products reshape a reused buffer that holds stale values
    /// of another shape and write the fresh product's bits, on every
    /// kernel path: wide and narrow `matmul` and `matmul_tn`, the panel
    /// and the per-element `matmul_nt`, and the empty products.
    #[test]
    fn into_products_reshape_a_reused_buffer() {
        let fill = |rows: usize, cols: usize, seed: usize| {
            let data = (0..rows * cols)
                .map(|i| match (i * 7 + seed) % 9 {
                    0 => 0.0,
                    k => (k as f32 - 4.5) * 0.37,
                })
                .collect();
            Matrix::from_vec(rows, cols, data)
        };
        let bits = |m: &Matrix| {
            (
                m.rows(),
                m.cols(),
                m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        let mut out = Matrix::full(5, 40, f32::NAN);
        for (m, k, n) in [
            (32, 64, 64),
            (32, 64, 11),
            (3, 5, 1),
            (20, 17, 33),
            (4, 0, 3),
            (0, 6, 2),
        ] {
            let a = fill(m, k, 1);
            let b = fill(k, n, 2);
            a.matmul_into(&b, &mut out);
            assert_eq!(bits(&out), bits(&a.matmul(&b)), "matmul {m}x{k}x{n}");
            let c = fill(m, n, 3);
            a.matmul_tn_into(&c, &mut out);
            assert_eq!(bits(&out), bits(&a.matmul_tn(&c)), "matmul_tn {m}x{k}x{n}");
            let d = fill(n, k, 4);
            a.matmul_nt_into(&d, &mut out);
            assert_eq!(bits(&out), bits(&a.matmul_nt(&d)), "matmul_nt {m}x{k}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
