//! Fully-connected (affine) layer.

use crate::init;
use crate::matrix::Matrix;
use crate::param::Param;
use crate::sparse::{self, SparseRows};
use rand::Rng;

/// A fully-connected layer computing `y = x W + b`.
///
/// `x` is `(batch, in_dim)`, `W` is `(in_dim, out_dim)`, `b` is `out_dim`.
/// The layer holds only its parameters: the backward pass is handed the
/// input the forward saw and the gradient tensors to accumulate into.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix, shape `(in_dim, out_dim)`.
    pub w: Param,
    /// Bias row vector stored as a `(1, out_dim)` matrix.
    pub b: Param,
}

/// A forward input as the backward pass reads it for `dW = xᵀ dy`: a dense
/// matrix, or the CSR compaction [`Linear::forward_sparse`] wrote.
pub trait LinearInput {
    /// `xᵀ dy`.
    fn matmul_tn(&self, dy: &Matrix) -> Matrix;
}

impl LinearInput for Matrix {
    fn matmul_tn(&self, dy: &Matrix) -> Matrix {
        Matrix::matmul_tn(self, dy)
    }
}

impl LinearInput for SparseRows {
    fn matmul_tn(&self, dy: &Matrix) -> Matrix {
        SparseRows::matmul_tn(self, dy)
    }
}

impl Linear {
    /// Creates a linear layer with Xavier-initialized weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: Param::new(init::xavier_uniform(in_dim, out_dim, rng)),
            b: Param::zeros(1, out_dim),
        }
    }

    /// Creates a linear layer whose weights are Xavier-initialized then
    /// scaled by `gain` (used for near-uniform initial policy heads).
    pub fn with_gain(in_dim: usize, out_dim: usize, gain: f32, rng: &mut impl Rng) -> Self {
        Self {
            w: Param::new(init::scaled_xavier(in_dim, out_dim, gain, rng)),
            b: Param::zeros(1, out_dim),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Forward pass. A training caller keeps `x` for the backward pass.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(self.b.value.as_slice());
        y
    }

    /// The training forward for a mostly-zero input, such as a network's
    /// one-hot observation: compacts `x` into `csr` (reusing its storage)
    /// for the backward pass and multiplies only the nonzeros. The same
    /// bits as [`Linear::forward_inference`] for finite weights (see
    /// [`crate::sparse`]).
    pub fn forward_sparse(&self, x: &Matrix, csr: &mut SparseRows) -> Matrix {
        csr.compact(x);
        let mut y = csr.matmul(&self.w.value);
        y.add_row_broadcast(self.b.value.as_slice());
        y
    }

    /// [`Linear::forward_sparse`] without keeping the compaction: it goes
    /// into a per-thread buffer.
    pub fn forward_sparse_inference(&self, x: &Matrix) -> Matrix {
        let mut y = sparse::with_compacted(x, |csr| csr.matmul(&self.w.value));
        y.add_row_broadcast(self.b.value.as_slice());
        y
    }

    /// Backward pass for the forward input `x`: accumulates `dW`, `db` into
    /// `grads` ([`Linear::backward_params`]) and returns `dx = dy Wᵀ`.
    pub fn backward(&self, x: &Matrix, dy: &Matrix, grads: &mut [Matrix]) -> Matrix {
        self.backward_params(x, dy, grads);
        dy.matmul_nt(&self.w.value)
    }

    /// Parameter-only backward pass: accumulates `dW = xᵀ dy` into
    /// `grads[0]` and `db = Σ_rows dy` into `grads[1]` (the layer's two
    /// tensors in [`Linear::visit_params`] order) and computes no input
    /// gradient. A network's input layer calls this, since nothing reads
    /// the gradient of the observation, and with a wide observation that
    /// `dx` would be the backward pass's largest product. The parameter
    /// gradients are bit-identical to [`Linear::backward`]'s.
    ///
    /// # Panics
    ///
    /// Panics unless `grads` holds exactly two tensors.
    pub fn backward_params(&self, x: &impl LinearInput, dy: &Matrix, grads: &mut [Matrix]) {
        let [dw, db] = grads else {
            panic!("a Linear layer has 2 gradient tensors, got {}", grads.len());
        };
        // dW = x^T dy
        dw.add_assign(&x.matmul_tn(dy));
        // db = column sums of dy
        for (g, d) in db.as_mut_slice().iter_mut().zip(dy.sum_rows()) {
            *g += d;
        }
    }

    /// Visits all parameters mutably (for the optimizer).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    /// Zeroed gradient tensors for `l`, in `visit_params` order.
    fn zero_grads(l: &Linear) -> Vec<Matrix> {
        vec![
            Matrix::zeros(l.in_dim(), l.out_dim()),
            Matrix::zeros(1, l.out_dim()),
        ]
    }

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(2, 2, &mut rng());
        l.w.value = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        l.b.value = Matrix::from_row(&[0.5, -0.5]);
        let y = l.forward_inference(&Matrix::from_row(&[1.0, 1.0]));
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_gradient_check() {
        // Finite-difference check of dL/dW, dL/db, dL/dx where L = sum(y).
        let mut l = Linear::new(3, 2, &mut rng());
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.7]]);
        let y = l.forward_inference(&x);
        let dy = Matrix::full(y.rows(), y.cols(), 1.0);
        let mut grads = zero_grads(&l);
        let dx = l.backward(&x, &dy, &mut grads);

        let eps = 1e-3;
        // Check a few weight entries.
        for &(i, j) in &[(0usize, 0usize), (2, 1), (1, 0)] {
            let orig = l.w.value[(i, j)];
            l.w.value[(i, j)] = orig + eps;
            let lp: f32 = l.forward_inference(&x).as_slice().iter().sum();
            l.w.value[(i, j)] = orig - eps;
            let lm: f32 = l.forward_inference(&x).as_slice().iter().sum();
            l.w.value[(i, j)] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads[0][(i, j)];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dW[{i},{j}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check dx entry (0,1).
        let mut xp = x.clone();
        xp[(0, 1)] += eps;
        let lp: f32 = l.forward_inference(&xp).as_slice().iter().sum();
        let mut xm = x.clone();
        xm[(0, 1)] -= eps;
        let lm: f32 = l.forward_inference(&xm).as_slice().iter().sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - dx[(0, 1)]).abs() < 1e-2);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let l = Linear::new(2, 1, &mut rng());
        let x = Matrix::from_row(&[1.0, 2.0]);
        let dy = Matrix::from_row(&[1.0]);
        let mut grads = zero_grads(&l);
        l.backward(&x, &dy, &mut grads);
        let g1 = grads[0][(0, 0)];
        l.backward(&x, &dy, &mut grads);
        assert!((grads[0][(0, 0)] - 2.0 * g1).abs() < 1e-6);
    }

    #[test]
    fn backward_params_accumulates_the_same_bits_as_backward() {
        let l = Linear::new(5, 3, &mut rng());
        // Non-zero starting gradients: both must accumulate, not assign.
        let mut full = vec![
            Matrix::full(5, 3, 0.125),
            Matrix::from_row(&[-1.0, 0.5, 3.0]),
        ];
        let mut params_only = full.clone();
        let x = Matrix::from_rows(&[
            &[0.0, 1.0, 0.0, -2.5, 0.0],
            &[0.3, -0.7, 1.9, 0.0, 4.25],
            &[1e-3, 0.0, -1e3, 0.5, 0.0],
        ]);
        let dy = Matrix::from_rows(&[&[0.5, -1.5, 2.0], &[1e-4, 3.0, -0.25], &[-7.0, 0.0, 1.0]]);
        let dx = l.backward(&x, &dy, &mut full);
        l.backward_params(&x, &dy, &mut params_only);
        assert_eq!((dx.rows(), dx.cols()), (3, 5));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (a, b) in full.iter().zip(&params_only) {
            assert_eq!(bits(a), bits(b));
        }
    }
}
