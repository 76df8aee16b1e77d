//! Fully-connected (affine) layer.

use crate::init;
use crate::matrix::Matrix;
use crate::param::Param;
use rand::Rng;

/// A fully-connected layer computing `y = x W + b`.
///
/// `x` is `(batch, in_dim)`, `W` is `(in_dim, out_dim)`, `b` is `out_dim`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix, shape `(in_dim, out_dim)`.
    pub w: Param,
    /// Bias row vector stored as a `(1, out_dim)` matrix.
    pub b: Param,
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Creates a linear layer with Xavier-initialized weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: Param::new(init::xavier_uniform(in_dim, out_dim, rng)),
            b: Param::zeros(1, out_dim),
            cached_input: None,
        }
    }

    /// Creates a linear layer whose weights are Xavier-initialized then
    /// scaled by `gain` (used for near-uniform initial policy heads).
    pub fn with_gain(in_dim: usize, out_dim: usize, gain: f32, rng: &mut impl Rng) -> Self {
        Self {
            w: Param::new(init::scaled_xavier(in_dim, out_dim, gain, rng)),
            b: Param::zeros(1, out_dim),
            cached_input: None,
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

    /// Forward pass, caching the input for the backward pass (into the
    /// previous pass's cache storage, so repeated passes do not allocate).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(self.b.value.as_slice());
        self.cached_input
            .get_or_insert_with(Matrix::default)
            .clone_from(x);
        y
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(self.b.value.as_slice());
        y
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called before forward");
        // dW = x^T dy
        let dw = x.matmul_tn(dy);
        self.w.grad.add_assign(&dw);
        // db = column sums of dy
        let db = dy.sum_rows();
        for (g, d) in self.b.grad.as_mut_slice().iter_mut().zip(db.iter()) {
            *g += d;
        }
        // dx = dy W^T
        dy.matmul_nt(&self.w.value)
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

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(2, 2, &mut rng());
        l.w.value = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        l.b.value = Matrix::from_row(&[0.5, -0.5]);
        let y = l.forward(&Matrix::from_row(&[1.0, 1.0]));
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_gradient_check() {
        // Finite-difference check of dL/dW, dL/db, dL/dx where L = sum(y).
        let mut l = Linear::new(3, 2, &mut rng());
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.7]]);
        let y = l.forward(&x);
        let dy = Matrix::full(y.rows(), y.cols(), 1.0);
        let dx = l.backward(&dy);

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
            let analytic = l.w.grad[(i, j)];
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
        let mut l = Linear::new(2, 1, &mut rng());
        let x = Matrix::from_row(&[1.0, 2.0]);
        let dy = Matrix::from_row(&[1.0]);
        l.forward(&x);
        l.backward(&dy);
        let g1 = l.w.grad[(0, 0)];
        l.forward(&x);
        l.backward(&dy);
        assert!((l.w.grad[(0, 0)] - 2.0 * g1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_panics() {
        let mut l = Linear::new(2, 2, &mut rng());
        let _ = l.backward(&Matrix::zeros(1, 2));
    }
}
