//! Layer normalization over the last (feature) dimension.

use crate::matrix::Matrix;
use crate::param::Param;

/// Layer normalization: normalizes each row to zero mean / unit variance and
/// applies a learned per-feature scale (`gamma`) and shift (`beta`).
#[derive(Clone, Debug)]
pub struct LayerNorm {
    /// Learned scale, shape `(1, dim)`.
    pub gamma: Param,
    /// Learned shift, shape `(1, dim)`.
    pub beta: Param,
    eps: f32,
}

/// What [`LayerNorm::forward`] keeps for the backward pass: the normalized
/// rows and each row's `1 / σ`.
#[derive(Clone, Debug, Default)]
pub struct LayerNormTape {
    xhat: Matrix,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer norm over feature dimension `dim` with `gamma = 1`,
    /// `beta = 0`.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Matrix::full(1, dim, 1.0)),
            beta: Param::zeros(1, dim),
            eps: 1e-5,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.value.cols()
    }

    /// Forward pass, keeping in `tape` what the backward pass reads.
    pub fn forward(&self, x: &Matrix, tape: &mut LayerNormTape) -> Matrix {
        let dim = self.dim();
        assert_eq!(x.cols(), dim, "LayerNorm dim mismatch");
        let mut y = Matrix::zeros(x.rows(), dim);
        let mut xhat = Matrix::zeros(x.rows(), dim);
        let mut inv_stds = Vec::with_capacity(x.rows());
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean: f32 = row.iter().sum::<f32>() / dim as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / dim as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds.push(inv_std);
            for c in 0..dim {
                let h = (row[c] - mean) * inv_std;
                xhat[(r, c)] = h;
                y[(r, c)] = gamma[c] * h + beta[c];
            }
        }
        (tape.xhat, tape.inv_std) = (xhat, inv_stds);
        y
    }

    /// Backward pass from the forward's `tape`: accumulates `dgamma` and
    /// `dbeta` into `grads` (the layer's two tensors in
    /// [`LayerNorm::visit_params`] order) and returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics unless `grads` holds exactly two tensors.
    pub fn backward(&self, tape: &LayerNormTape, dy: &Matrix, grads: &mut [Matrix]) -> Matrix {
        let [dgamma, dbeta] = grads else {
            panic!("a LayerNorm has 2 gradient tensors, got {}", grads.len());
        };
        let (dgamma, dbeta) = (dgamma.as_mut_slice(), dbeta.as_mut_slice());
        let dim = self.dim();
        let gamma = self.gamma.value.as_slice();
        let mut dx = Matrix::zeros(dy.rows(), dim);
        for r in 0..dy.rows() {
            let inv_std = tape.inv_std[r];
            let dy_row = dy.row(r);
            let xhat_row = tape.xhat.row(r);
            // Accumulate parameter gradients.
            for c in 0..dim {
                dgamma[c] += dy_row[c] * xhat_row[c];
                dbeta[c] += dy_row[c];
            }
            // dxhat = dy * gamma
            // dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
            let mut mean_dxhat = 0.0;
            let mut mean_dxhat_xhat = 0.0;
            for c in 0..dim {
                let dxh = dy_row[c] * gamma[c];
                mean_dxhat += dxh;
                mean_dxhat_xhat += dxh * xhat_row[c];
            }
            mean_dxhat /= dim as f32;
            mean_dxhat_xhat /= dim as f32;
            for c in 0..dim {
                let dxh = dy_row[c] * gamma[c];
                dx[(r, c)] = inv_std * (dxh - mean_dxhat - xhat_row[c] * mean_dxhat_xhat);
            }
        }
        dx
    }

    /// Visits all parameters mutably (for the optimizer).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_rows() {
        let ln = LayerNorm::new(4);
        let y = ln.forward(
            &Matrix::from_row(&[1.0, 2.0, 3.0, 4.0]),
            &mut LayerNormTape::default(),
        );
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .row(0)
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut ln = LayerNorm::new(2);
        ln.gamma.value = Matrix::from_row(&[2.0, 2.0]);
        ln.beta.value = Matrix::from_row(&[1.0, 1.0]);
        let y = ln.forward(
            &Matrix::from_row(&[-1.0, 1.0]),
            &mut LayerNormTape::default(),
        );
        // normalized = [-1, 1] (approx), so y ≈ [-1, 3]
        assert!((y.as_slice()[0] + 1.0).abs() < 1e-2);
        assert!((y.as_slice()[1] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn gradient_check() {
        let mut ln = LayerNorm::new(3);
        ln.gamma.value = Matrix::from_row(&[1.1, 0.9, 1.3]);
        ln.beta.value = Matrix::from_row(&[0.1, -0.2, 0.0]);
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.0, 1.5, -0.5]]);
        let mut tape = LayerNormTape::default();
        ln.forward(&x, &mut tape);
        // L = weighted sum with distinct weights so gradients differ per cell.
        let dy = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.5, -1.0, 1.5]]);
        let mut grads = vec![Matrix::zeros(1, 3), Matrix::zeros(1, 3)];
        let dx = ln.backward(&tape, &dy, &mut grads);
        let loss = |ln: &LayerNorm, x: &Matrix| -> f32 {
            let y = ln.forward(x, &mut LayerNormTape::default());
            y.as_slice()
                .iter()
                .zip(dy.as_slice().iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-3;
        // Check dx.
        for &(r, c) in &[(0usize, 0usize), (0, 2), (1, 1)] {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            let numeric = (loss(&ln, &xp) - loss(&ln, &xm)) / (2.0 * eps);
            assert!(
                (numeric - dx[(r, c)]).abs() < 2e-2,
                "dx[{r},{c}]: numeric {numeric} vs analytic {}",
                dx[(r, c)]
            );
        }
        // Check dgamma / dbeta.
        for c in 0..3 {
            let orig = ln.gamma.value.as_slice()[c];
            ln.gamma.value.as_mut_slice()[c] = orig + eps;
            let lp = loss(&ln, &x);
            ln.gamma.value.as_mut_slice()[c] = orig - eps;
            let lm = loss(&ln, &x);
            ln.gamma.value.as_mut_slice()[c] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads[0].as_slice()[c];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "dgamma[{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}
