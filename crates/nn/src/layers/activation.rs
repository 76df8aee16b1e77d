//! Element-wise activation layers.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// The supported activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivationKind {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

impl ActivationKind {
    fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Gelu => {
                let c = (2.0 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + (c * (x + 0.044_715 * x * x * x)).tanh())
            }
        }
    }

    fn derivative(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            ActivationKind::Gelu => {
                let c = (2.0 / std::f32::consts::PI).sqrt();
                let inner = c * (x + 0.044_715 * x * x * x);
                let t = inner.tanh();
                let dinner = c * (1.0 + 3.0 * 0.044_715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            }
        }
    }
}

/// An element-wise activation layer with cached input.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Activation {
    kind: ActivationKind,
    cached_input: Option<Matrix>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self {
            kind,
            cached_input: None,
        }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// Forward pass, caching the input (into the previous pass's cache
    /// storage, so repeated passes do not allocate).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.cached_input
            .get_or_insert_with(Matrix::default)
            .clone_from(x);
        x.map(|v| self.kind.apply(v))
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.map(|v| self.kind.apply(v))
    }

    /// Backward pass: `dx = dy * f'(x)`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("Activation::backward called before forward");
        let deriv = x.map(|v| self.kind.derivative(v));
        dy.hadamard(&deriv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut a = Activation::new(ActivationKind::Relu);
        let y = a.forward(&Matrix::from_row(&[-1.0, 0.0, 2.0]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn tanh_bounds() {
        let mut a = Activation::new(ActivationKind::Tanh);
        let y = a.forward(&Matrix::from_row(&[-100.0, 0.0, 100.0]));
        assert!((y.as_slice()[0] + 1.0).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 0.0);
        assert!((y.as_slice()[2] - 1.0).abs() < 1e-6);
    }

    fn grad_check(kind: ActivationKind) {
        let mut a = Activation::new(kind);
        // Avoid x = 0: ReLU is non-differentiable there and the central
        // finite difference would disagree with the subgradient we return.
        let xs = [-1.5f32, -0.3, 0.1, 0.4, 2.0];
        let x = Matrix::from_row(&xs);
        a.forward(&x);
        let dy = Matrix::full(1, xs.len(), 1.0);
        let dx = a.backward(&dy);
        let eps = 1e-3;
        for (i, &xv) in xs.iter().enumerate() {
            let lp = kind.apply(xv + eps);
            let lm = kind.apply(xv - eps);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[i]).abs() < 1e-2,
                "{kind:?} grad at {xv}: numeric {numeric} vs {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn gradient_check_relu() {
        grad_check(ActivationKind::Relu);
    }

    #[test]
    fn gradient_check_tanh() {
        grad_check(ActivationKind::Tanh);
    }

    #[test]
    fn gradient_check_gelu() {
        grad_check(ActivationKind::Gelu);
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0, GELU is odd-ish around zero and approx x for large x.
        assert!(ActivationKind::Gelu.apply(0.0).abs() < 1e-7);
        assert!((ActivationKind::Gelu.apply(10.0) - 10.0).abs() < 1e-3);
        assert!(ActivationKind::Gelu.apply(-10.0).abs() < 1e-3);
    }
}
