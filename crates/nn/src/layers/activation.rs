//! Element-wise activation layers.
//!
//! `tanh` is [`crate::math::tanh`], never libm's: the bit-exact port of
//! glibc 2.36's `tanhf`, so activations (and every digest downstream)
//! do not depend on the host. The `Tanh` forward runs the vectorised
//! [`math::tanh_in_place`] over its output buffer.
//!
//! Both kinds' derivatives are functions of the output, so a training
//! caller keeps the forward's output and the backward pass reads `f'`
//! off it: the activation never runs again.

use crate::math;
use crate::matrix::Matrix;

/// The supported activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Hyperbolic tangent ([`math::tanh`]).
    Tanh,
}

impl ActivationKind {
    fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => math::tanh(x),
        }
    }

    /// `f'(x)` from the output `y = f(x)`: `[y > 0]` for `Relu`, `1 - y²`
    /// for `Tanh`. Bit-identical to the derivative computed from the
    /// input: `y` is the very `f32` the forward computed, and
    /// `max(x, 0) > 0` holds exactly when `x > 0` (NaN included).
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - y * y,
        }
    }
}

/// An element-wise activation layer. It holds no state beyond its kind.
#[derive(Clone, Debug)]
pub struct Activation {
    kind: ActivationKind,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind }
    }

    /// Forward pass. A training caller keeps the output for the backward
    /// pass.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        match self.kind {
            ActivationKind::Tanh => {
                let mut y = x.clone();
                math::tanh_in_place(y.as_mut_slice());
                y
            }
            kind => x.map(|v| kind.apply(v)),
        }
    }

    /// Backward pass: `dx = dy * f'(x)`, with `f'` read off the forward's
    /// output `y`.
    pub fn backward(&self, y: &Matrix, dy: &Matrix) -> Matrix {
        let deriv = y.map(|v| self.kind.derivative_from_output(v));
        dy.hadamard(&deriv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f'(x)` computed from the input: the definition the output-based
    /// derivative must reproduce bit for bit.
    fn derivative(kind: ActivationKind, x: f32) -> f32 {
        match kind {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => {
                let t = math::tanh(x);
                1.0 - t * t
            }
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = Activation::new(ActivationKind::Relu);
        let y = a.forward_inference(&Matrix::from_row(&[-1.0, 0.0, 2.0]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn tanh_bounds() {
        let a = Activation::new(ActivationKind::Tanh);
        let y = a.forward_inference(&Matrix::from_row(&[-100.0, 0.0, 100.0]));
        assert!((y.as_slice()[0] + 1.0).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 0.0);
        assert!((y.as_slice()[2] - 1.0).abs() < 1e-6);
    }

    fn grad_check(kind: ActivationKind) {
        let a = Activation::new(kind);
        // Avoid x = 0: ReLU is non-differentiable there and the central
        // finite difference would disagree with the subgradient we return.
        let xs = [-1.5f32, -0.3, 0.1, 0.4, 2.0];
        let y = a.forward_inference(&Matrix::from_row(&xs));
        let dy = Matrix::full(1, xs.len(), 1.0);
        let dx = a.backward(&y, &dy);
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
    fn backward_matches_the_input_derivative_bit_for_bit() {
        // The output-based derivatives must reproduce `f'(x)` computed
        // from the input exactly, at signed zeros, subnormals, saturation
        // and NaN included.
        let xs = [
            0.0f32,
            -0.0,
            1e-40,
            -1e-40,
            20.0,
            -20.0,
            f32::NAN,
            0.5,
            -1.3,
            3.7,
        ];
        let dys = [1.0f32, -0.5, 2.0, 0.25, -3.0, 1.5, 0.75, -1.0, 7.0, -0.125];
        for kind in [ActivationKind::Tanh, ActivationKind::Relu] {
            let a = Activation::new(kind);
            let y = a.forward_inference(&Matrix::from_vec(2, 5, xs.to_vec()));
            let dx = a.backward(&y, &Matrix::from_vec(2, 5, dys.to_vec()));
            assert_eq!((dx.rows(), dx.cols()), (2, 5));
            for (i, (&x, &dy)) in xs.iter().zip(&dys).enumerate() {
                assert_eq!(y.as_slice()[i].to_bits(), kind.apply(x).to_bits());
                assert_eq!(
                    dx.as_slice()[i].to_bits(),
                    (dy * derivative(kind, x)).to_bits(),
                    "{kind:?} at x = {x:e}"
                );
            }
        }
    }
}
