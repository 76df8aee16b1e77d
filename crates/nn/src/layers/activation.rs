//! Element-wise activation layers, run in place.
//!
//! `tanh` is [`crate::math::tanh`], never libm's: the bit-exact port of
//! glibc 2.36's `tanhf`, so activations (and every digest downstream)
//! do not depend on the host. The `Tanh` forward runs the vectorised
//! [`math::tanh_in_place`] over the layer's output buffer.
//!
//! Both kinds' derivatives are functions of the output, so a training
//! caller keeps the forward's output and the backward pass reads `f'`
//! off it: the activation never runs again. The backward scales the
//! incoming gradient in place, `dy ← dy·f'(y)`, so neither pass copies
//! or allocates.

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

    /// Forward pass in place: `y ← f(y)`. A training caller keeps the
    /// output for the backward pass.
    pub fn forward_in_place(&self, y: &mut Matrix) {
        match self.kind {
            ActivationKind::Tanh => math::tanh_in_place(y.as_mut_slice()),
            kind => y
                .as_mut_slice()
                .iter_mut()
                .for_each(|v| *v = kind.apply(*v)),
        }
    }

    /// Backward pass in place: `dy ← dy·f'(x)`, with `f'` read off the
    /// forward's output `y` (`dy·(1 − y·y)` for `Tanh`).
    ///
    /// # Panics
    ///
    /// Panics unless `y` and `dy` have one shape.
    pub fn backward_in_place(&self, y: &Matrix, dy: &mut Matrix) {
        assert!(
            (y.rows(), y.cols()) == (dy.rows(), dy.cols()),
            "activation backward shape mismatch: {}x{} vs {}x{}",
            y.rows(),
            y.cols(),
            dy.rows(),
            dy.cols()
        );
        let pairs = dy.as_mut_slice().iter_mut().zip(y.as_slice());
        match self.kind {
            // The arm of its own lets the loop vectorise.
            ActivationKind::Tanh => pairs.for_each(|(d, &y)| *d *= 1.0 - y * y),
            kind => pairs.for_each(|(d, &y)| *d *= kind.derivative_from_output(y)),
        }
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

    fn forward(a: &Activation, x: Matrix) -> Matrix {
        let mut y = x;
        a.forward_in_place(&mut y);
        y
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = Activation::new(ActivationKind::Relu);
        let y = forward(&a, Matrix::from_row(&[-1.0, 0.0, 2.0]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn tanh_bounds() {
        let a = Activation::new(ActivationKind::Tanh);
        let y = forward(&a, Matrix::from_row(&[-100.0, 0.0, 100.0]));
        assert!((y.as_slice()[0] + 1.0).abs() < 1e-6);
        assert_eq!(y.as_slice()[1], 0.0);
        assert!((y.as_slice()[2] - 1.0).abs() < 1e-6);
    }

    fn grad_check(kind: ActivationKind) {
        let a = Activation::new(kind);
        // Avoid x = 0: ReLU is non-differentiable there and the central
        // finite difference would disagree with the subgradient we return.
        let xs = [-1.5f32, -0.3, 0.1, 0.4, 2.0];
        let y = forward(&a, Matrix::from_row(&xs));
        let mut dx = Matrix::full(1, xs.len(), 1.0);
        a.backward_in_place(&y, &mut dx);
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
            let y = forward(&a, Matrix::from_vec(2, 5, xs.to_vec()));
            let mut dx = Matrix::from_vec(2, 5, dys.to_vec());
            a.backward_in_place(&y, &mut dx);
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
