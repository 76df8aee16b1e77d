//! Element-wise activation layers.
//!
//! `tanh` is [`crate::math::tanh`], never libm's: the bit-exact port of
//! glibc 2.36's `tanhf`, so activations (and every digest downstream)
//! do not depend on the host. The `Tanh` forward runs the vectorised
//! [`math::tanh_in_place`] over its output buffer; GELU calls the scalar
//! port.

use crate::math;
use crate::matrix::Matrix;

/// The supported activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Hyperbolic tangent ([`math::tanh`]).
    Tanh,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

impl ActivationKind {
    fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => math::tanh(x),
            ActivationKind::Gelu => {
                let c = (2.0 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + math::tanh(c * (x + 0.044_715 * x * x * x)))
            }
        }
    }

    /// `f'(x)` from the value [`Activation::forward`] cached: the output
    /// `y = f(x)` for `Relu`/`Tanh`, `x` itself for `Gelu`.
    fn derivative_from_cache(self, cached: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if cached > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - cached * cached,
            ActivationKind::Gelu => self.derivative(cached),
        }
    }

    /// `f'(x)`, computed from the input (the definition the cached
    /// derivatives reproduce bit for bit).
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
                let t = math::tanh(x);
                1.0 - t * t
            }
            ActivationKind::Gelu => {
                let c = (2.0 / std::f32::consts::PI).sqrt();
                let inner = c * (x + 0.044_715 * x * x * x);
                let t = math::tanh(inner);
                let dinner = c * (1.0 + 3.0 * 0.044_715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            }
        }
    }
}

/// An element-wise activation layer.
///
/// The training forward caches what the derivative needs, so the backward
/// pass never evaluates the activation again: the *output* for `Tanh`
/// (`f'(x) = 1 - y²`) and `Relu` (`f'(x) = [y > 0]`), the *input* for
/// `Gelu` (whose derivative is not a function of its output). Each
/// derivative is bit-identical to the one computed from the input: the
/// cached output is the very `f32` the forward computed, and
/// `max(x, 0) > 0` holds exactly when `x > 0` (NaN included).
#[derive(Clone, Debug)]
pub struct Activation {
    kind: ActivationKind,
    cache: Option<Matrix>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, cache: None }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// Forward pass, caching the output (`Tanh`, `Relu`) or the input
    /// (`Gelu`) for the backward pass, into the previous pass's cache
    /// storage so repeated passes do not allocate.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = self.forward_inference(x);
        let saved = if self.kind == ActivationKind::Gelu {
            x
        } else {
            &y
        };
        self.cache
            .get_or_insert_with(Matrix::default)
            .clone_from(saved);
        y
    }

    /// Forward pass without caching (inference only).
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

    /// Backward pass: `dx = dy * f'(x)`, with `f'` read off the cache.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let cached = self
            .cache
            .as_ref()
            .expect("Activation::backward called before forward");
        let deriv = cached.map(|c| self.kind.derivative_from_cache(c));
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

    #[test]
    fn backward_matches_the_input_derivative_bit_for_bit() {
        // The cached-output derivatives must reproduce `f'(x)` computed
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
        for kind in [
            ActivationKind::Tanh,
            ActivationKind::Relu,
            ActivationKind::Gelu,
        ] {
            let mut a = Activation::new(kind);
            let y = a.forward(&Matrix::from_vec(2, 5, xs.to_vec()));
            let dx = a.backward(&Matrix::from_vec(2, 5, dys.to_vec()));
            assert_eq!((dx.rows(), dx.cols()), (2, 5));
            for (i, (&x, &dy)) in xs.iter().zip(&dys).enumerate() {
                assert_eq!(y.as_slice()[i].to_bits(), kind.apply(x).to_bits());
                assert_eq!(
                    dx.as_slice()[i].to_bits(),
                    (dy * kind.derivative(x)).to_bits(),
                    "{kind:?} at x = {x:e}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_panics() {
        let _ = Activation::new(ActivationKind::Tanh).backward(&Matrix::zeros(1, 2));
    }
}
