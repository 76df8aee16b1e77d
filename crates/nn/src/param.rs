//! Trainable parameters: value, accumulated gradient, and Adam moments.

use crate::matrix::Matrix;

/// A trainable parameter tensor with its gradient and Adam state.
///
/// Layers accumulate gradients into [`Param::grad`] during their backward
/// pass; [`crate::optim::Adam`] consumes the gradient to update
/// [`Param::value`] and maintains the first/second moment estimates here so
/// every parameter carries its own optimizer state.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current parameter values.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
    /// Adam first-moment estimate.
    pub m: Matrix,
    /// Adam second-moment estimate.
    pub v: Matrix,
}

impl Param {
    /// Wraps an initialized value matrix into a parameter with zeroed
    /// gradient and optimizer state.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        let m = grad.clone();
        let v = grad.clone();
        Self { value, grad, m, v }
    }

    /// Creates a zero-initialized parameter of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::new(Matrix::zeros(rows, cols))
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_and_moments() {
        let p = Param::new(Matrix::full(2, 3, 1.5));
        assert_eq!(p.len(), 6);
        assert!(p.grad.as_slice().iter().all(|&v| v == 0.0));
        assert!(p.m.as_slice().iter().all(|&v| v == 0.0));
        assert!(p.v.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_grad_clears_gradient() {
        let mut p = Param::zeros(2, 2);
        p.grad.as_mut_slice()[0] = 3.0;
        p.zero_grad();
        assert!(p.grad.as_slice().iter().all(|&v| v == 0.0));
    }
}
