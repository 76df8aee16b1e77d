//! Optimizers: Adam with bias correction, plus global gradient-norm clipping.

use crate::param::Param;

/// The Adam optimizer (Kingma & Ba, 2015).
///
/// Each [`Param`] carries its own first/second moment estimates; `Adam`
/// holds the shared hyper-parameters and step counter.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay rate for the first moment.
    pub beta1: f32,
    /// Exponential decay rate for the second moment.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and the
    /// conventional defaults `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Rebuilds an optimizer from checkpointed state: explicit
    /// hyper-parameters plus the bias-correction step counter (see
    /// [`crate::state::adam_to_value`]).
    pub fn restore(lr: f32, beta1: f32, beta2: f32, eps: f32, steps: u64) -> Self {
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: steps,
        }
    }

    /// Begins a new update step (increments the bias-correction counter).
    ///
    /// Call once per optimizer step, before [`Adam::update_param`] is applied
    /// to each parameter.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// One full optimizer step: increments the bias-correction counter and
    /// applies [`Adam::update_param`] to every parameter the visitor
    /// yields (models expose `visit_params` for this). Gradients are left
    /// untouched.
    pub fn step(&mut self, mut visit: impl FnMut(&mut dyn FnMut(&mut Param))) {
        self.begin_step();
        let this = &*self;
        visit(&mut |p: &mut Param| this.update_param(p));
    }

    /// Applies one Adam update to a single parameter using its accumulated
    /// gradient, then leaves the gradient untouched (call
    /// [`Param::zero_grad`] separately).
    pub fn update_param(&self, p: &mut Param) {
        debug_assert!(self.t > 0, "call begin_step before update_param");
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let Param { value, grad, m, v } = p;
        debug_assert!(
            grad.len() == value.len() && m.len() == value.len() && v.len() == value.len(),
            "Param buffers must share one shape"
        );
        for (((val, &g), m_i), v_i) in value
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(m.as_mut_slice())
            .zip(v.as_mut_slice())
        {
            *m_i = self.beta1 * *m_i + (1.0 - self.beta1) * g;
            *v_i = self.beta2 * *v_i + (1.0 - self.beta2) * g * g;
            let m_hat = *m_i / bc1;
            let v_hat = *v_i / bc2;
            *val -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

/// Computes the global L2 norm over a set of gradients and, if it exceeds
/// `max_norm`, scales all gradients down so the global norm equals
/// `max_norm`. Returns the pre-clip norm.
///
/// The caller supplies a visitor that applies a closure to every parameter
/// (models expose `visit_params` for this).
pub fn clip_global_grad_norm(
    max_norm: f32,
    mut visit: impl FnMut(&mut dyn FnMut(&mut Param)),
) -> f32 {
    let mut sq_sum = 0.0f32;
    visit(&mut |p: &mut Param| {
        sq_sum += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>();
    });
    let norm = sq_sum.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        visit(&mut |p: &mut Param| p.grad.scale(scale));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize f(x) = (x - 3)^2 with Adam; should approach 3.
        let mut p = Param::new(Matrix::from_row(&[0.0]));
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.value.as_slice()[0];
            p.grad.as_mut_slice()[0] = 2.0 * (x - 3.0);
            adam.begin_step();
            adam.update_param(&mut p);
            p.zero_grad();
        }
        assert!((p.value.as_slice()[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn first_step_is_lr_sized() {
        // With bias correction, the first Adam step magnitude ≈ lr.
        let mut p = Param::new(Matrix::from_row(&[1.0]));
        let mut adam = Adam::new(0.05);
        p.grad.as_mut_slice()[0] = 123.0;
        adam.begin_step();
        adam.update_param(&mut p);
        let delta = 1.0 - p.value.as_slice()[0];
        assert!((delta - 0.05).abs() < 1e-4, "delta {delta}");
    }

    #[test]
    fn clip_reduces_large_norm() {
        let mut p = Param::new(Matrix::from_row(&[0.0, 0.0]));
        p.grad = Matrix::from_row(&[3.0, 4.0]); // norm 5
        let norm = clip_global_grad_norm(1.0, |f| f(&mut p));
        assert!((norm - 5.0).abs() < 1e-5);
        let g = p.grad.as_slice();
        let clipped_norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((clipped_norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_leaves_small_norm_unchanged() {
        let mut p = Param::new(Matrix::from_row(&[0.0]));
        p.grad = Matrix::from_row(&[0.5]);
        clip_global_grad_norm(1.0, |f| f(&mut p));
        assert_eq!(p.grad.as_slice()[0], 0.5);
    }

    /// The two-pass Adam update `update_param` replaced: moments first,
    /// then values, from a copy of the gradient.
    fn two_pass_update(adam: &Adam, p: &mut Param) {
        let bc1 = 1.0 - adam.beta1.powi(adam.t as i32);
        let bc2 = 1.0 - adam.beta2.powi(adam.t as i32);
        let grad = p.grad.as_slice().to_vec();
        let m = p.m.as_mut_slice();
        let v = p.v.as_mut_slice();
        for i in 0..grad.len() {
            let g = grad[i];
            m[i] = adam.beta1 * m[i] + (1.0 - adam.beta1) * g;
            v[i] = adam.beta2 * v[i] + (1.0 - adam.beta2) * g * g;
        }
        for i in 0..grad.len() {
            let m_hat = p.m.as_slice()[i] / bc1;
            let v_hat = p.v.as_slice()[i] / bc2;
            p.value.as_mut_slice()[i] -= adam.lr * m_hat / (v_hat.sqrt() + adam.eps);
        }
    }

    #[test]
    fn single_pass_update_is_bit_identical_to_the_two_pass_formula() {
        let bits = |p: &Param| {
            [&p.value, &p.grad, &p.m, &p.v]
                .map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        let init = [0.5f32, -1.25, 0.0, 3.0, -0.0, 1e-3, 7.5, -2.0];
        let mut fast = Param::new(Matrix::from_vec(2, 4, init.to_vec()));
        let mut slow = fast.clone();
        let mut adam = Adam::new(3e-4);
        // Zero, signed-zero, subnormal, large and overflowing-square
        // gradients, varying across steps.
        let grads: [[f32; 8]; 4] = [
            [0.0, -0.0, 1e-40, 1e20, -3e38, 0.5, -0.125, 2.0],
            [1.0, 0.0, -1e-40, -1e20, 0.0, 0.25, 1e-8, -7.0],
            [-0.5, 3e38, 0.0, 0.0, 1.5, -0.0, 1e5, 0.0],
            [0.0; 8],
        ];
        for step in 0..6 {
            let g = grads[step % grads.len()];
            fast.grad.as_mut_slice().copy_from_slice(&g);
            slow.grad.as_mut_slice().copy_from_slice(&g);
            adam.begin_step();
            adam.update_param(&mut fast);
            two_pass_update(&adam, &mut slow);
            assert_eq!(bits(&fast), bits(&slow), "diverged at step {step}");
        }
    }
}
