//! Optimizers: Adam with bias correction, plus global gradient-norm clipping.
//!
//! The Adam update runs as one pass per tensor through a kernel
//! instantiated per SIMD tier (`tiered_kernel!` in [`crate::matrix`]).
//! It multiplies by the clip factor, when there is one, and then updates
//! `m`, `v`, `m̂`, `v̂` and the value with the scalar formula's IEEE
//! operations in the scalar formula's order: no fused multiply-add, and
//! division and square root are correctly rounded in every lane. So the
//! tiers return the scalar update's bits and differ only in speed.

use crate::grad::reduce_grads;
use crate::matrix::tiered_kernel;
use crate::param::Param;
use simd::{Isa, SimdF32x16};

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
    pub fn step(&mut self, visit: impl FnMut(&mut dyn FnMut(&mut Param))) {
        self.step_scaled(None, visit);
    }

    /// [`Adam::step`] on every gradient multiplied by `grad_scale` first
    /// (the factor [`clip_scale`] returns), bit for bit what scaling the
    /// gradients in place and then stepping gives. The scaled gradients
    /// are not written back: the parameters keep the unscaled ones.
    pub fn step_scaled(
        &mut self,
        grad_scale: Option<f32>,
        mut visit: impl FnMut(&mut dyn FnMut(&mut Param)),
    ) {
        self.begin_step();
        let coeffs = self.coeffs(grad_scale);
        visit(&mut |p: &mut Param| update_tensor(p, &coeffs));
    }

    /// Applies one Adam update to a single parameter using its accumulated
    /// gradient, then leaves the gradient untouched (call
    /// [`Param::zero_grad`] separately).
    pub fn update_param(&self, p: &mut Param) {
        update_tensor(p, &self.coeffs(None));
    }

    fn coeffs(&self, grad_scale: Option<f32>) -> AdamCoeffs {
        debug_assert!(self.t > 0, "call begin_step before update_param");
        AdamCoeffs {
            grad_scale,
            beta1: self.beta1,
            one_minus_beta1: 1.0 - self.beta1,
            beta2: self.beta2,
            one_minus_beta2: 1.0 - self.beta2,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
            lr: self.lr,
            eps: self.eps,
        }
    }
}

/// The scalars one Adam step applies to every element.
struct AdamCoeffs {
    grad_scale: Option<f32>,
    beta1: f32,
    one_minus_beta1: f32,
    beta2: f32,
    one_minus_beta2: f32,
    /// Bias corrections `1 - beta^t`.
    bc1: f32,
    bc2: f32,
    lr: f32,
    eps: f32,
}

fn update_tensor(p: &mut Param, c: &AdamCoeffs) {
    let Param { value, grad, m, v } = p;
    assert!(
        grad.len() == value.len() && m.len() == value.len() && v.len() == value.len(),
        "Param buffers must share one shape"
    );
    adam_update(
        value.as_mut_slice(),
        grad.as_slice(),
        m.as_mut_slice(),
        v.as_mut_slice(),
        c,
    );
}

tiered_kernel! {
    /// Tier-dispatched [`adam_update_body`].
    fn adam_update / adam_update_body(
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        c: &AdamCoeffs,
    )
}

/// One Adam step over a tensor: 16 lanes at a time, then the scalar
/// formula ([`adam_lane`]) on the tail, with the same operations per
/// element on both.
#[inline(always)]
fn adam_update_body<I: Isa>(
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    c: &AdamCoeffs,
) {
    let n16 = value.len() & !(I::F16::LANES - 1);
    let splat = I::F16::splat;
    let scale = c.grad_scale.map(splat);
    let (beta1, one_minus_beta1) = (splat(c.beta1), splat(c.one_minus_beta1));
    let (beta2, one_minus_beta2) = (splat(c.beta2), splat(c.one_minus_beta2));
    let (bc1, bc2, lr, eps) = (splat(c.bc1), splat(c.bc2), splat(c.lr), splat(c.eps));
    let mut j = 0;
    while j < n16 {
        let mut g = I::F16::from_slice(&grad[j..]);
        if let Some(scale) = scale {
            g = g * scale;
        }
        let m_new = beta1 * I::F16::from_slice(&m[j..]) + one_minus_beta1 * g;
        let v_new = beta2 * I::F16::from_slice(&v[j..]) + one_minus_beta2 * g * g;
        let m_hat = m_new / bc1;
        let v_hat = v_new / bc2;
        let val = I::F16::from_slice(&value[j..]) - lr * m_hat / (v_hat.sqrt() + eps);
        m_new.write_to_slice(&mut m[j..]);
        v_new.write_to_slice(&mut v[j..]);
        val.write_to_slice(&mut value[j..]);
        j += I::F16::LANES;
    }
    for i in j..value.len() {
        adam_lane(&mut value[i], grad[i], &mut m[i], &mut v[i], c);
    }
}

/// The scalar Adam formula for one element.
#[inline(always)]
fn adam_lane(val: &mut f32, mut g: f32, m: &mut f32, v: &mut f32, c: &AdamCoeffs) {
    if let Some(scale) = c.grad_scale {
        g *= scale;
    }
    *m = c.beta1 * *m + c.one_minus_beta1 * g;
    *v = c.beta2 * *v + c.one_minus_beta2 * g * g;
    let m_hat = *m / c.bc1;
    let v_hat = *v / c.bc2;
    *val -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
}

/// The factor that scales gradients of global norm `norm` down to
/// `max_norm`, or `None` when they are within it.
pub fn clip_scale(max_norm: f32, norm: f32) -> Option<f32> {
    (norm > max_norm && norm > 0.0).then(|| max_norm / norm)
}

/// Computes the global L2 norm over a set of gradients and, if it exceeds
/// `max_norm`, scales all gradients down so the global norm equals
/// `max_norm`. Returns the pre-clip norm.
///
/// The caller supplies a visitor that applies a closure to every parameter
/// (models expose `visit_params` for this). The norm is
/// [`reduce_grads`] with no shards, the same pass the sharded trainer
/// reduces with.
pub fn clip_global_grad_norm(
    max_norm: f32,
    mut visit: impl FnMut(&mut dyn FnMut(&mut Param)),
) -> f32 {
    let norm = reduce_grads(&[], |f| visit(f)).sqrt();
    if let Some(scale) = clip_scale(max_norm, norm) {
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

    /// Every tier this build and CPU can run, the scalar tier included.
    fn tiers() -> Vec<simd::Tier> {
        [simd::Tier::Scalar, simd::Tier::Avx2, simd::Tier::Avx512]
            .into_iter()
            .filter(|&t| t <= simd::tier())
            .collect()
    }

    fn bits(p: &Param) -> [Vec<u32>; 4] {
        [&p.value, &p.grad, &p.m, &p.v]
            .map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
    }

    #[test]
    fn single_pass_update_is_bit_identical_to_the_two_pass_formula() {
        // 37 elements: two 16-lane blocks and a 5-element scalar tail, so
        // every value below passes through both the vector and the tail
        // code on some step.
        let len = 37;
        let init: Vec<f32> = (0..len)
            .map(|i| [0.5f32, -1.25, 0.0, 3.0, -0.0, 1e-3, 7.5, -2.0][i % 8] * (1 + i / 8) as f32)
            .collect();
        // Zero, signed-zero, subnormal, large and overflowing-square
        // gradients, varying across steps.
        let grads: [[f32; 8]; 4] = [
            [0.0, -0.0, 1e-40, 1e20, -3e38, 0.5, -0.125, 2.0],
            [1.0, 0.0, -1e-40, -1e20, 0.0, 0.25, 1e-8, -7.0],
            [-0.5, 3e38, 0.0, 0.0, 1.5, -0.0, 1e5, 0.0],
            [0.0; 8],
        ];
        for tier in tiers() {
            let mut fast = Param::new(Matrix::from_vec(1, len, init.clone()));
            let mut slow = fast.clone();
            let mut adam = Adam::new(3e-4);
            for step in 0..6 {
                let g: Vec<f32> = (0..len)
                    .map(|i| grads[(step + i / 8) % grads.len()][i % 8])
                    .collect();
                fast.grad.as_mut_slice().copy_from_slice(&g);
                slow.grad.as_mut_slice().copy_from_slice(&g);
                adam.begin_step();
                simd::with_forced_tier(tier, || adam.update_param(&mut fast));
                two_pass_update(&adam, &mut slow);
                assert_eq!(
                    bits(&fast),
                    bits(&slow),
                    "diverged at step {step} ({} tier)",
                    tier.name()
                );
            }
        }
    }

    #[test]
    fn scaled_step_is_bit_identical_to_clipping_in_place() {
        // The trainer's fused clip-and-step against the two passes it
        // replaced: clip_global_grad_norm scaling the gradients in place,
        // then Adam::step. Tensor lengths hit the 16-lane blocks, tails and
        // an empty tensor.
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 40) as f32 / (1u64 << 24) as f32 * 4.0 - 2.0
        };
        let shapes = [
            (1, 0),
            (1, 1),
            (3, 5),
            (2, 8),
            (1, 16),
            (4, 17),
            (7, 9),
            (64, 11),
        ];
        let params: Vec<Param> = shapes
            .iter()
            .map(|&(r, c)| Param::new(Matrix::from_vec(r, c, (0..r * c).map(|_| next()).collect())))
            .collect();
        for tier in tiers() {
            let mut fused = params.clone();
            let mut reference = params.clone();
            let mut adam_fused = Adam::new(1e-2);
            let mut adam_ref = Adam::new(1e-2);
            for step in 0..4 {
                for (f, r) in fused.iter_mut().zip(reference.iter_mut()) {
                    let g: Vec<f32> = (0..f.len()).map(|_| next()).collect();
                    f.grad.as_mut_slice().copy_from_slice(&g);
                    r.grad.as_mut_slice().copy_from_slice(&g);
                }
                // Step 0 clips hard, the last step not at all.
                let max_norm = [0.5f32, 3.0, 20.0, 1e9][step];
                let norm = simd::with_forced_tier(tier, || {
                    crate::grad::reduce_grads(&[], |f| fused.iter_mut().for_each(&mut *f))
                })
                .sqrt();
                let scale = clip_scale(max_norm, norm);
                assert_eq!(scale.is_none(), step == 3);
                simd::with_forced_tier(tier, || {
                    adam_fused.step_scaled(scale, |f| fused.iter_mut().for_each(&mut *f))
                });
                // The scalar clip and Adam this module had before.
                let ref_norm = reference
                    .iter()
                    .map(|p| p.grad.as_slice().iter().map(|g| g * g).sum::<f32>())
                    .fold(0.0f32, |acc, s| acc + s)
                    .sqrt();
                if ref_norm > max_norm && ref_norm > 0.0 {
                    reference
                        .iter_mut()
                        .for_each(|p| p.grad.scale(max_norm / ref_norm));
                }
                adam_ref.begin_step();
                reference
                    .iter_mut()
                    .for_each(|p| two_pass_update(&adam_ref, p));
                assert_eq!(norm.to_bits(), ref_norm.to_bits());
                for (f, r) in fused.iter().zip(reference.iter()) {
                    assert_eq!(bits(f)[0], bits(r)[0], "values, step {step}");
                    assert_eq!(bits(f)[2..], bits(r)[2..], "moments, step {step}");
                }
            }
        }
    }
}
