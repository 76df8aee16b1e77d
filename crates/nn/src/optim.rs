//! Optimizers: Adam with bias correction, plus global gradient-norm clipping.
//!
//! The Adam update runs as one pass per tensor through a kernel
//! instantiated per SIMD tier (`tiered_kernel!` in [`crate::matrix`]).
//! It multiplies by the clip factor, when there is one, and then updates
//! `m`, `v`, `m̂`, `v̂` and the value with the scalar formula's IEEE
//! operations in the scalar formula's order: no fused multiply-add, and
//! division and square root are correctly rounded in every lane. So the
//! tiers return the scalar update's bits and differ only in speed.
//!
//! Parameters whose gradients stay zero (the input-layer rows of window
//! slots that short episodes never fill) leave their first moments to
//! decay into subnormal fixed points of `m ← RN(β1·m)`, where they stay.
//! On x86 every multiply or divide that reads such a lane takes a
//! microcode assist: at the end of an attack-fr run that more than
//! doubled the Adam step's time per minibatch (about 95 against 40 µs on
//! a Sapphire Rapids host). The kernel recognises a block whose every
//! lane is in that
//! state and skips the operations whose results it knows exactly; the
//! derivation is on `adam_update_body`.

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
        let step = self.begin_scaled_step(grad_scale);
        visit(&mut |p: &mut Param| update_tensor(p, &step));
    }

    /// Begins a new update step, as [`Adam::begin_step`], and returns what
    /// [`Adam::step_scaled`] applies to every element on it, for a caller
    /// that updates the parameters' element ranges itself (say, on
    /// several threads) through [`AdamStep::update`].
    pub fn begin_scaled_step(&mut self, grad_scale: Option<f32>) -> AdamStep {
        self.begin_step();
        self.coeffs(grad_scale)
    }

    /// Applies one Adam update to a single parameter using its accumulated
    /// gradient, then leaves the gradient untouched (call
    /// [`Param::zero_grad`] separately).
    pub fn update_param(&self, p: &mut Param) {
        update_tensor(p, &self.coeffs(None));
    }

    fn coeffs(&self, grad_scale: Option<f32>) -> AdamStep {
        debug_assert!(self.t > 0, "call begin_step before update_param");
        let mut c = AdamStep {
            grad_scale,
            beta1: self.beta1,
            one_minus_beta1: 1.0 - self.beta1,
            beta2: self.beta2,
            one_minus_beta2: 1.0 - self.beta2,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
            lr: self.lr,
            eps: self.eps,
            stuck_bound: 0,
        };
        c.stuck_bound = c.stuck_moment_bound();
        c
    }
}

/// The scalars one Adam step applies to every element
/// ([`Adam::begin_scaled_step`]).
#[derive(Debug)]
pub struct AdamStep {
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
    /// `K` of the stuck-moment fast path on this step, or 0 when the fast
    /// path is off (see [`adam_update_body`]): a lane whose `|m|` is at
    /// most `K·2⁻¹⁴⁹`, i.e. whose magnitude bits are in `1..=K`, can be
    /// stuck.
    stuck_bound: u32,
}

impl AdamStep {
    /// This step over one range of a parameter: `value`, `grad`, `m` and
    /// `v` are the same elements of the parameter's four tensors. Every
    /// element gets the operations [`Adam::step_scaled`] gives it, so
    /// updating a tensor range by range gives its bits. A range that
    /// starts at a multiple of 16 into its tensor also runs the same
    /// 16-lane blocks, and so takes the stuck-moment fast path on the same
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics unless the four slices have one length.
    pub fn update(&self, value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]) {
        assert!(
            grad.len() == value.len() && m.len() == value.len() && v.len() == value.len(),
            "Param buffers must share one shape"
        );
        adam_update(value, grad, m, v, self);
    }

    /// The largest `K` for which every `k` in `1..=K` is a fixed point of
    /// `k·2⁻¹⁴⁹ ← RN(β1·k·2⁻¹⁴⁹)`, if this step meets the fast path's
    /// other conditions (`bc1 == 1`, `lr·K ≤ 0.5` with `lr ≥ +0`, a finite
    /// clip scale, `bc2 > 0` and `eps > 0`); otherwise 0.
    ///
    /// For `0 < β1 < 1` the product `β1·k·2⁻¹⁴⁹` stays on the subnormal
    /// grid of spacing `2⁻¹⁴⁹`, so it rounds to `k·2⁻¹⁴⁹` exactly when
    /// `RN(β1·k) = k` in integers (ties to even): `k·(1 − β1) < 1/2`, or
    /// `= 1/2` with `k` even. That holds for a prefix `1..=K` of the
    /// integers; `β1·k` is exact in `f64`, so the test is too. For the
    /// default `β1 = 0.9` (`0.89999998`), `K = 4`.
    fn stuck_moment_bound(&self) -> u32 {
        let lr_ok = self.lr >= 0.0 && self.lr.is_sign_positive();
        let scale_ok = self.grad_scale.is_none_or(f32::is_finite);
        let beta_ok = self.beta1 > 0.0 && self.beta1 < 1.0;
        if !(self.bc1 == 1.0 && self.bc2 > 0.0 && self.eps > 0.0 && lr_ok && scale_ok && beta_ok) {
            return 0;
        }
        const MAX_SUBNORMAL: u32 = (1 << 23) - 1;
        let beta1 = f64::from(self.beta1);
        let fixed = |k: u32| (beta1 * f64::from(k)).round_ties_even() == f64::from(k);
        let guess = (0.5 / (1.0 - beta1)).min(f64::from(MAX_SUBNORMAL));
        let mut k = guess as u32;
        while k > 0 && !fixed(k) {
            k -= 1;
        }
        while k < MAX_SUBNORMAL && fixed(k + 1) {
            k += 1;
        }
        if f64::from(self.lr) * f64::from(k) <= 0.5 {
            k
        } else {
            0
        }
    }
}

fn update_tensor(p: &mut Param, step: &AdamStep) {
    let Param { value, grad, m, v } = p;
    step.update(
        value.as_mut_slice(),
        grad.as_slice(),
        m.as_mut_slice(),
        v.as_mut_slice(),
    );
}

tiered_kernel! {
    /// Tier-dispatched [`adam_update_body`].
    fn adam_update / adam_update_body(
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        c: &AdamStep,
    )
}

/// One Adam step over a tensor: 16 lanes at a time, then the scalar
/// formula ([`adam_lane`]) on the tail, with the same operations per
/// element on both.
///
/// # Stuck first moments
///
/// A lane is *stuck* when its (clip-scaled) gradient is `±0` and its first
/// moment is a nonzero subnormal with `|m| ≤ K·2⁻¹⁴⁹`, `K` as
/// [`AdamStep::stuck_moment_bound`] computes it. On a step with
/// `bc1 == 1` (from about step 165 on for `β1 = 0.9`), `lr·K ≤ 1/2`,
/// `bc2 > 0` and `eps > 0`, the formula's result for a stuck lane is
/// known exactly:
///
/// * `m′ = RN(β1·m) + RN((1 − β1)·g) = m + (±0) = m`: `m` is a fixed
///   point of the product, and adding a signed zero to a nonzero value
///   returns it;
/// * `v′ = β2·v + ((1 − β2)·g)·g`, computed as always;
/// * `m̂ = m′ / bc1 = m`, dividing by 1 being exact;
/// * `RN(lr·m̂)` is `±0` with `m`'s sign, because
///   `|lr·m| ≤ lr·K·2⁻¹⁴⁹ ≤ ½·2⁻¹⁴⁹` rounds to zero (a tie goes to the
///   even zero);
/// * so when the denominator `D = √(v′/bc2) + eps` is positive (it is
///   whenever `v′ ≥ 0`, infinity included, and NaN otherwise), the step
///   subtracts that signed zero: `value′ = value − (±0 with m's sign)`,
///   the very operands the formula's last subtraction sees.
///
/// A block whose 16 lanes are all stuck computes `v′`, checks that every
/// `v′` is non-negative or `+∞` and then writes `v′` and `value′` and
/// leaves `m` as it is. That skips the multiplies and divides that read
/// or round to subnormals, each of which costs a microcode assist on x86.
/// The tests are integer tests on the bits (`g << 1 == 0`; `m`'s
/// magnitude bits in `1..=K`), which take no assist. Any other block, or
/// a stuck block with a negative or NaN `v′`, runs the full formula.
#[inline(always)]
fn adam_update_body<I: Isa>(
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    c: &AdamStep,
) {
    const L: usize = 16;
    debug_assert_eq!(L, I::F16::LANES);
    let n16 = value.len() & !(L - 1);
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
        let v_new = beta2 * I::F16::from_slice(&v[j..]) + one_minus_beta2 * g * g;
        if c.stuck_bound > 0 && stuck_block(&grad[j..j + L], &m[j..j + L], c.stuck_bound) {
            let mut v_out = [0.0f32; L];
            v_new.write_to_slice(&mut v_out);
            // `v′ ≥ 0` or `+∞`: not negative, not NaN.
            if v_out
                .iter()
                .fold(true, |ok, v| ok & (v.to_bits() <= 0x7f80_0000))
            {
                let mut signed_zero = [0.0f32; L];
                for (z, m) in signed_zero.iter_mut().zip(&m[j..j + L]) {
                    *z = f32::from_bits(m.to_bits() & 0x8000_0000);
                }
                let val = I::F16::from_slice(&value[j..]) - I::F16::from_slice(&signed_zero);
                v[j..j + L].copy_from_slice(&v_out);
                val.write_to_slice(&mut value[j..]);
                j += L;
                continue;
            }
        }
        let m_new = beta1 * I::F16::from_slice(&m[j..]) + one_minus_beta1 * g;
        let m_hat = m_new / bc1;
        let v_hat = v_new / bc2;
        let val = I::F16::from_slice(&value[j..]) - lr * m_hat / (v_hat.sqrt() + eps);
        m_new.write_to_slice(&mut m[j..]);
        v_new.write_to_slice(&mut v[j..]);
        val.write_to_slice(&mut value[j..]);
        j += L;
    }
    for i in j..value.len() {
        adam_lane(&mut value[i], grad[i], &mut m[i], &mut v[i], c);
    }
}

/// Whether every lane is stuck ([`adam_update_body`]): a `±0` gradient
/// and a first moment whose magnitude bits are in `1..=bound`. Integer
/// tests only, folded without a branch per lane.
#[inline(always)]
fn stuck_block(grad: &[f32], m: &[f32], bound: u32) -> bool {
    grad.iter().zip(m).fold(true, |ok, (g, m)| {
        let zero_grad = g.to_bits() << 1 == 0;
        let magnitude = m.to_bits() & 0x7fff_ffff;
        ok & zero_grad & (magnitude.wrapping_sub(1) < bound)
    })
}

/// The scalar Adam formula for one element.
#[inline(always)]
fn adam_lane(val: &mut f32, mut g: f32, m: &mut f32, v: &mut f32, c: &AdamStep) {
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

    /// Adam's subnormal regime: gradients that go to `±0` leave the first
    /// moments to decay through the subnormal range into the fixed points
    /// of `m ← RN(0.9·m)` (`±k·2⁻¹⁴⁹`, `k ≤ 4`), where they stay. Every
    /// step, from the early ones where `bc1 ≠ 1` to well past the point
    /// where `bc1` rounds to 1, must match the two-pass formula bit for
    /// bit on every tier: for both signs of `m`, for signed-zero values,
    /// for second moments that are zero, infinite or negative (whose
    /// denominators are NaN), with and without a clip scale, and for
    /// learning rates below, at (`lr·4 = 0.5`) and above that bound.
    #[test]
    fn stuck_subnormal_moments_match_the_two_pass_formula() {
        // Six 16-lane blocks and a 3-lane tail.
        let len = 99;
        let value: Vec<f32> = (0..len)
            .map(|i| match i % 7 {
                0 => 0.0,
                1 => -0.0,
                2 => 1.5,
                3 => -0.25,
                _ => (i as f32 - 40.0) * 1e-3,
            })
            .collect();
        // The gradient of lane `i` at `step`: nonzero of either sign for
        // the first few steps (a lane's own count), then `±0` for good,
        // except that block 4 keeps one live lane and block 5 comes back
        // to life late.
        let grad = |i: usize, step: usize| -> f32 {
            let live_until = 3 + i % 5;
            let revived = i / 16 == 5 && (600..610).contains(&step);
            if step < live_until || revived || (i == 70 && step.is_multiple_of(3)) {
                let sign = if (i + step).is_multiple_of(3) {
                    -1.0
                } else {
                    1.0
                };
                sign * (0.5 + i as f32 * 0.01)
            } else if (i + step).is_multiple_of(2) {
                0.0
            } else {
                -0.0
            }
        };
        for tier in tiers() {
            for (lr, scaled) in [(3e-4f32, false), (0.125, true), (0.13, false), (0.2, true)] {
                let mut fast = Param::new(Matrix::from_vec(1, len, value.clone()));
                // Block 2's second moments start infinite, block 3's
                // negative (a NaN denominator once the gradient is zero).
                for i in 32..48 {
                    fast.v.as_mut_slice()[i] = f32::INFINITY;
                }
                for i in 48..64 {
                    fast.v.as_mut_slice()[i] = -1.0;
                }
                let mut slow = fast.clone();
                let mut adam = Adam::new(lr);
                let scale = scaled.then_some(0.75f32);
                let mut stuck = 0;
                for step in 0..1200 {
                    let g: Vec<f32> = (0..len).map(|i| grad(i, step)).collect();
                    fast.grad.as_mut_slice().copy_from_slice(&g);
                    if let Some(s) = scale {
                        slow.grad
                            .as_mut_slice()
                            .iter_mut()
                            .zip(&g)
                            .for_each(|(dst, &g)| *dst = g * s);
                    } else {
                        slow.grad.as_mut_slice().copy_from_slice(&g);
                    }
                    simd::with_forced_tier(tier, || adam.step_scaled(scale, |f| f(&mut fast)));
                    two_pass_update(&adam, &mut slow);
                    let what = format!("step {step}, lr {lr}, {} tier", tier.name());
                    assert_eq!(bits(&fast)[0], bits(&slow)[0], "values, {what}");
                    assert_eq!(bits(&fast)[2..], bits(&slow)[2..], "moments, {what}");
                    stuck = fast
                        .m
                        .as_slice()
                        .iter()
                        .filter(|m| m.is_subnormal())
                        .count();
                }
                // Both signs end up stuck.
                let m = fast.m.as_slice();
                assert!(m.iter().any(|&m| m.is_subnormal() && m > 0.0));
                assert!(m.iter().any(|&m| m.is_subnormal() && m < 0.0));
                assert!(stuck >= 64, "only {stuck} subnormal moments");
            }
        }
    }

    /// The stuck-moment states a run rarely reaches, built directly on a
    /// restored optimizer past the point where `bc1` rounds to 1: values of
    /// `-0` under negative stuck moments (where the signed zero the step
    /// subtracts decides the result's sign), a block whose lanes are all
    /// stuck but one second moment is negative or NaN (a NaN denominator:
    /// the whole block must run the formula), infinite second moments, a
    /// block with one moment just above the fixed points and one with a
    /// live gradient. Every step must match the two-pass formula bit for
    /// bit on every tier.
    #[test]
    fn constructed_stuck_states_match_the_two_pass_formula() {
        let tiny = |k: i32| f32::from_bits(k.unsigned_abs()).copysign(k as f32);
        let len = 6 * 16 + 5;
        let mut p = Param::zeros(1, len);
        for i in 0..len {
            let (block, lane) = (i / 16, i % 16);
            p.value.as_mut_slice()[i] = [0.0, -0.0, 1.5, -2.5][lane % 4];
            p.m.as_mut_slice()[i] = tiny([1, -1, 2, -2, 3, -3, 4, -4][lane % 8]);
            p.v.as_mut_slice()[i] = [0.0, 1e-3, 2.5e-7, 0.5][lane % 4];
            p.grad.as_mut_slice()[i] = if lane % 3 == 0 { -0.0 } else { 0.0 };
            match (block, lane) {
                (1, 5) => p.v.as_mut_slice()[i] = -1.0,
                (2, 9) => p.v.as_mut_slice()[i] = f32::NAN,
                (3, _) => p.v.as_mut_slice()[i] = f32::INFINITY,
                (4, 2) => p.m.as_mut_slice()[i] = tiny(-5),
                (5, 11) => p.grad.as_mut_slice()[i] = 1e-3,
                _ => {}
            }
        }
        for tier in tiers() {
            for (lr, scale) in [(3e-4f32, None), (0.125, Some(0.5f32)), (0.13, None)] {
                let mut fast = p.clone();
                let mut slow = p.clone();
                let mut adam = Adam::restore(lr, 0.9, 0.999, 1e-8, 500);
                for step in 0..5 {
                    simd::with_forced_tier(tier, || adam.step_scaled(scale, |f| f(&mut fast)));
                    if let Some(s) = scale {
                        slow.grad.scale(s);
                    }
                    two_pass_update(&adam, &mut slow);
                    slow.grad = fast.grad.clone();
                    let what = format!("step {step}, lr {lr}, {} tier", tier.name());
                    assert_eq!(bits(&fast)[0], bits(&slow)[0], "values, {what}");
                    assert_eq!(bits(&fast)[2..], bits(&slow)[2..], "moments, {what}");
                }
            }
        }
    }

    /// `K` of the stuck-moment fast path: 4 for the default `β1` once
    /// `bc1` rounds to 1, off before that and above the `lr·K ≤ 1/2`
    /// bound, and every `k ≤ K` (and no larger) a fixed point of the
    /// subnormal product.
    #[test]
    fn stuck_moment_bound_is_the_largest_fixed_point() {
        let bound = |lr: f32, beta1: f32, t: u64, scale: Option<f32>| {
            let mut adam = Adam::new(lr);
            adam.beta1 = beta1;
            adam.t = t;
            adam.coeffs(scale).stuck_bound
        };
        assert_eq!(bound(3e-4, 0.9, 500, None), 4);
        assert_eq!(bound(3e-4, 0.9, 500, Some(0.3)), 4);
        assert_eq!(bound(0.125, 0.9, 500, None), 4);
        assert_eq!(bound(0.13, 0.9, 500, None), 0);
        assert_eq!(bound(3e-4, 0.9, 100, None), 0, "bc1 < 1");
        assert_eq!(bound(-0.0, 0.9, 500, None), 0);
        assert_eq!(bound(3e-4, 0.9, 500, Some(f32::INFINITY)), 0);
        assert_eq!(bound(3e-4, 1.0, 500, None), 0);
        for beta1 in [0.9f32, 0.5, 0.99, 0.999, 0.3] {
            let k = bound(1e-6, beta1, 100_000, None);
            let stuck = |k: u32| beta1 * f32::from_bits(k) == f32::from_bits(k);
            assert!((1..=k).all(stuck), "beta1 {beta1}: K = {k}");
            assert!(!stuck(k + 1), "beta1 {beta1}: K = {k}");
        }
        assert_eq!(bound(1e-6, 0.99, 100_000, None), 50);
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
