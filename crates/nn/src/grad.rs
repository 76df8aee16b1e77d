//! Gradient and parameter plumbing for the data-parallel trainer.
//!
//! The sharded PPO update (see `autocat-ppo`) runs every minibatch shard
//! against the one primary model, each shard accumulating its gradients
//! into its own tape, then reduces the shards' gradients into the primary
//! **in fixed shard order** so the result is bit-identical no matter how
//! many threads did the work. This module provides:
//!
//! * [`reduce_grads`] — the fixed-order reduction: adds each shard's
//!   gradient tensors into a model's live gradients in one SIMD pass, and
//!   returns the squared global norm of the result from the same pass,
//!   which the optimizer's clip reads (with no shards it is the norm
//!   alone);
//! * [`snapshot_param_values`] / [`load_param_values`] — copy weights out
//!   of one model and into an identically-shaped one;
//! * [`GradBuffer`] — a detached copy of a model's gradients with a
//!   one-shard-at-a-time [`GradBuffer::accumulate_into`].
//!
//! The trainer calls only [`reduce_grads`]; the other pieces stay as what
//! the benchmark's update probe and the reduction tests call.
//!
//! Everything here works through the same visitor idiom as
//! [`crate::optim::clip_global_grad_norm`]: the caller passes a closure
//! that applies a `FnMut(&mut Param)` to every parameter (models expose
//! `visit_params`), which keeps this module independent of any concrete
//! backbone. The visitation order is the model's fixed parameter walk, so
//! tensors taken from one model always line up with another of the same
//! architecture.

use crate::matrix::{tiered_kernel, Matrix};
use crate::param::Param;
use simd::{Isa, SimdF32x16, SimdF32x8};

/// The visitor signature models expose as `visit_params`.
type ParamVisitor<'a> = dyn FnMut(&mut Param) + 'a;

/// A detached copy of every gradient tensor of one model, in parameter
/// visitation order.
///
/// The trainer reduces shards with [`reduce_grads`] instead; this type
/// remains as the reference the benchmark's update probe calls and the
/// reduction tests compare against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GradBuffer {
    grads: Vec<Matrix>,
}

impl GradBuffer {
    /// Copies the accumulated gradients out of a model (one worker's shard
    /// result, ready for the fixed-order reduction).
    pub fn harvest(mut visit: impl FnMut(&mut ParamVisitor)) -> Self {
        let mut grads = Vec::new();
        visit(&mut |p: &mut Param| grads.push(p.grad.clone()));
        Self { grads }
    }

    /// Adds this buffer into a model's live gradients.
    ///
    /// Call once per shard, in shard order, after zeroing the model's
    /// gradients: the reduction order is then fixed by the shard layout
    /// alone, never by which thread finished first.
    ///
    /// # Panics
    ///
    /// Panics if the buffer does not match the model's parameter walk
    /// (tensor count or shape) — that is a programming error, the buffer
    /// was harvested from a different architecture.
    pub fn accumulate_into(&self, mut visit: impl FnMut(&mut ParamVisitor)) {
        let mut index = 0usize;
        visit(&mut |p: &mut Param| {
            let shard = self
                .grads
                .get(index)
                .expect("GradBuffer has fewer tensors than the model");
            p.grad.add_assign(shard);
            index += 1;
        });
        assert_eq!(
            index,
            self.grads.len(),
            "GradBuffer has more tensors than the model"
        );
    }
}

/// Adds every shard's gradient tensors into a model's live gradients, in
/// shard order, and returns the squared global L2 norm of the result.
///
/// `shards` holds one tensor list per shard, each in the model's
/// parameter visitation order. Per element the result is
/// `((g + s₁) + s₂) + …`, exactly what one [`GradBuffer::accumulate_into`]
/// per shard computes, so the reduction order is fixed by the shard
/// order alone. The norm is summed per tensor as one scalar chain
/// `((+0 + r₀²) + r₁²) + …` in ascending element order, and the tensor
/// sums are added in visitation order: the sequence
/// [`crate::optim::clip_global_grad_norm`] uses, which calls this with no
/// shards.
///
/// # Panics
///
/// Panics if a shard does not match the model's parameter walk (tensor
/// count or shape) — a programming error, as for
/// [`GradBuffer::accumulate_into`].
pub fn reduce_grads(shards: &[&[Matrix]], mut visit: impl FnMut(&mut ParamVisitor)) -> f32 {
    let mut sources: Vec<&[f32]> = Vec::with_capacity(shards.len());
    let mut sq_sum = 0.0f32;
    let mut index = 0usize;
    visit(&mut |p: &mut Param| {
        sources.clear();
        for shard in shards {
            let tensor = shard
                .get(index)
                .expect("shard has fewer tensors than the model");
            assert_eq!(
                (tensor.rows(), tensor.cols()),
                (p.grad.rows(), p.grad.cols()),
                "shard tensor {index} shape mismatch"
            );
            sources.push(tensor.as_slice());
        }
        sq_sum += reduce_sq_sum(p.grad.as_mut_slice(), &sources);
        index += 1;
    });
    for shard in shards {
        assert_eq!(shard.len(), index, "shard has more tensors than the model");
    }
    sq_sum
}

tiered_kernel! {
    /// One tensor's share of [`reduce_grads`]: adds `sources` into `dst`
    /// one after another and returns the sum of the squares of the result
    /// as one scalar chain `((+0 + r₀²) + r₁²) + …` in ascending element
    /// order. Tensors reduced separately, say on different threads, give
    /// [`reduce_grads`]'s result bit for bit when their chains are added
    /// in visitation order starting from `+0`.
    ///
    /// # Panics
    ///
    /// Panics unless every source is as long as `dst`.
    pub fn reduce_sq_sum / reduce_sq_sum_body(dst: &mut [f32], sources: &[&[f32]]) -> f32
}

/// Adds `sources` into `dst` one after another and returns the sum of the
/// squares of the result. Vectorised across elements (16 lanes, one
/// optional 8-lane step, then a scalar tail), so each element still sees
/// its adds in source order; the squares go into one scalar chain in
/// ascending element order, which no vector width can reorder.
///
/// A 16-lane block whose squares are all `+0` (zero or underflowing
/// gradients, such as the input-layer rows no observation in the
/// minibatch touched) leaves the chain out: the chain starts at `+0` and
/// only ever adds squares, which are never negative, so it is never `−0`,
/// and adding `+0` to anything else returns it unchanged.
#[inline(always)]
fn reduce_sq_sum_body<I: Isa>(dst: &mut [f32], sources: &[&[f32]]) -> f32 {
    let len = dst.len();
    for src in sources {
        assert_eq!(src.len(), len, "reduce source length mismatch");
    }
    let mut sq_sum = 0.0f32;
    let mut squares = [0.0f32; 16];
    let n16 = len & !(I::F16::LANES - 1);
    let mut j = 0;
    while j < n16 {
        let mut acc = I::F16::from_slice(&dst[j..]);
        for src in sources {
            acc = acc + I::F16::from_slice(&src[j..]);
        }
        acc.write_to_slice(&mut dst[j..]);
        (acc * acc).write_to_slice(&mut squares);
        if squares.iter().fold(0, |bits, sq| bits | sq.to_bits()) != 0 {
            for &sq in &squares {
                sq_sum += sq;
            }
        }
        j += I::F16::LANES;
    }
    if j + I::F8::LANES <= len {
        let mut acc = I::F8::from_slice(&dst[j..]);
        for src in sources {
            acc = acc + I::F8::from_slice(&src[j..]);
        }
        acc.write_to_slice(&mut dst[j..]);
        (acc * acc).write_to_slice(&mut squares);
        for &sq in &squares[..I::F8::LANES] {
            sq_sum += sq;
        }
        j += I::F8::LANES;
    }
    for (i, out) in dst.iter_mut().enumerate().skip(j) {
        let mut x = *out;
        for src in sources {
            x += src[i];
        }
        *out = x;
        sq_sum += x * x;
    }
    sq_sum
}

/// Copies every parameter *value* out of a model, in visitation order
/// (gradients and optimizer moments are not included).
pub fn snapshot_param_values(mut visit: impl FnMut(&mut ParamVisitor)) -> Vec<Matrix> {
    let mut values = Vec::new();
    visit(&mut |p: &mut Param| values.push(p.value.clone()));
    values
}

/// Overwrites a model's parameter values with a snapshot taken by
/// [`snapshot_param_values`] from an identically-shaped model.
///
/// # Panics
///
/// Panics if the snapshot does not match the model's parameter walk.
pub fn load_param_values(values: &[Matrix], mut visit: impl FnMut(&mut ParamVisitor)) {
    let mut index = 0usize;
    visit(&mut |p: &mut Param| {
        let src = values
            .get(index)
            .expect("snapshot has fewer tensors than the model");
        assert_eq!(
            (src.rows(), src.cols()),
            (p.value.rows(), p.value.cols()),
            "snapshot tensor {index} shape mismatch"
        );
        p.value.as_mut_slice().copy_from_slice(src.as_slice());
        index += 1;
    });
    assert_eq!(
        index,
        values.len(),
        "snapshot has more tensors than the model"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(rows: usize, cols: usize, fill: f32) -> Param {
        let mut p = Param::zeros(rows, cols);
        p.grad = Matrix::full(rows, cols, fill);
        p
    }

    #[test]
    fn harvest_then_accumulate_doubles_gradients() {
        let mut a = param(2, 3, 1.5);
        let mut b = param(1, 2, -0.25);
        let buf = GradBuffer::harvest(|f| {
            f(&mut a);
            f(&mut b);
        });
        buf.accumulate_into(|f| {
            f(&mut a);
            f(&mut b);
        });
        assert!(a.grad.as_slice().iter().all(|&g| g == 3.0));
        assert!(b.grad.as_slice().iter().all(|&g| g == -0.5));
    }

    #[test]
    fn fixed_order_reduction_is_order_of_calls_not_threads() {
        // Reducing shard buffers in a fixed order is exactly "call
        // accumulate_into sequentially": verify additivity over two
        // distinct buffers.
        let mut p = param(1, 2, 0.0);
        let mut s1 = param(1, 2, 1.0);
        let mut s2 = param(1, 2, 10.0);
        let b1 = GradBuffer::harvest(|f| f(&mut s1));
        let b2 = GradBuffer::harvest(|f| f(&mut s2));
        b1.accumulate_into(|f| f(&mut p));
        b2.accumulate_into(|f| f(&mut p));
        assert!(p.grad.as_slice().iter().all(|&g| g == 11.0));
    }

    #[test]
    #[should_panic(expected = "more tensors")]
    fn tensor_count_mismatch_panics() {
        let mut a = param(1, 1, 0.0);
        let mut b = param(1, 1, 0.0);
        let buf = GradBuffer::harvest(|f| {
            f(&mut a);
            f(&mut b);
        });
        buf.accumulate_into(|f| f(&mut a));
    }

    #[test]
    fn snapshot_round_trips_values_only() {
        let mut src = param(2, 2, 7.0);
        src.value = Matrix::full(2, 2, 3.25);
        src.m = Matrix::full(2, 2, 9.0);
        let snap = snapshot_param_values(|f| f(&mut src));

        let mut dst = param(2, 2, 5.0);
        load_param_values(&snap, |f| f(&mut dst));
        assert_eq!(dst.value, src.value);
        // Gradients and moments are untouched by a load.
        assert!(dst.grad.as_slice().iter().all(|&g| g == 5.0));
        assert!(dst.m.as_slice().iter().all(|&m| m == 0.0));
    }

    /// Every tier this build and CPU can run, the scalar tier included.
    fn tiers() -> Vec<simd::Tier> {
        [simd::Tier::Scalar, simd::Tier::Avx2, simd::Tier::Avx512]
            .into_iter()
            .filter(|&t| t <= simd::tier())
            .collect()
    }

    /// Gradient-like values with `±0`, subnormals and rounding-sensitive
    /// magnitudes mixed in.
    fn awkward(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                match state % 11 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => unit * 1e-39,
                    3 => unit * 1e7,
                    _ => unit,
                }
            })
            .collect()
    }

    #[test]
    fn reduce_grads_matches_accumulate_then_norm_on_every_tier() {
        // Lengths hit the empty tensor, the scalar tail alone, the 8-lane
        // step, full 16-lane blocks and every combination of the three.
        let shapes: Vec<(usize, usize)> = (0..=40)
            .map(|n| (1, n))
            .chain([(7, 9), (64, 11), (33, 17)])
            .collect();
        let params = |seed: u64| -> Vec<Param> {
            shapes
                .iter()
                .enumerate()
                .map(|(i, &(r, c))| {
                    let mut p = Param::zeros(r, c);
                    p.grad = Matrix::from_vec(r, c, awkward(r * c, seed * 1000 + i as u64));
                    p
                })
                .collect()
        };
        for sources in 0..=8u64 {
            let mut shards: Vec<Vec<Param>> = (1..=sources).map(params).collect();
            let buffers: Vec<GradBuffer> = shards
                .iter_mut()
                .map(|shard| GradBuffer::harvest(|f| shard.iter_mut().for_each(&mut *f)))
                .collect();
            let tensors: Vec<Vec<Matrix>> = shards
                .iter()
                .map(|shard| shard.iter().map(|p| p.grad.clone()).collect())
                .collect();
            let views: Vec<&[Matrix]> = tensors.iter().map(Vec::as_slice).collect();

            let mut reference = params(0);
            for buf in &buffers {
                buf.accumulate_into(|f| reference.iter_mut().for_each(&mut *f));
            }
            let mut want_sq = 0.0f32;
            for p in &reference {
                want_sq += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>();
            }

            for tier in tiers() {
                let mut primary = params(0);
                let sq = simd::with_forced_tier(tier, || {
                    reduce_grads(&views, |f| primary.iter_mut().for_each(&mut *f))
                });
                let what = format!("{sources} sources, {} tier", tier.name());
                assert_eq!(sq.to_bits(), want_sq.to_bits(), "norm², {what}");
                for (got, want) in primary.iter().zip(&reference) {
                    let bits =
                        |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.grad), bits(&want.grad), "{what}");
                }
            }
        }
    }

    /// Blocks whose squares are all `+0` (zero, signed-zero and
    /// underflowing gradients) leave the norm chain out; the chain must
    /// still equal the plain one over every square, on every tier, with
    /// such blocks first, last, between live ones and making up a whole
    /// tensor.
    #[test]
    fn zero_square_blocks_leave_the_norm_chain_unchanged() {
        let live = awkward(16 * 9 + 11, 7);
        let dead = |i: usize| [0.0f32, -0.0, 1e-30, -3e-25, 1e-39][i % 5];
        for dead_blocks in [vec![0usize], vec![8], vec![1, 2, 5], (0..9).collect()] {
            // Element 48 is dead too, so block 3, when live, starts with
            // a `+0` square.
            let is_dead = |i: usize| i == 48 || dead_blocks.contains(&(i / 16));
            let grad: Vec<f32> = (0..live.len())
                .map(|i| if is_dead(i) { dead(i) } else { live[i] })
                .collect();
            let shard: Vec<f32> = (0..live.len())
                .map(|i| if is_dead(i) { dead(i + 2) } else { 0.5 })
                .collect();
            let mut want = grad.clone();
            want.iter_mut().zip(&shard).for_each(|(g, s)| *g += s);
            let want_sq = want.iter().fold(0.0f32, |acc, g| acc + g * g);
            for tier in tiers() {
                let mut got = grad.clone();
                let sq = simd::with_forced_tier(tier, || reduce_sq_sum(&mut got, &[&shard]));
                let what = format!("dead blocks {dead_blocks:?}, {} tier", tier.name());
                assert_eq!(sq.to_bits(), want_sq.to_bits(), "{what}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{what}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "more tensors")]
    fn reduce_grads_rejects_a_longer_shard() {
        let mut a = param(1, 2, 0.0);
        let extra = vec![Matrix::zeros(1, 2), Matrix::zeros(1, 2)];
        reduce_grads(&[&extra], |f| f(&mut a));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn reduce_grads_rejects_a_misshapen_shard() {
        let mut a = param(1, 2, 0.0);
        let wrong = vec![Matrix::zeros(2, 1)];
        reduce_grads(&[&wrong], |f| f(&mut a));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn snapshot_shape_mismatch_panics() {
        let mut src = param(2, 2, 0.0);
        let snap = snapshot_param_values(|f| f(&mut src));
        let mut dst = param(2, 3, 0.0);
        load_param_values(&snap, |f| f(&mut dst));
    }
}
