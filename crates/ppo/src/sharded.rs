//! Data-parallel sharded minibatch optimization.
//!
//! The PPO update is the training hot path: `epochs_per_update` full
//! forward/backward passes over every collected transition. Sharding
//! splits each minibatch into `PpoConfig::grad_shards` contiguous index
//! ranges and runs each range's forward/backward concurrently against the
//! **one** primary network, which every shard reads through `&` (its
//! [`TrainNet::train_shard`] takes `&self`): shard 0 on the calling
//! thread, shards 1..N as rayon tasks, which the pool workers and the
//! waiting caller share between them. The matmul kernels run serially
//! on whichever thread runs a shard; besides the shards, only the
//! minibatch's tail splits across the pool: the reduce and norm by
//! tensors, then Adam by element ranges, each element's operations
//! unchanged. Each shard reads
//! its rows straight out of the rollout batch (no gather), writes its
//! activations and its gradients into its own [`Tape`], and computes
//! each row's PPO loss gradient in one pass over the logits
//! ([`Categorical::grad_into`]) into a row of the tape's buffer; shard
//! 0's gradient tensors are then swapped into the primary's parameters
//! and the rest reduced on top **in fixed shard order**. The tapes, the
//! per-shard distributions and every buffer the update needs live in an
//! `UpdateWorkspace` sized on first use, so the steady-state update
//! allocates none of them.
//!
//! The trainer reads the norm the reduction returns before Adam steps:
//! a non-finite norm stops training with a
//! [`crate::trainer::Divergence`] instead of writing NaN weights.
//!
//! # Determinism contract
//!
//! The result is bit-identical to running the same shards sequentially,
//! for every `RAYON_NUM_THREADS` setting:
//!
//! * the shard layout depends only on `(minibatch_len, grad_shards)` —
//!   never on the thread count;
//! * each shard's computation is self-contained: the primary's weights,
//!   which nothing writes during the pass, the shard's own rows, and its
//!   own tape, whose gradients the pass writes afresh — no shared float
//!   state;
//! * the reduction adds each element's shard gradients in shard order —
//!   shard 0's gradients swapped in (no copy), shards 1..N added on top —
//!   whichever thread reduces its tensor, and regardless of which thread
//!   ran a shard or which finished first; the per-shard loss sums are
//!   added in the same fixed order. The same pass sums the squared
//!   global norm the clip needs as one chain per tensor, which the
//!   calling thread adds in visitation order: the sequence
//!   [`reduce_grads`] sums;
//! * Adam's operations on an element do not depend on which thread's
//!   range holds it.
//!
//! Note that sharded results are *not* bit-identical to the unsharded
//! (`grad_shards = 1`) update: splitting a matrix product over the batch
//! dimension reassociates floating-point sums. `grad_shards` is therefore
//! part of the training configuration (checkpointed like every other
//! hyper-parameter), and the single-shard layout runs the historical
//! single-threaded update's exact operations.

use std::mem;

#[cfg(doc)]
use autocat_nn::grad::reduce_grads;
use autocat_nn::grad::reduce_sq_sum;
use autocat_nn::models::{Tape, TrainNet};
use autocat_nn::optim::AdamStep;
use autocat_nn::{Adam, Categorical, Param};

use crate::rollout::RolloutBatch;

/// Read-only per-minibatch inputs shared by every shard.
pub(crate) struct MinibatchCtx<'a> {
    /// The collected rollout batch (observations, actions, targets).
    pub batch: &'a RolloutBatch,
    /// Normalized advantages, indexed like the batch.
    pub advantages: &'a [f32],
    /// PPO clipping range ε.
    pub clip: f32,
    /// Entropy bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// `1 / minibatch_len`. Loss gradients are normalized over the whole
    /// minibatch, not the shard, so sharding never changes the loss scale.
    pub inv: f32,
}

/// Running loss sums over the rows one model instance has processed.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LossSums {
    pub policy_loss: f32,
    pub value_loss: f32,
    pub entropy: f32,
}

impl LossSums {
    /// Adds `other`'s sums (the fixed-order shard reduction for stats).
    pub fn absorb(&mut self, other: &LossSums) {
        self.policy_loss += other.policy_loss;
        self.value_loss += other.value_loss;
        self.entropy += other.entropy;
    }
}

/// The per-transition PPO loss gradient (clipped surrogate + entropy
/// bonus + value loss), identical for every shard. `k` is the
/// transition's index into the full batch. Writes `dL/dlogits` into
/// `dlogits` through `dist`, which it refills with `logits` (one pass:
/// see [`Categorical`]), and returns `dL/dvalue`.
fn row_grad(
    ctx: &MinibatchCtx,
    k: usize,
    dist: &mut Categorical,
    (logits, value): (&[f32], f32),
    sums: &mut LossSums,
    dlogits: &mut [f32],
) -> f32 {
    let action = ctx.batch.actions[k];
    let adv = ctx.advantages[k];
    let old_logp = ctx.batch.logps[k];
    let ret = ctx.batch.returns[k];
    dist.set_logits(logits);
    let logp = dist.log_prob(action);
    let ratio = (logp - old_logp).exp();
    let unclipped = ratio * adv;
    let clipped = ratio.clamp(1.0 - ctx.clip, 1.0 + ctx.clip) * adv;
    sums.policy_loss += -unclipped.min(clipped);
    let verr = value - ret;
    sums.value_loss += 0.5 * verr * verr;
    // The surrogate -ratio·adv has d/dlogits = -adv·ratio·dlogp, active
    // only when the unclipped term is the minimum; the loss includes
    // -ecoef·H for the entropy bonus.
    let use_unclipped = unclipped <= clipped;
    sums.entropy += dist.grad_into(
        action,
        use_unclipped.then_some(-adv * ratio),
        -ctx.entropy_coef,
        ctx.inv,
        dlogits,
    );
    ctx.value_coef * verr * ctx.inv
}

/// One shard's tape and what its loss rows reuse, kept across minibatches.
struct ShardSlot {
    tape: Tape,
    dist: Categorical,
    sums: LossSums,
}

impl ShardSlot {
    /// Forward/backward over the batch rows `rows` against `net`: the
    /// shard's gradients are written into the slot's tape, and the rows'
    /// loss sums go into `sums`.
    fn run(&mut self, net: &dyn TrainNet, ctx: &MinibatchCtx, rows: &[usize]) {
        let mut sums = LossSums::default();
        let dist = &mut self.dist;
        net.train_shard(
            &mut self.tape,
            &ctx.batch.obs,
            rows,
            &mut |i, logits, value, dlogits| {
                row_grad(ctx, rows[i], dist, (logits, value), &mut sums, dlogits)
            },
        );
        self.sums = sums;
    }
}

/// Everything the update allocates: one [`ShardSlot`] per shard, added on
/// the first minibatch that runs that many shards and reused by every
/// minibatch after, and the buffers of the minibatch's tail. It holds no
/// weights between calls, so it is never checkpointed.
#[derive(Default)]
pub(crate) struct UpdateWorkspace {
    slots: Vec<ShardSlot>,
    /// The primary's parameters while the tail runs on them (see
    /// [`with_params`]), empty placeholders otherwise.
    params: Vec<Param>,
    /// Each parameter tensor's squared-norm chain.
    chains: Vec<f32>,
    /// One list of shard tensors per reduce task, empty between calls.
    sources: Vec<Vec<&'static [f32]>>,
}

/// Runs one minibatch split across up to `shards` shards, leaving the
/// **reduced** gradient in `primary`'s parameters and returning the
/// combined loss sums and the reduced gradient's global L2 norm.
///
/// The shard layout — `chunk` split into `ceil(len / shards)`-sized
/// contiguous ranges, which can number fewer than `shards` (10 rows over
/// 8 shards make 5) — depends only on the arguments, so the result is
/// bit-identical for every thread count. Shards 1..N are queued on the
/// rayon pool; shard 0 (the first rows of `chunk`) then runs on the
/// calling thread, which helps run whichever siblings are still queued.
/// Each shard's matmuls run serially on the thread that runs the shard.
/// All of them read `primary`'s weights and write only their own slot.
/// Shard 0's gradient tensors are then swapped into `primary` and the
/// others reduced on top **in shard order**, whichever thread ran them
/// and whatever order they finished in, with the norm summed in the same
/// pass ([`reduce_and_norm`]); loss sums reduce in the same order. With
/// one range there is nothing to add, and the reduction only sums the
/// norm: the plain unsharded update.
pub(crate) fn sharded_minibatch(
    primary: &mut dyn TrainNet,
    workspace: &mut UpdateWorkspace,
    shards: usize,
    ctx: &MinibatchCtx,
    chunk: &[usize],
) -> (LossSums, f32) {
    let sub_len = chunk.len().div_ceil(shards.max(1));
    let ranges = chunk.chunks(sub_len.max(1));
    let UpdateWorkspace {
        slots,
        params,
        chains,
        sources,
    } = workspace;
    while slots.len() < ranges.len() {
        slots.push(ShardSlot {
            tape: Tape::for_net(primary),
            dist: Categorical::default(),
            sums: LossSums::default(),
        });
    }
    let slots = &mut slots[..ranges.len()];
    let net: &dyn TrainNet = primary;
    run_tasks(
        slots
            .iter_mut()
            .zip(ranges)
            .map(|(slot, rows)| move || slot.run(net, ctx, rows)),
    );
    let (slot0, siblings) = slots
        .split_first_mut()
        .expect("minibatch chunks are non-empty");
    slot0.tape.swap_grads(primary);
    let threads = rayon::current_num_threads();
    let sq_sum = with_params(primary, params, |params| {
        reduce_and_norm(params, siblings, chains, sources, threads)
    });
    let mut sums = slot0.sums;
    for slot in siblings.iter() {
        sums.absorb(&slot.sums);
    }
    (sums, sq_sum.sqrt())
}

/// One Adam step on `primary`'s parameters, each gradient multiplied by
/// `grad_scale` first: [`Adam::step_scaled`]'s result bit for bit, split
/// into one element range per thread ([`Share`]). Every element gets the
/// same operations whichever range it falls in, and every cut is at a
/// multiple of 16 into its tensor, so the ranges run the same 16-lane
/// blocks too.
pub(crate) fn adam_step(
    primary: &mut dyn TrainNet,
    workspace: &mut UpdateWorkspace,
    adam: &mut Adam,
    grad_scale: Option<f32>,
) {
    let step = adam.begin_scaled_step(grad_scale);
    let threads = rayon::current_num_threads();
    with_params(primary, &mut workspace.params, |params| {
        update_in_shares(params, &step, threads);
    });
}

/// `step` over `params` as up to `threads` tasks, one [`Share`] of about
/// `1 / threads` of the elements each.
fn update_in_shares(params: &mut [Param], step: &AdamStep, threads: usize) {
    let total: usize = params.iter().map(Param::len).sum();
    let (mut carry, mut rest, mut done) = (Piece::default(), params, 0);
    run_tasks((0..threads).map(|t| {
        let want = if t + 1 == threads {
            usize::MAX
        } else {
            total * (t + 1) / threads - done
        };
        let share = Share::take(&mut carry, &mut rest, want);
        done += share.len();
        move || share.update(step)
    }));
}

/// Runs the first task on the calling thread and the others as the tasks
/// of one rayon scope, which the pool's workers and the waiting caller
/// share. One task runs inline, with no scope.
fn run_tasks<F: FnOnce() + Send>(mut tasks: impl Iterator<Item = F>) {
    let Some(first) = tasks.next() else { return };
    let Some(second) = tasks.next() else {
        return first();
    };
    rayon::scope(|scope| {
        scope.spawn(|_| second());
        for task in tasks {
            scope.spawn(|_| task());
        }
        first();
    });
}

/// Runs `f` on `net`'s parameters moved into `store` for the call, so
/// that the tail can hand disjoint parts of them to different threads.
/// Each whole [`Param`] is swapped with a placeholder and back (no copy).
fn with_params<R>(
    net: &mut dyn TrainNet,
    store: &mut Vec<Param>,
    f: impl FnOnce(&mut [Param]) -> R,
) -> R {
    let mut count = 0;
    net.visit_params(&mut |p| {
        if count == store.len() {
            store.push(Param::zeros(0, 0));
        }
        mem::swap(p, &mut store[count]);
        count += 1;
    });
    let out = f(&mut store[..count]);
    let mut back = store.iter_mut();
    net.visit_params(&mut |p| mem::swap(p, back.next().expect("one walk, one parameter list")));
    out
}

/// [`reduce_grads`] over `params` with the siblings' tapes as the shards,
/// returning the squared global norm. Each tensor's adds and its own
/// squared-norm chain ([`reduce_sq_sum`]) run as one task; the tensors go
/// to up to `threads` tasks in visitation order, each task taking whole
/// tensors until it holds about its share of the elements. The chains are
/// then added in visitation order from `+0`: the sum `reduce_grads`
/// makes, bit for bit, whichever task ran a tensor.
fn reduce_and_norm(
    params: &mut [Param],
    siblings: &[ShardSlot],
    chains: &mut Vec<f32>,
    sources: &mut Vec<Vec<&'static [f32]>>,
    threads: usize,
) -> f32 {
    chains.resize(params.len(), 0.0);
    sources.resize_with(threads, Vec::new);
    let total: usize = params.iter().map(Param::len).sum();
    let (mut rest, mut rest_chains) = (params, &mut chains[..]);
    let (mut first, mut done) = (0, 0);
    run_tasks(sources.iter_mut().enumerate().map(|(t, list)| {
        let target = total * (t + 1) / threads;
        let mut count = 0;
        while count < rest.len() && (done < target || t + 1 == threads) {
            done += rest[count].len();
            count += 1;
        }
        let (mine, more) = mem::take(&mut rest).split_at_mut(count);
        rest = more;
        let (my_chains, more) = mem::take(&mut rest_chains).split_at_mut(count);
        rest_chains = more;
        let index = first;
        first += count;
        move || {
            let mut tensors = recycle(mem::take(list));
            for (i, (p, chain)) in mine.iter_mut().zip(my_chains).enumerate() {
                tensors.clear();
                tensors.extend(
                    siblings
                        .iter()
                        .map(|s| s.tape.grads()[index + i].as_slice()),
                );
                *chain = reduce_sq_sum(p.grad.as_mut_slice(), &tensors);
            }
            *list = recycle(tensors);
        }
    }));
    chains.iter().fold(0.0, |sq_sum, chain| sq_sum + chain)
}

/// `list`, emptied and typed for borrows of another lifetime. A collect
/// from a vector's own iterator into elements of the same layout reuses
/// its buffer, so the reduce's source lists keep their allocation from
/// one minibatch to the next.
fn recycle<'b>(mut list: Vec<&[f32]>) -> Vec<&'b [f32]> {
    list.clear();
    list.into_iter()
        .map(|_| unreachable!("the list is empty"))
        .collect()
}

/// The same elements of one parameter's four tensors.
#[derive(Default)]
struct Piece<'a> {
    value: &'a mut [f32],
    grad: &'a [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
}

impl<'a> Piece<'a> {
    fn of(p: &'a mut Param) -> Self {
        let Param { value, grad, m, v } = p;
        Self {
            value: value.as_mut_slice(),
            grad: grad.as_slice(),
            m: m.as_mut_slice(),
            v: v.as_mut_slice(),
        }
    }

    fn len(&self) -> usize {
        self.value.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (value, value_after) = self.value.split_at_mut(mid);
        let (grad, grad_after) = self.grad.split_at(mid);
        let (m, m_after) = self.m.split_at_mut(mid);
        let (v, v_after) = self.v.split_at_mut(mid);
        let after = Self {
            value: value_after,
            grad: grad_after,
            m: m_after,
            v: v_after,
        };
        (Self { value, grad, m, v }, after)
    }

    fn update(self, step: &AdamStep) {
        step.update(self.value, self.grad, self.m, self.v);
    }
}

/// One thread's contiguous range of the parameters' elements, in
/// visitation order: the end of one tensor, whole tensors, and the start
/// of the next one.
struct Share<'a> {
    head: Piece<'a>,
    whole: &'a mut [Param],
    tail: Piece<'a>,
}

impl<'a> Share<'a> {
    /// The next share of about `want` elements (all that are left for
    /// `usize::MAX`): from `carry`, the part of a tensor the last share
    /// did not take, then from the tensors in `rest`. A tensor is cut at
    /// a multiple of 16 into it, at or below `want`, and its remainder
    /// becomes the new `carry`.
    fn take(carry: &mut Piece<'a>, rest: &mut &'a mut [Param], want: usize) -> Self {
        if carry.len() >= want {
            let (head, after) = mem::take(carry).split_at(want & !15);
            *carry = after;
            return Self {
                head,
                whole: &mut [],
                tail: Piece::default(),
            };
        }
        let head = mem::take(carry);
        let mut left = want - head.len();
        let mut count = 0;
        while count < rest.len() && rest[count].len() <= left {
            left -= rest[count].len();
            count += 1;
        }
        let (whole, after) = mem::take(rest).split_at_mut(count);
        let tail = match after.split_first_mut() {
            Some((next, more)) => {
                *rest = more;
                let (tail, remainder) = Piece::of(next).split_at(left & !15);
                *carry = remainder;
                tail
            }
            None => Piece::default(),
        };
        Self { head, whole, tail }
    }

    fn len(&self) -> usize {
        self.head.len() + self.whole.iter().map(Param::len).sum::<usize>() + self.tail.len()
    }

    fn update(self, step: &AdamStep) {
        self.head.update(step);
        for p in self.whole {
            Piece::of(p).update(step);
        }
        self.tail.update(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocat_nn::grad::reduce_grads;
    use autocat_nn::models::{
        MlpConfig, MlpPolicy, PolicyValueNet, TransformerConfig, TransformerPolicy,
    };
    use autocat_nn::optim::clip_scale;
    use autocat_nn::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A synthetic rollout batch with non-trivial targets.
    fn fake_batch(n: usize, obs_dim: usize, actions: usize, seed: u64) -> RolloutBatch {
        let mut rng = StdRng::seed_from_u64(seed);
        let obs: Vec<f32> = (0..n * obs_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        RolloutBatch {
            obs: Matrix::from_vec(n, obs_dim, obs),
            actions: (0..n).map(|_| rng.gen_range(0..actions)).collect(),
            logps: (0..n).map(|_| rng.gen_range(-2.0f32..-0.1)).collect(),
            rewards: vec![0.0; n],
            dones: vec![false; n],
            advantages: (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            returns: (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            episodes: Default::default(),
        }
    }

    fn grads_of(net: &mut dyn PolicyValueNet) -> Vec<f32> {
        let mut out = Vec::new();
        net.visit_params(&mut |p: &mut Param| out.extend_from_slice(p.grad.as_slice()));
        out
    }

    /// The unsharded reference: one `train_batch` over `rows` from zeroed
    /// gradients, which it leaves in `net`.
    fn run_shard(net: &mut dyn PolicyValueNet, ctx: &MinibatchCtx, rows: &[usize]) -> LossSums {
        let obs = ctx.batch.obs.gather_rows(rows);
        let mut sums = LossSums::default();
        let mut dist = Categorical::default();
        net.zero_grad();
        net.train_batch(&obs, &mut |i, logits, value| {
            let mut dlogits = vec![0.0; logits.len()];
            let dvalue = row_grad(
                ctx,
                rows[i],
                &mut dist,
                (logits, value),
                &mut sums,
                &mut dlogits,
            );
            (dlogits, dvalue)
        });
        sums
    }

    fn ctx_over<'a>(batch: &'a RolloutBatch, advantages: &'a [f32]) -> MinibatchCtx<'a> {
        MinibatchCtx {
            batch,
            advantages,
            clip: 0.2,
            entropy_coef: 0.01,
            value_coef: 0.5,
            inv: 1.0 / batch.actions.len() as f32,
        }
    }

    /// The sharded path must reproduce the unsharded gradient up to
    /// floating-point reassociation (the sums are split over the batch
    /// dimension), and its loss sums must match the same way.
    #[test]
    fn sharded_gradient_matches_unsharded_up_to_reassociation() {
        let (n, obs_dim, num_actions) = (48usize, 10usize, 5usize);
        let batch = fake_batch(n, obs_dim, num_actions, 3);
        let advantages = batch.advantages.clone();
        let chunk: Vec<usize> = (0..n).collect();
        let ctx = ctx_over(&batch, &advantages);

        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MlpConfig::new(obs_dim, num_actions).with_hidden(vec![12]);
        let primary = MlpPolicy::new(&cfg, &mut rng);

        // Unsharded reference gradient.
        let mut reference = primary.clone();
        let outcome = run_shard(&mut reference, &ctx, &chunk);
        let expected = grads_of(&mut reference);

        // Sharded gradient (3 shards), reduced into the primary.
        let mut sharded_net = primary.clone();
        let mut ws = UpdateWorkspace::default();
        let (sums, _) = sharded_minibatch(&mut sharded_net, &mut ws, 3, &ctx, &chunk);
        let got = grads_of(&mut sharded_net);

        assert_eq!(expected.len(), got.len());
        for (i, (e, g)) in expected.iter().zip(got.iter()).enumerate() {
            assert!(
                (e - g).abs() <= 1e-4 * (1.0 + e.abs()),
                "grad {i}: unsharded {e} vs sharded {g}"
            );
        }
        assert!((sums.policy_loss - outcome.policy_loss).abs() < 1e-3);
        assert!((sums.value_loss - outcome.value_loss).abs() < 1e-3);
        assert!((sums.entropy - outcome.entropy).abs() < 1e-3);
        // The sharded path must not have touched the primary's weights.
        let mut untouched = sharded_net.clone();
        let mut original = primary.clone();
        assert_eq!(
            autocat_nn::state::params_digest(&mut untouched),
            autocat_nn::state::params_digest(&mut original),
        );
    }

    /// Re-running the identical sharded minibatch must be bit-identical:
    /// the reduction order is fixed by the shard layout, not the
    /// scheduler.
    #[test]
    fn sharded_minibatch_is_bitwise_reproducible() {
        let (n, obs_dim, num_actions) = (40usize, 8usize, 4usize);
        let batch = fake_batch(n, obs_dim, num_actions, 9);
        let advantages = batch.advantages.clone();
        let chunk: Vec<usize> = (0..n).collect();
        let ctx = ctx_over(&batch, &advantages);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = MlpConfig::new(obs_dim, num_actions).with_hidden(vec![8]);
        let primary = MlpPolicy::new(&cfg, &mut rng);

        let run = || {
            let mut net = primary.clone();
            sharded_minibatch(&mut net, &mut UpdateWorkspace::default(), 4, &ctx, &chunk);
            grads_of(&mut net)
                .into_iter()
                .map(f32::to_bits)
                .collect::<Vec<u32>>()
        };
        assert_eq!(run(), run());
    }

    /// Degenerate layouts must reduce to a valid gradient over every row:
    /// more shards than rows, a single shard, and chunks whose
    /// `ceil`-sized ranges number fewer than the shards (10 rows over 8
    /// shards make 5 ranges, 4 rows over 3 make 2).
    #[test]
    fn shard_layout_handles_degenerate_sizes() {
        let (obs_dim, num_actions) = (4usize, 3usize);
        for (n, shards) in [(3usize, 8usize), (3, 1), (10, 8), (4, 3)] {
            let batch = fake_batch(n, obs_dim, num_actions, 2);
            let advantages = batch.advantages.clone();
            let chunk: Vec<usize> = (0..n).collect();
            let ctx = ctx_over(&batch, &advantages);
            let mut rng = StdRng::seed_from_u64(2);
            let cfg = MlpConfig::new(obs_dim, num_actions).with_hidden(vec![4]);
            let primary = MlpPolicy::new(&cfg, &mut rng);

            // Reference: one shard over the whole chunk.
            let mut reference = primary.clone();
            let ref_sums = run_shard(&mut reference, &ctx, &chunk);
            let expected = grads_of(&mut reference);

            let mut net = primary.clone();
            let mut ws = UpdateWorkspace::default();
            let (sums, _) = sharded_minibatch(&mut net, &mut ws, shards, &ctx, &chunk);
            let got = grads_of(&mut net);
            assert_eq!(expected.len(), got.len());
            for (e, g) in expected.iter().zip(got.iter()) {
                assert!(
                    (e - g).abs() <= 1e-4 * (1.0 + e.abs()),
                    "{n} rows, {shards} shards: grad {e} vs {g}"
                );
            }
            assert!((sums.policy_loss - ref_sums.policy_loss).abs() < 1e-4);
            assert!((sums.value_loss - ref_sums.value_loss).abs() < 1e-4);
            assert!((sums.entropy - ref_sums.entropy).abs() < 1e-4);
        }
    }

    /// The one-shard layout is exactly the unsharded computation, bit for
    /// bit: one pass into a tape whose tensors then move into the
    /// parameters, and nothing to reduce.
    #[test]
    fn zero_replicas_is_bitwise_the_single_shard_path() {
        let (n, obs_dim, num_actions) = (16usize, 6usize, 4usize);
        let batch = fake_batch(n, obs_dim, num_actions, 5);
        let advantages = batch.advantages.clone();
        let chunk: Vec<usize> = (0..n).collect();
        let ctx = ctx_over(&batch, &advantages);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = MlpConfig::new(obs_dim, num_actions).with_hidden(vec![6]);
        let primary = MlpPolicy::new(&cfg, &mut rng);

        let mut direct = primary.clone();
        run_shard(&mut direct, &ctx, &chunk);
        let mut via_sharded = primary.clone();
        sharded_minibatch(
            &mut via_sharded,
            &mut UpdateWorkspace::default(),
            1,
            &ctx,
            &chunk,
        );
        let bits = |net: &mut MlpPolicy| {
            grads_of(net)
                .into_iter()
                .map(f32::to_bits)
                .collect::<Vec<u32>>()
        };
        assert_eq!(bits(&mut direct), bits(&mut via_sharded));
    }

    /// The one-net, per-tape update against per-shard clones: every shard
    /// run on its own clone, its gradients copied out into a
    /// [`GradBuffer`] and added into shard 0's in order, then the norm
    /// summed as a separate scalar pass. Gradients and norm must agree bit
    /// for bit, for the MLP and the Transformer (whose tape is
    /// overwritten row by row), including ragged layouts that leave tapes
    /// idle (10 rows over 8 shards run 5 ranges) and a reused workspace,
    /// whose tapes hold the primary's swapped-out tensors from the
    /// previous minibatch.
    #[test]
    fn fused_reduction_matches_harvest_accumulate_then_norm() {
        let cfg = MlpConfig::new(9, 4).with_hidden(vec![20, 7]);
        check_against_clones(MlpPolicy::new(&cfg, &mut StdRng::seed_from_u64(8)));
        let cfg = TransformerConfig::new(3, 3, 4).with_dims(8, 2, 16);
        check_against_clones(TransformerPolicy::new(&cfg, &mut StdRng::seed_from_u64(9)));
    }

    /// The check of the test above for one network, at 8 shards over
    /// four minibatches through one reused workspace.
    fn check_against_clones<N: TrainNet + Clone>(primary: N) {
        use autocat_nn::GradBuffer;
        let (obs_dim, num_actions) = (primary.obs_dim(), primary.num_actions());
        let mut ws = UpdateWorkspace::default();
        for (n, seed) in [(10usize, 1u64), (48, 2), (10, 3), (17, 4)] {
            let batch = fake_batch(n, obs_dim, num_actions, seed);
            let advantages = batch.advantages.clone();
            let chunk: Vec<usize> = (0..n).rev().collect();
            let ctx = ctx_over(&batch, &advantages);

            let mut reference = primary.clone();
            let sub_len = n.div_ceil(8);
            let mut ranges = chunk.chunks(sub_len);
            run_shard(&mut reference, &ctx, ranges.next().unwrap());
            for rows in ranges {
                let mut replica = primary.clone();
                run_shard(&mut replica, &ctx, rows);
                GradBuffer::harvest(|f| replica.visit_params(f))
                    .accumulate_into(|f| reference.visit_params(f));
            }
            let mut sq_sum = 0.0f32;
            reference.visit_params(&mut |p: &mut Param| {
                sq_sum += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>();
            });

            let mut net = primary.clone();
            let (_, norm) = sharded_minibatch(&mut net, &mut ws, 8, &ctx, &chunk);
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
            assert_eq!(
                bits(grads_of(&mut net)),
                bits(grads_of(&mut reference)),
                "{n} rows"
            );
            assert_eq!(norm.to_bits(), sq_sum.sqrt().to_bits(), "{n} rows");
        }
    }

    /// One workspace reused across minibatches of different sizes (48
    /// rows, then a ragged 37, so every gather buffer must reshape, then
    /// 10, whose 5 ranges leave tapes holding the last minibatch idle)
    /// gives the same grads and loss sums, bit for bit, as a fresh
    /// workspace per minibatch.
    #[test]
    fn reused_workspace_is_bitwise_a_fresh_one() {
        let (n, obs_dim, num_actions) = (95usize, 7usize, 5usize);
        let batch = fake_batch(n, obs_dim, num_actions, 11);
        let advantages = batch.advantages.clone();
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = MlpConfig::new(obs_dim, num_actions).with_hidden(vec![10]);
        let primary = MlpPolicy::new(&cfg, &mut rng);
        let indices: Vec<usize> = (0..n).rev().collect();
        let chunks = [&indices[..48], &indices[48..85], &indices[85..]];

        let outcome = |net: &mut MlpPolicy, ws: &mut UpdateWorkspace, chunk: &[usize]| {
            let mut ctx = ctx_over(&batch, &advantages);
            ctx.inv = 1.0 / chunk.len() as f32;
            let (sums, norm) = sharded_minibatch(net, ws, 8, &ctx, chunk);
            let grads: Vec<u32> = grads_of(net).into_iter().map(f32::to_bits).collect();
            let sums = [sums.policy_loss, sums.value_loss, sums.entropy, norm].map(f32::to_bits);
            (grads, sums)
        };
        let mut reused = UpdateWorkspace::default();
        let mut net = primary.clone();
        for chunk in chunks {
            let got = outcome(&mut net, &mut reused, chunk);
            let mut fresh_net = primary.clone();
            let expected = outcome(&mut fresh_net, &mut UpdateWorkspace::default(), chunk);
            assert_eq!(got, expected, "chunk of {} rows", chunk.len());
        }
    }

    /// [`fake_batch`] with three of every four observation columns zero
    /// in every row, so the MLP's input-layer gradient has all-zero rows
    /// (whose 16-lane blocks the norm chain skips).
    fn sparse_batch(n: usize, obs_dim: usize, actions: usize, seed: u64) -> RolloutBatch {
        let mut batch = fake_batch(n, obs_dim, actions, seed);
        for (i, x) in batch.obs.as_mut_slice().iter_mut().enumerate() {
            if !(i % obs_dim).is_multiple_of(4) {
                *x = 0.0;
            }
        }
        batch
    }

    /// Puts the first parameter's moments where a long run leaves the
    /// input rows no observation touches: first moments stuck at the
    /// fixed points `±k·2⁻¹⁴⁹` (`k ≤ 4`) of `m ← RN(0.9·m)` on the rows
    /// [`sparse_batch`] zeroes. With an optimizer past step 165, whose
    /// `bc1` is 1, whole blocks of them take Adam's stuck-moment path.
    fn stick_moments(net: &mut dyn PolicyValueNet) {
        let mut first = true;
        net.visit_params(&mut |p| {
            if mem::take(&mut first) {
                let cols = p.m.cols();
                for (i, m) in p.m.as_mut_slice().iter_mut().enumerate() {
                    if !(i / cols).is_multiple_of(4) {
                        let tiny = f32::from_bits(i as u32 % 4 + 1);
                        *m = if i % 3 == 0 { -tiny } else { tiny };
                    }
                }
            }
        });
    }

    /// Value, gradient and moment bits of every parameter, in that order.
    fn state_bits(net: &mut dyn PolicyValueNet) -> [Vec<u32>; 4] {
        let mut out: [Vec<u32>; 4] = Default::default();
        net.visit_params(&mut |p: &mut Param| {
            for (bits, t) in out.iter_mut().zip([&p.value, &p.grad, &p.m, &p.v]) {
                bits.extend(t.as_slice().iter().map(|x| x.to_bits()));
            }
        });
        out
    }

    /// Shard slots that have run the ranges of `chunk` over `shards`.
    fn run_slots(
        net: &mut dyn TrainNet,
        ctx: &MinibatchCtx,
        chunk: &[usize],
        shards: usize,
    ) -> Vec<ShardSlot> {
        let sub_len = chunk.len().div_ceil(shards);
        chunk
            .chunks(sub_len)
            .map(|rows| {
                let mut slot = ShardSlot {
                    tape: Tape::for_net(net),
                    dist: Categorical::default(),
                    sums: LossSums::default(),
                };
                slot.run(net, ctx, rows);
                slot
            })
            .collect()
    }

    /// The minibatch tail as it ran before it was split: shard 0's
    /// gradients swapped into `net`, [`reduce_grads`] with the other
    /// tapes, then [`Adam::step_scaled`] unless the norm is not finite.
    /// Returns the norm.
    fn reference_minibatch(
        net: &mut dyn TrainNet,
        adam: &mut Adam,
        max_norm: f32,
        ctx: &MinibatchCtx,
        chunk: &[usize],
    ) -> f32 {
        let mut slots = run_slots(net, ctx, chunk, 8);
        slots[0].tape.swap_grads(net);
        let grads: Vec<&[Matrix]> = slots[1..].iter().map(|s| s.tape.grads()).collect();
        let norm = reduce_grads(&grads, |f| net.visit_params(f)).sqrt();
        if norm.is_finite() {
            adam.step_scaled(clip_scale(max_norm, norm), |f| net.visit_params(f));
        }
        norm
    }

    /// The trainer's minibatch: [`sharded_minibatch`], then [`adam_step`]
    /// unless the norm is not finite. Returns the norm.
    fn split_minibatch(
        net: &mut dyn TrainNet,
        ws: &mut UpdateWorkspace,
        adam: &mut Adam,
        max_norm: f32,
        ctx: &MinibatchCtx,
        chunk: &[usize],
    ) -> f32 {
        let (_, norm) = sharded_minibatch(net, ws, 8, ctx, chunk);
        if norm.is_finite() {
            adam_step(net, ws, adam, clip_scale(max_norm, norm));
        }
        norm
    }

    /// The minibatch tail split across the pool (reduce and norm by
    /// tensors, Adam by element ranges) against the one-thread tail it
    /// replaced, [`reduce_grads`] then [`Adam::step_scaled`]: gradients,
    /// norm, values and both moments must agree bit for bit, for the MLP
    /// and the Transformer at 8 shards, on minibatches that clip and ones
    /// that do not, with all-zero input rows (the norm chain's skipped
    /// blocks) and blocks of stuck subnormal moments, on the pool and
    /// inside a one-thread pool's `install`.
    #[test]
    fn split_tail_is_bitwise_reduce_grads_then_step_scaled() {
        let cfg = MlpConfig::new(40, 5).with_hidden(vec![32, 24]);
        check_split_tail(MlpPolicy::new(&cfg, &mut StdRng::seed_from_u64(12)));
        let cfg = TransformerConfig::new(4, 5, 6).with_dims(16, 2, 32);
        check_split_tail(TransformerPolicy::new(&cfg, &mut StdRng::seed_from_u64(13)));
    }

    fn check_split_tail<N: TrainNet + Clone>(mut primary: N) {
        let (obs_dim, num_actions) = (primary.obs_dim(), primary.num_actions());
        let one_thread = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        stick_moments(&mut primary);
        let (mut reference, mut pooled, mut inline) = (primary.clone(), primary.clone(), primary);
        let adam = Adam::restore(3e-4, 0.9, 0.999, 1e-8, 500);
        let (mut adam_ref, mut adam_pooled, mut adam_inline) = (adam.clone(), adam.clone(), adam);
        let (mut ws_pooled, mut ws_inline) = Default::default();
        let mut clipped = [false; 2];
        for (n, seed, max_norm) in [
            (48usize, 1u64, 1e-3f32),
            (48, 2, 1e9),
            (33, 3, 1e-3),
            (17, 4, 1e9),
        ] {
            let batch = sparse_batch(n, obs_dim, num_actions, seed);
            let chunk: Vec<usize> = (0..n).rev().collect();
            let mut ctx = ctx_over(&batch, &batch.advantages);
            ctx.inv = 1.0 / n as f32;
            let want = reference_minibatch(&mut reference, &mut adam_ref, max_norm, &ctx, &chunk);
            clipped[usize::from(clip_scale(max_norm, want).is_some())] = true;
            let got = split_minibatch(
                &mut pooled,
                &mut ws_pooled,
                &mut adam_pooled,
                max_norm,
                &ctx,
                &chunk,
            );
            let got_inline = one_thread.install(|| {
                assert_eq!(rayon::current_num_threads(), 1);
                split_minibatch(
                    &mut inline,
                    &mut ws_inline,
                    &mut adam_inline,
                    max_norm,
                    &ctx,
                    &chunk,
                )
            });
            let want_bits = state_bits(&mut reference);
            for (norm, net, what) in [
                (got, &mut pooled, "pool"),
                (got_inline, &mut inline, "one thread"),
            ] {
                assert_eq!(norm.to_bits(), want.to_bits(), "norm, {n} rows, {what}");
                let got_bits = state_bits(net);
                for (k, name) in ["values", "grads", "m", "v"].iter().enumerate() {
                    assert_eq!(got_bits[k], want_bits[k], "{name}, {n} rows, {what}");
                }
            }
        }
        assert_eq!(
            clipped, [true; 2],
            "minibatches that clip and ones that do not"
        );
    }

    /// What the split tail must have met in the MLP run above: zero
    /// blocks in the input layer's reduced gradient and blocks of stuck
    /// first moments, on the same minibatches.
    #[test]
    fn split_tail_test_reaches_zero_blocks_and_stuck_moments() {
        let cfg = MlpConfig::new(40, 5).with_hidden(vec![32, 24]);
        let mut net = MlpPolicy::new(&cfg, &mut StdRng::seed_from_u64(12));
        stick_moments(&mut net);
        let mut adam = Adam::restore(3e-4, 0.9, 0.999, 1e-8, 500);
        let mut ws = UpdateWorkspace::default();
        let batch = sparse_batch(48, 40, 5, 1);
        let chunk: Vec<usize> = (0..48).collect();
        let ctx = ctx_over(&batch, &batch.advantages);
        split_minibatch(&mut net, &mut ws, &mut adam, 1e9, &ctx, &chunk);
        let (mut zero_blocks, mut stuck_blocks) = (0, 0);
        let mut first = true;
        net.visit_params(&mut |p| {
            if mem::take(&mut first) {
                let blocks = p.grad.as_slice().chunks(16).zip(p.m.as_slice().chunks(16));
                for (g, m) in blocks {
                    let zero = g.iter().all(|g| *g == 0.0);
                    zero_blocks += usize::from(zero);
                    stuck_blocks += usize::from(zero && m.iter().all(|m| m.is_subnormal()));
                }
            }
        });
        assert!(zero_blocks >= 40, "{zero_blocks} zero blocks");
        assert!(stuck_blocks >= 40, "{stuck_blocks} stuck blocks");
    }

    /// Every split, not only the pool's size: the reduce over 1 to 8
    /// tasks and Adam over 1 to 8 shares give [`reduce_grads`]'s and
    /// [`Adam::step_scaled`]'s bits, with shares that cut one tensor into
    /// several, span several tensors, or are empty.
    #[test]
    fn tail_splits_are_bitwise_at_every_task_count() {
        let cfg = MlpConfig::new(40, 5).with_hidden(vec![32, 24]);
        let mut primary = MlpPolicy::new(&cfg, &mut StdRng::seed_from_u64(14));
        stick_moments(&mut primary);
        let batch = sparse_batch(48, 40, 5, 5);
        let chunk: Vec<usize> = (0..48).collect();
        let ctx = ctx_over(&batch, &batch.advantages);
        let slots = run_slots(&mut primary, &ctx, &chunk, 8);
        let grads: Vec<&[Matrix]> = slots.iter().map(|s| s.tape.grads()).collect();
        let adam = Adam::restore(3e-4, 0.9, 0.999, 1e-8, 500);
        let mut want = primary.clone();
        let want_sq = reduce_grads(&grads, |f| want.visit_params(f));
        let scale = clip_scale(0.01, want_sq.sqrt());
        assert!(scale.is_some());
        adam.clone().step_scaled(scale, |f| want.visit_params(f));
        let want_bits = state_bits(&mut want);
        for threads in 1..=8 {
            let mut got = primary.clone();
            let mut ws = UpdateWorkspace::default();
            let sq = with_params(&mut got, &mut ws.params, |params| {
                reduce_and_norm(params, &slots, &mut ws.chains, &mut ws.sources, threads)
            });
            let step = adam.clone().begin_scaled_step(scale);
            with_params(&mut got, &mut ws.params, |params| {
                update_in_shares(params, &step, threads)
            });
            assert_eq!(sq.to_bits(), want_sq.to_bits(), "{threads} tasks");
            assert_eq!(state_bits(&mut got), want_bits, "{threads} tasks");
        }
    }

    /// A NaN gradient in one shard still makes the norm NaN, split or
    /// not, so the trainer stops before Adam steps (see
    /// `a_nan_weight_stops_training_with_an_error` in the trainer).
    #[test]
    fn a_nan_gradient_gives_a_nan_norm() {
        let cfg = MlpConfig::new(40, 5).with_hidden(vec![32, 24]);
        let primary = MlpPolicy::new(&cfg, &mut StdRng::seed_from_u64(15));
        let mut batch = sparse_batch(48, 40, 5, 6);
        batch.returns[30] = f32::NAN;
        let chunk: Vec<usize> = (0..48).collect();
        let ctx = ctx_over(&batch, &batch.advantages);
        let mut adam = Adam::new(3e-4);
        let mut reference = primary.clone();
        assert!(reference_minibatch(&mut reference, &mut adam, 0.5, &ctx, &chunk).is_nan());
        let mut net = primary.clone();
        let mut ws = UpdateWorkspace::default();
        assert!(split_minibatch(&mut net, &mut ws, &mut adam, 0.5, &ctx, &chunk).is_nan());
        assert_eq!(adam.steps(), 0, "no optimizer step");
        let one_thread = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let norm = one_thread.install(|| sharded_minibatch(&mut net, &mut ws, 8, &ctx, &chunk).1);
        assert!(norm.is_nan());
    }

    /// The reduce's source lists keep their buffers from one minibatch to
    /// the next.
    #[test]
    fn recycled_lists_keep_their_buffer() {
        let data = [1.0f32, 2.0];
        let mut list: Vec<&[f32]> = Vec::with_capacity(8);
        list.extend([&data[..], &data[1..]]);
        let buffer = list.as_ptr() as usize;
        let recycled: Vec<&'static [f32]> = recycle(list);
        assert!(recycled.is_empty());
        assert_eq!(recycled.capacity(), 8);
        assert_eq!(recycled.as_ptr() as usize, buffer);
    }
}
