//! Data-parallel sharded minibatch optimization.
//!
//! The PPO update is the training hot path: `epochs_per_update` full
//! forward/backward passes over every collected transition, all of which
//! ran on one thread before this module existed. Sharding splits each
//! minibatch into `PpoConfig::grad_shards` contiguous index ranges and
//! runs each range's forward/backward concurrently — shard 0 directly
//! against the primary model on the calling thread, shards 1..N against
//! their own **model replicas** as rayon tasks, which the pool workers and
//! the waiting caller share between them — then reduces the per-shard
//! gradients into the primary **in fixed shard order**. The replicas and
//! every buffer the update needs live in an `UpdateWorkspace` allocated
//! once per trainer, so the steady-state update allocates none of them.
//!
//! # Determinism contract
//!
//! The result is bit-identical to running the same shards sequentially,
//! for every `RAYON_NUM_THREADS` setting:
//!
//! * the shard layout depends only on `(minibatch_len, grad_shards)` —
//!   never on the thread count;
//! * each shard's computation is self-contained: a model holding the
//!   primary's exact weight bytes (the primary itself for shard 0, a
//!   [`load_param_values`]-synced replica for the rest), the shard's own
//!   rows, and a private gradient accumulation — no shared float state;
//! * the reduction ([`GradBuffer::accumulate_into`]) happens on the
//!   calling thread in shard order — shard 0's gradients are accumulated
//!   in place, shards 1..N added on top — regardless of which thread ran
//!   a shard or which finished first; the per-shard loss sums are added
//!   in the same fixed order.
//!
//! Note that sharded results are *not* bit-identical to the unsharded
//! (`grad_shards = 1`) update: splitting a matrix product over the batch
//! dimension reassociates floating-point sums. `grad_shards` is therefore
//! part of the training configuration (checkpointed like every other
//! hyper-parameter), and the single-shard layout runs the historical
//! single-threaded update's exact operations.

use autocat_nn::grad::{load_param_values, snapshot_param_values_into, GradBuffer};
use autocat_nn::matrix::with_inline_kernels;
use autocat_nn::models::PolicyValueNet;
use autocat_nn::{Categorical, Matrix};

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
/// transition's index into the full batch; returns
/// `(dL/dlogits, dL/dvalue)`.
fn row_grad(
    ctx: &MinibatchCtx,
    k: usize,
    logits: &[f32],
    value: f32,
    sums: &mut LossSums,
) -> (Vec<f32>, f32) {
    let action = ctx.batch.actions[k];
    let adv = ctx.advantages[k];
    let old_logp = ctx.batch.logps[k];
    let ret = ctx.batch.returns[k];
    let dist = Categorical::from_logits(logits);
    let logp = dist.log_prob(action);
    let ratio = (logp - old_logp).exp();
    let unclipped = ratio * adv;
    let clipped = ratio.clamp(1.0 - ctx.clip, 1.0 + ctx.clip) * adv;
    sums.policy_loss += -unclipped.min(clipped);
    sums.entropy += dist.entropy();
    let verr = value - ret;
    sums.value_loss += 0.5 * verr * verr;
    // Gradient of the surrogate wrt logits: active only when the
    // unclipped term is the minimum.
    let use_unclipped = unclipped <= clipped;
    let mut dlogits = vec![0.0f32; dist.num_categories()];
    if use_unclipped {
        let dlogp = dist.dlogp_dlogits(action);
        for (g, d) in dlogits.iter_mut().zip(dlogp.iter()) {
            // d(-ratio*adv)/dlogits = -adv * ratio * dlogp
            *g += -adv * ratio * d * ctx.inv;
        }
    }
    // Entropy bonus: loss includes -ecoef * H.
    let dent = dist.dentropy_dlogits();
    for (g, d) in dlogits.iter_mut().zip(dent.iter()) {
        *g += -ctx.entropy_coef * d * ctx.inv;
    }
    let dvalue = ctx.value_coef * verr * ctx.inv;
    (dlogits, dvalue)
}

/// Forward/backward over `rows` on one (already weight-synced) model,
/// gathering the rows' observations into `obs`. The gradients stay
/// accumulated in the model; returns the rows' loss sums.
fn forward_backward(
    net: &mut dyn PolicyValueNet,
    ctx: &MinibatchCtx,
    rows: &[usize],
    obs: &mut Matrix,
) -> LossSums {
    ctx.batch.obs.gather_rows_into(rows, obs);
    let mut sums = LossSums::default();
    net.zero_grad();
    net.train_batch(obs, &mut |i, logits, value| {
        row_grad(ctx, rows[i], logits, value, &mut sums)
    });
    sums
}

/// One replica shard's model and buffers, reused by every minibatch.
struct ShardSlot {
    replica: Box<dyn PolicyValueNet>,
    obs: Matrix,
    grads: GradBuffer,
    sums: LossSums,
}

/// Everything the update allocates, built once per trainer and reused by
/// every minibatch: the replicas for shards 1..N with their gather and
/// gradient buffers, shard 0's gather buffer and the weight snapshot the
/// replicas sync from. Only the architecture matters (weights are
/// re-synced every minibatch), so it is never checkpointed.
#[derive(Default)]
pub(crate) struct UpdateWorkspace {
    slots: Vec<ShardSlot>,
    obs0: Matrix,
    weights: Vec<Matrix>,
}

impl UpdateWorkspace {
    /// Keeps exactly `replicas` replicas of `net`'s architecture, one per
    /// shard beyond shard 0 — sized by the config, never by the pool.
    pub fn ensure_replicas(&mut self, net: &dyn PolicyValueNet, replicas: usize) {
        while self.slots.len() < replicas {
            self.slots.push(ShardSlot {
                replica: net.clone_box(),
                obs: Matrix::default(),
                grads: GradBuffer::default(),
                sums: LossSums::default(),
            });
        }
        self.slots.truncate(replicas);
    }
}

/// Runs one minibatch split across up to `replicas + 1` shards, leaving
/// the **reduced** gradient in `primary`'s parameters and returning the
/// combined loss sums.
///
/// The sibling shards 1..N are queued on the rayon pool, each against a
/// workspace replica synced to the primary's exact weight bytes. Shard 0
/// (the first rows of `chunk`) then runs on the calling thread directly
/// against `primary` — its backward pass accumulates into the primary's
/// freshly-zeroed gradients in place, with parallel matmul dispatch
/// suppressed ([`with_inline_kernels`]) since the siblings fill the pool.
/// The calling thread then helps run whichever siblings are still queued
/// while the workers take the rest. The replicas' buffers are reduced
/// into the primary **in shard order**, whichever thread ran them and
/// whatever order they finished in; loss sums reduce identically.
///
/// The shard layout — `chunk` split into `ceil(len / shards)`-sized
/// contiguous ranges — depends only on the arguments, so the result is
/// bit-identical for every thread count. A single-shard layout (no
/// replicas, or a one-row chunk) is the plain unsharded update: one
/// forward/backward on the primary, no weight sync, no reduction.
pub(crate) fn sharded_minibatch(
    primary: &mut dyn PolicyValueNet,
    workspace: &mut UpdateWorkspace,
    ctx: &MinibatchCtx,
    chunk: &[usize],
) -> LossSums {
    let UpdateWorkspace {
        slots,
        obs0,
        weights,
    } = workspace;
    let shards = (slots.len() + 1).min(chunk.len()).max(1);
    if shards == 1 {
        return forward_backward(primary, ctx, chunk, obs0);
    }
    let sub_len = chunk.len().div_ceil(shards);
    let mut ranges = chunk.chunks(sub_len);
    let shard0_rows = ranges.next().expect("minibatch chunks are non-empty");
    // `ceil`-sized ranges can number fewer than `shards` (10 rows over 8
    // shards make 5), so only as many replicas as there are ranges run —
    // and only those are reduced; the rest hold a stale minibatch.
    let siblings = &mut slots[..ranges.len()];
    snapshot_param_values_into(weights, |f| primary.visit_params(f));
    let mut sums = LossSums::default();
    rayon::scope(|scope| {
        let weights = &*weights;
        for (slot, rows) in siblings.iter_mut().zip(ranges) {
            scope.spawn(move |_| {
                load_param_values(weights, |f| slot.replica.visit_params(f));
                slot.sums = forward_backward(slot.replica.as_mut(), ctx, rows, &mut slot.obs);
                slot.grads.harvest_into(|f| slot.replica.visit_params(f));
            });
        }
        sums = with_inline_kernels(|| forward_backward(primary, ctx, shard0_rows, obs0));
    });
    // Fixed-order reduction: shard 0's gradients are already in place;
    // add shards 1..N on top in layout order.
    for slot in siblings.iter() {
        slot.grads.accumulate_into(|f| primary.visit_params(f));
        sums.absorb(&slot.sums);
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocat_nn::models::{MlpConfig, MlpPolicy};
    use autocat_nn::Param;
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

    /// The unsharded reference: one forward/backward over `rows` with
    /// fresh scratch, gradients left in `net`.
    fn run_shard(net: &mut dyn PolicyValueNet, ctx: &MinibatchCtx, rows: &[usize]) -> LossSums {
        forward_backward(net, ctx, rows, &mut Matrix::default())
    }

    /// A workspace holding `replicas` replicas of `net`.
    fn workspace(net: &dyn PolicyValueNet, replicas: usize) -> UpdateWorkspace {
        let mut ws = UpdateWorkspace::default();
        ws.ensure_replicas(net, replicas);
        ws
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
        let mut ws = workspace(&primary, 2);
        let sums = sharded_minibatch(&mut sharded_net, &mut ws, &ctx, &chunk);
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
            let mut ws = workspace(&primary, 3);
            sharded_minibatch(&mut net, &mut ws, &ctx, &chunk);
            grads_of(&mut net)
                .into_iter()
                .map(f32::to_bits)
                .collect::<Vec<u32>>()
        };
        assert_eq!(run(), run());
    }

    /// Degenerate layouts must reduce to a valid gradient over every row:
    /// more shards than rows, zero replicas (single-shard), and chunks
    /// whose `ceil`-sized ranges number fewer than the shards (10 rows
    /// over 8 shards make 5 ranges, 4 rows over 3 make 2).
    #[test]
    fn shard_layout_handles_degenerate_sizes() {
        let (obs_dim, num_actions) = (4usize, 3usize);
        for (n, replica_count) in [(3usize, 7usize), (3, 0), (10, 7), (4, 2)] {
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
            let mut ws = workspace(&primary, replica_count);
            let sums = sharded_minibatch(&mut net, &mut ws, &ctx, &chunk);
            let got = grads_of(&mut net);
            assert_eq!(expected.len(), got.len());
            for (e, g) in expected.iter().zip(got.iter()) {
                assert!(
                    (e - g).abs() <= 1e-4 * (1.0 + e.abs()),
                    "{n} rows, replicas {replica_count}: grad {e} vs {g}"
                );
            }
            assert!((sums.policy_loss - ref_sums.policy_loss).abs() < 1e-4);
            assert!((sums.value_loss - ref_sums.value_loss).abs() < 1e-4);
            assert!((sums.entropy - ref_sums.entropy).abs() < 1e-4);
        }
    }

    /// The zero-replica layout is exactly the single-shard computation,
    /// bit for bit (no weight snapshot, no reduction — one in-place run).
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

    /// One workspace reused across minibatches of different sizes (48
    /// rows, then a ragged 37, so every gather buffer must reshape, then
    /// 10, whose 5 ranges leave replicas holding the last minibatch idle)
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
            let sums = sharded_minibatch(net, ws, &ctx, chunk);
            let grads: Vec<u32> = grads_of(net).into_iter().map(f32::to_bits).collect();
            let sums = [sums.policy_loss, sums.value_loss, sums.entropy].map(f32::to_bits);
            (grads, sums)
        };
        let mut reused = workspace(&primary, 7);
        let mut net = primary.clone();
        for chunk in chunks {
            let got = outcome(&mut net, &mut reused, chunk);
            let mut fresh_net = primary.clone();
            let expected = outcome(&mut fresh_net, &mut workspace(&primary, 7), chunk);
            assert_eq!(got, expected, "chunk of {} rows", chunk.len());
        }
    }
}
