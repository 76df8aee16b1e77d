//! Data-parallel sharded minibatch optimization.
//!
//! The PPO update is the training hot path: `epochs_per_update` full
//! forward/backward passes over every collected transition. Sharding
//! splits each minibatch into `PpoConfig::grad_shards` contiguous index
//! ranges and runs each range's forward/backward concurrently against the
//! **one** primary network, which every shard reads through `&` (its
//! [`TrainNet::train_shard`] takes `&self`): shard 0 on the calling
//! thread, shards 1..N as rayon tasks, which the pool workers and the
//! waiting caller share between them. Sharding is the update's only
//! parallelism: the matmul kernels run serially on whichever thread runs
//! a shard, so one shard keeps the update on one core. Each shard writes
//! its activations and accumulates its gradients into its own [`Tape`];
//! shard 0's gradient tensors are then swapped into the primary's
//! parameters and the rest reduced on top **in fixed shard order**. The
//! tapes and every buffer the update needs live in an `UpdateWorkspace`
//! sized on first use, so the steady-state update allocates none of them.
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
//!   own tape, whose gradients start from zero — no shared float state;
//! * the reduction ([`reduce_grads`]) runs on the calling thread in shard
//!   order — shard 0's gradients swapped in (no copy), shards 1..N added
//!   on top — regardless of which thread ran a shard or which finished
//!   first; the per-shard loss sums are added in the same fixed order.
//!   The same pass sums the squared global norm the clip needs, in the
//!   order a separate norm pass would.
//!
//! Note that sharded results are *not* bit-identical to the unsharded
//! (`grad_shards = 1`) update: splitting a matrix product over the batch
//! dimension reassociates floating-point sums. `grad_shards` is therefore
//! part of the training configuration (checkpointed like every other
//! hyper-parameter), and the single-shard layout runs the historical
//! single-threaded update's exact operations.

use autocat_nn::grad::reduce_grads;
use autocat_nn::models::{Tape, TrainNet};
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

/// One shard's tape and buffers, reused by every minibatch.
struct ShardSlot {
    tape: Tape,
    obs: Matrix,
    sums: LossSums,
}

impl ShardSlot {
    /// Forward/backward over `rows` against `net`, gathering the rows'
    /// observations into `obs`: the gradients accumulate from zero into
    /// the slot's tape, and the rows' loss sums go into `sums`.
    fn run(&mut self, net: &dyn TrainNet, ctx: &MinibatchCtx, rows: &[usize]) {
        ctx.batch.obs.gather_rows_into(rows, &mut self.obs);
        self.tape.grads.iter_mut().for_each(Matrix::fill_zero);
        let mut sums = LossSums::default();
        net.train_shard(&mut self.tape, &self.obs, &mut |i, logits, value| {
            row_grad(ctx, rows[i], logits, value, &mut sums)
        });
        self.sums = sums;
    }
}

/// Everything the update allocates: one [`ShardSlot`] per shard, added on
/// the first minibatch that runs that many shards and reused by every
/// minibatch after. It holds no weights, so it is never checkpointed.
#[derive(Default)]
pub(crate) struct UpdateWorkspace {
    slots: Vec<ShardSlot>,
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
/// pass; loss sums reduce in the same order. With one range there is
/// nothing to add, and the reduction only sums the norm: the plain
/// unsharded update.
pub(crate) fn sharded_minibatch(
    primary: &mut dyn TrainNet,
    workspace: &mut UpdateWorkspace,
    shards: usize,
    ctx: &MinibatchCtx,
    chunk: &[usize],
) -> (LossSums, f32) {
    let sub_len = chunk.len().div_ceil(shards.max(1));
    let mut ranges = chunk.chunks(sub_len.max(1));
    let slots = &mut workspace.slots;
    while slots.len() < ranges.len() {
        slots.push(ShardSlot {
            tape: Tape::for_net(primary),
            obs: Matrix::default(),
            sums: LossSums::default(),
        });
    }
    let (slot0, siblings) = slots[..ranges.len()]
        .split_first_mut()
        .expect("minibatch chunks are non-empty");
    let shard0_rows = ranges.next().expect("minibatch chunks are non-empty");
    let net: &dyn TrainNet = primary;
    rayon::scope(|scope| {
        for (slot, rows) in siblings.iter_mut().zip(ranges) {
            scope.spawn(move |_| slot.run(net, ctx, rows));
        }
        slot0.run(net, ctx, shard0_rows);
    });
    // Fixed-order reduction: shard 0's gradients move into the primary;
    // add shards 1..N on top in layout order.
    slot0.tape.swap_grads(primary);
    let shard_grads: Vec<&[Matrix]> = siblings.iter().map(|s| s.tape.grads.as_slice()).collect();
    let norm = reduce_grads(&shard_grads, |f| primary.visit_params(f)).sqrt();
    let mut sums = slot0.sums;
    for slot in siblings.iter() {
        sums.absorb(&slot.sums);
    }
    (sums, norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocat_nn::models::{
        MlpConfig, MlpPolicy, PolicyValueNet, TransformerConfig, TransformerPolicy,
    };
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

    /// The unsharded reference: one `train_batch` over `rows` from zeroed
    /// gradients, which it leaves in `net`.
    fn run_shard(net: &mut dyn PolicyValueNet, ctx: &MinibatchCtx, rows: &[usize]) -> LossSums {
        let obs = ctx.batch.obs.gather_rows(rows);
        let mut sums = LossSums::default();
        net.zero_grad();
        net.train_batch(&obs, &mut |i, logits, value| {
            row_grad(ctx, rows[i], logits, value, &mut sums)
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
}
