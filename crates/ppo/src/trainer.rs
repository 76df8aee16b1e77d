//! The PPO trainer: clipped surrogate, entropy bonus, value loss.

use autocat_gym::{Environment, VecEnv};
use autocat_nn::models::{
    MlpConfig, MlpPolicy, PolicyValueNet, TrainNet, TransformerConfig, TransformerPolicy,
};
use autocat_nn::optim::clip_scale;
use autocat_nn::Adam;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;

use crate::rollout::{collect, EpisodeTally};
use crate::sharded::{adam_step, sharded_minibatch, MinibatchCtx, UpdateWorkspace};

/// PPO hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PpoConfig {
    /// Adam learning rate.
    pub lr: f32,
    /// Discount factor.
    pub gamma: f32,
    /// GAE λ.
    pub lambda: f32,
    /// Clipping range ε.
    pub clip: f32,
    /// Entropy bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Transitions collected per update.
    pub horizon: usize,
    /// Optimization epochs over each batch.
    pub epochs_per_update: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Environment steps per reporting "epoch" (the paper: 3000).
    pub steps_per_epoch: usize,
    /// Parallel environment lanes collected per rollout (`VecEnv` width).
    /// 1 reproduces the scalar single-env path bit-for-bit.
    pub num_lanes: usize,
    /// Data-parallel gradient shards per minibatch (see
    /// [`crate::sharded`]). 1 (the default) preserves the historical
    /// single-threaded update verbatim; values > 1 split each minibatch
    /// into shards that run on the rayon pool against the one network,
    /// each with its own tape, and reduce gradients in fixed shard
    /// order, so results are bit-identical for every
    /// `RAYON_NUM_THREADS` — but not to the 1-shard path (floating-point
    /// reassociation), which is why this is a checkpointed
    /// hyper-parameter, not a runtime knob.
    pub grad_shards: usize,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            lr: 3e-4,
            gamma: 0.99,
            lambda: 0.95,
            clip: 0.2,
            entropy_coef: 0.01,
            value_coef: 0.5,
            horizon: 1024,
            epochs_per_update: 8,
            minibatch: 256,
            max_grad_norm: 0.5,
            steps_per_epoch: 3000,
            num_lanes: 1,
            grad_shards: 1,
        }
    }
}

impl PpoConfig {
    /// A smaller, faster configuration for tiny environments and tests.
    pub fn fast() -> Self {
        Self {
            horizon: 512,
            minibatch: 128,
            ..Self::default()
        }
    }

    /// Sets the number of parallel rollout lanes.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.num_lanes = lanes.max(1);
        self
    }

    /// Sets the number of data-parallel gradient shards per minibatch.
    #[must_use]
    pub fn with_grad_shards(mut self, shards: usize) -> Self {
        self.grad_shards = shards.max(1);
        self
    }

    /// The recipe validated on the paper's small cache configurations:
    /// larger batches and a hotter entropy bonus to escape the
    /// guess-immediately local optimum.
    pub fn small_env() -> Self {
        Self {
            lr: 5e-4,
            entropy_coef: 0.02,
            horizon: 2048,
            minibatch: 256,
            epochs_per_update: 8,
            ..Self::default()
        }
    }
}

/// Network backbone selection (paper Sec. VI-B compares Transformer and
/// MLP).
#[derive(Clone, Debug, PartialEq)]
pub enum Backbone {
    /// MLP with the given hidden widths.
    Mlp {
        /// Hidden-layer widths.
        hidden: Vec<usize>,
    },
    /// Single-layer Transformer encoder.
    Transformer {
        /// Model dimension.
        d_model: usize,
        /// Attention heads.
        num_heads: usize,
        /// Feed-forward width.
        ff_dim: usize,
    },
}

impl Backbone {
    /// The default MLP backbone (2×128, tanh).
    pub fn default_mlp() -> Self {
        Backbone::Mlp {
            hidden: vec![128, 128],
        }
    }

    /// A small Transformer backbone (CPU-friendly version of the paper's
    /// 128-dim 8-head encoder).
    pub fn small_transformer() -> Self {
        Backbone::Transformer {
            d_model: 32,
            num_heads: 4,
            ff_dim: 64,
        }
    }

    pub(crate) fn build(&self, env: &impl Environment, rng: &mut StdRng) -> Box<dyn TrainNet> {
        match self {
            Backbone::Mlp { hidden } => {
                let cfg =
                    MlpConfig::new(env.obs_dim(), env.num_actions()).with_hidden(hidden.clone());
                Box::new(MlpPolicy::new(&cfg, rng))
            }
            Backbone::Transformer {
                d_model,
                num_heads,
                ff_dim,
            } => {
                let cfg = TransformerConfig::new(env.window(), env.token_dim(), env.num_actions())
                    .with_dims(*d_model, *num_heads, *ff_dim);
                Box::new(TransformerPolicy::new(&cfg, rng))
            }
        }
    }
}

/// Statistics of one PPO update.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UpdateStats {
    /// Episode statistics during collection.
    pub episodes: EpisodeTally,
    /// Mean policy (surrogate) loss.
    pub policy_loss: f32,
    /// Mean value loss.
    pub value_loss: f32,
    /// Mean entropy of the policy.
    pub entropy: f32,
    /// Pre-clip global gradient norm of the last minibatch.
    pub grad_norm: f32,
}

/// Why training stopped early: a minibatch's global gradient norm was not
/// finite (NaN or infinite), so its update would have written non-finite
/// weights. The update stops before its optimizer step, and training goes
/// no further.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Divergence {
    /// Environment steps taken, the diverging update's rollout included.
    pub steps: u64,
    /// The gradient norm that was not finite.
    pub grad_norm: f32,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "training diverged at step {}: the gradient norm is {}",
            self.steps, self.grad_norm
        )
    }
}

impl std::error::Error for Divergence {}

/// Result of [`Trainer::train_until`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainResult {
    /// Environment steps at which the convergence criterion was first met.
    pub converged_at_steps: Option<u64>,
    /// Paper-style epochs (steps / `steps_per_epoch`) at convergence.
    pub converged_at_epochs: Option<f64>,
    /// Total environment steps taken.
    pub total_steps: u64,
    /// Average return over the trailing window when training stopped.
    pub final_avg_return: f32,
    /// Average episode length over the trailing window.
    pub final_avg_length: f32,
    /// Guess accuracy over the trailing window.
    pub final_accuracy: f32,
    /// Set when training stopped on a non-finite gradient norm.
    pub diverged: Option<Divergence>,
}

/// The PPO trainer owning a [`VecEnv`] of environment lanes and a
/// policy/value network. Rollouts run one batched forward per step across
/// all lanes; `PpoConfig::num_lanes` controls the width.
pub struct Trainer<E: Environment> {
    pub(crate) venv: VecEnv<E>,
    pub(crate) net: Box<dyn TrainNet>,
    /// Kept so checkpoints can rebuild the same network architecture.
    pub(crate) backbone: Backbone,
    pub(crate) adam: Adam,
    pub(crate) config: PpoConfig,
    pub(crate) rng: StdRng,
    pub(crate) total_steps: u64,
    pub(crate) recent: VecDeque<(f32, usize, bool)>,
    pub(crate) recent_cap: usize,
    /// The update's per-shard tapes and buffers, sized on the first
    /// `train_update` and reused by every minibatch after. They hold no
    /// weights (every shard reads `net`'s), so they are never
    /// checkpointed.
    pub(crate) workspace: UpdateWorkspace,
}

impl<E: Environment + Clone + Send> Trainer<E> {
    /// Creates a trainer for `env` with a fresh network, cloning the
    /// environment into `config.num_lanes` VecEnv lanes.
    pub fn new(env: E, backbone: Backbone, config: PpoConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = backbone.build(&env, &mut rng);
        let adam = Adam::new(config.lr);
        let venv = VecEnv::new(config.num_lanes.max(1), env, seed)
            .expect("at least one lane after clamping");
        Self {
            venv,
            net,
            backbone,
            adam,
            config,
            rng,
            total_steps: 0,
            recent: VecDeque::new(),
            recent_cap: 100,
            workspace: UpdateWorkspace::default(),
        }
    }
}

impl<E: Environment + Send> Trainer<E> {
    /// The first lane's environment (e.g. to inspect its action space).
    pub fn env(&self) -> &E {
        self.venv.lane(0)
    }

    /// The vectorized environment driving rollouts.
    pub fn vecenv(&self) -> &VecEnv<E> {
        &self.venv
    }

    /// Number of parallel rollout lanes.
    pub fn num_lanes(&self) -> usize {
        self.venv.num_lanes()
    }

    /// The policy network.
    pub fn net_mut(&mut self) -> &mut dyn PolicyValueNet {
        self.net.as_mut()
    }

    /// Total environment steps taken so far.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Paper-style epoch count (`steps / steps_per_epoch`).
    pub fn epochs(&self) -> f64 {
        self.total_steps as f64 / self.config.steps_per_epoch as f64
    }

    /// Average return over the trailing episode window.
    pub fn avg_return(&self) -> f32 {
        if self.recent.is_empty() {
            return 0.0;
        }
        self.recent.iter().map(|(r, _, _)| r).sum::<f32>() / self.recent.len() as f32
    }

    /// Average episode length over the trailing window.
    pub fn avg_length(&self) -> f32 {
        if self.recent.is_empty() {
            return 0.0;
        }
        self.recent.iter().map(|(_, l, _)| *l as f32).sum::<f32>() / self.recent.len() as f32
    }

    /// Guess accuracy over the trailing window.
    pub fn accuracy(&self) -> f32 {
        if self.recent.is_empty() {
            return 0.0;
        }
        self.recent.iter().filter(|(_, _, c)| *c).count() as f32 / self.recent.len() as f32
    }

    /// Runs one PPO update (collect + optimize).
    ///
    /// # Errors
    ///
    /// Returns a [`Divergence`] at the first minibatch whose gradient norm
    /// is not finite, before its optimizer step: the weights keep the
    /// previous minibatch's values.
    pub fn train_update(&mut self) -> Result<UpdateStats, Divergence> {
        let cfg = self.config;
        let batch = collect(
            &mut self.venv,
            self.net.as_mut(),
            cfg.horizon,
            cfg.gamma,
            cfg.lambda,
            &mut self.rng,
        );
        self.total_steps += batch.actions.len() as u64;
        // Track per-episode results for convergence reporting. The tally is
        // aggregated, so spread it uniformly over the finished episodes.
        for i in 0..batch.episodes.count {
            let avg_r = batch.episodes.avg_return();
            let avg_l = batch.episodes.avg_length() as usize;
            let correct = i < batch.episodes.correct;
            self.recent.push_back((avg_r, avg_l.max(1), correct));
            while self.recent.len() > self.recent_cap {
                self.recent.pop_front();
            }
        }

        // Normalize advantages.
        let n = batch.actions.len();
        let mean = batch.advantages.iter().sum::<f32>() / n as f32;
        let var = batch
            .advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f32>()
            / n as f32;
        let std = var.sqrt().max(1e-6);
        let advantages: Vec<f32> = batch.advantages.iter().map(|a| (a - mean) / std).collect();

        let mut stats = UpdateStats {
            episodes: batch.episodes,
            ..UpdateStats::default()
        };
        let mut loss_samples = 0usize;
        let mut indices: Vec<usize> = (0..n).collect();
        for _ in 0..cfg.epochs_per_update {
            indices.shuffle(&mut self.rng);
            for chunk in indices.chunks(cfg.minibatch) {
                let ctx = MinibatchCtx {
                    batch: &batch,
                    advantages: &advantages,
                    clip: cfg.clip,
                    entropy_coef: cfg.entropy_coef,
                    value_coef: cfg.value_coef,
                    inv: 1.0 / chunk.len() as f32,
                };
                // One shard is the plain single-threaded update; more run
                // concurrently against the one net, each into its own
                // tape, reducing gradients and loss sums in fixed shard
                // order. The reduction also returns the global norm, so
                // the clip is a scale factor Adam applies as it reads
                // each gradient. The reduce and Adam split across the
                // pool's threads, with each element's operations, and so
                // the result, unchanged.
                let (sums, grad_norm) = sharded_minibatch(
                    self.net.as_mut(),
                    &mut self.workspace,
                    cfg.grad_shards,
                    &ctx,
                    chunk,
                );
                if !grad_norm.is_finite() {
                    return Err(Divergence {
                        steps: self.total_steps,
                        grad_norm,
                    });
                }
                stats.grad_norm = grad_norm;
                adam_step(
                    self.net.as_mut(),
                    &mut self.workspace,
                    &mut self.adam,
                    clip_scale(cfg.max_grad_norm, grad_norm),
                );
                stats.policy_loss += sums.policy_loss;
                stats.value_loss += sums.value_loss;
                stats.entropy += sums.entropy;
                loss_samples += chunk.len();
            }
        }
        if loss_samples > 0 {
            stats.policy_loss /= loss_samples as f32;
            stats.value_loss /= loss_samples as f32;
            stats.entropy /= loss_samples as f32;
        }
        Ok(stats)
    }

    /// Trains until the trailing average episode return reaches
    /// `return_threshold` (with a full trailing window) or `max_steps`
    /// environment steps have been taken, or an update diverges
    /// ([`TrainResult::diverged`]).
    pub fn train_until(&mut self, return_threshold: f32, max_steps: u64) -> TrainResult {
        self.train_until_with(return_threshold, max_steps, |_, _| {})
    }

    /// [`Trainer::train_until`] with a progress callback invoked after
    /// every update with `(total env steps, trailing average return)`.
    ///
    /// This *is* the training loop — `train_until` delegates here with a
    /// no-op observer — so anything driving training through the callback
    /// (the serving daemon's progress stream) stays bit-identical to the
    /// one-shot path by construction.
    pub fn train_until_with(
        &mut self,
        return_threshold: f32,
        max_steps: u64,
        mut on_update: impl FnMut(u64, f32),
    ) -> TrainResult {
        let mut converged_at = None;
        let mut diverged = None;
        while self.total_steps < max_steps {
            if let Err(divergence) = self.train_update() {
                diverged = Some(divergence);
                break;
            }
            on_update(self.total_steps, self.avg_return());
            if converged_at.is_none()
                && self.recent.len() >= self.recent_cap / 2
                && self.avg_return() >= return_threshold
            {
                converged_at = Some(self.total_steps);
                break;
            }
        }
        TrainResult {
            converged_at_steps: converged_at,
            converged_at_epochs: converged_at
                .map(|s| s as f64 / self.config.steps_per_epoch as f64),
            total_steps: self.total_steps,
            final_avg_return: self.avg_return(),
            final_avg_length: self.avg_length(),
            final_accuracy: self.accuracy(),
            diverged,
        }
    }

    /// Splits the trainer into the pieces evaluation needs: the first
    /// lane's environment, the network, and the trainer RNG.
    pub fn parts_mut(&mut self) -> (&mut E, &mut dyn PolicyValueNet, &mut StdRng) {
        (self.venv.lane_mut(0), self.net.as_mut(), &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocat_gym::{env::CacheGuessingGame, EnvConfig};

    #[test]
    fn update_runs_and_reports_stats() {
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
        let mut t = Trainer::new(
            env,
            Backbone::Mlp { hidden: vec![32] },
            PpoConfig {
                horizon: 256,
                minibatch: 64,
                ..PpoConfig::default()
            },
            0,
        );
        let stats = t.train_update().expect("finite update");
        assert!(stats.episodes.count > 0);
        assert!(
            stats.entropy > 0.0,
            "entropy must be positive early in training"
        );
        assert_eq!(t.total_steps(), 256);
    }

    /// One NaN weight makes every gradient NaN: the first update stops
    /// before its optimizer step with an error naming the step, the
    /// weights stay as they were, and `train_until` stops there too.
    #[test]
    fn a_nan_weight_stops_training_with_an_error() {
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
        let config = PpoConfig {
            horizon: 128,
            minibatch: 64,
            ..PpoConfig::default()
        }
        .with_grad_shards(2);
        let mut t = Trainer::new(env, Backbone::Mlp { hidden: vec![16] }, config, 3);
        // The value head's bias, the last parameter: every row's value,
        // and so every gradient, is NaN.
        let mut count = 0;
        t.net_mut().visit_params(&mut |_| count += 1);
        let mut index = 0;
        t.net_mut().visit_params(&mut |p| {
            index += 1;
            if index == count {
                p.value.as_mut_slice()[0] = f32::NAN;
            }
        });
        let before = autocat_nn::state::params_digest(t.net_mut());
        let err = t.train_update().unwrap_err();
        assert_eq!(err.steps, 128);
        assert!(err.grad_norm.is_nan());
        assert_eq!(
            err.to_string(),
            "training diverged at step 128: the gradient norm is NaN"
        );
        assert_eq!(autocat_nn::state::params_digest(t.net_mut()), before);
        let result = t.train_until(f32::INFINITY, 10_000);
        assert_eq!(result.diverged.map(|d| d.steps), Some(256));
        assert_eq!(result.total_steps, 256);
    }

    #[test]
    fn returns_improve_on_trivial_env() {
        // Sanity: on the flush+reload config a short training run must beat
        // the untrained policy's average return. (Full convergence is
        // exercised by the benchmark harness; this is a smoke test.)
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4().with_window(8)).unwrap();
        let mut t = Trainer::new(
            env,
            Backbone::Mlp { hidden: vec![32] },
            PpoConfig {
                horizon: 512,
                ..PpoConfig::small_env()
            },
            1,
        );
        let first = t.train_update().unwrap().episodes.avg_return();
        for _ in 0..25 {
            t.train_update().unwrap();
        }
        let last = t.avg_return();
        assert!(
            last > first + 0.2,
            "training must improve returns: first {first}, last {last}"
        );
    }

    #[test]
    fn transformer_backbone_trains() {
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4().with_window(8)).unwrap();
        let mut t = Trainer::new(
            env,
            Backbone::Transformer {
                d_model: 16,
                num_heads: 2,
                ff_dim: 32,
            },
            PpoConfig {
                horizon: 128,
                minibatch: 64,
                epochs_per_update: 2,
                ..PpoConfig::default()
            },
            2,
        );
        let stats = t.train_update().expect("finite update");
        assert!(stats.episodes.count > 0);
    }

    #[test]
    fn multi_lane_update_collects_across_lanes() {
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
        let mut t = Trainer::new(
            env,
            Backbone::Mlp { hidden: vec![32] },
            PpoConfig {
                horizon: 256,
                minibatch: 64,
                num_lanes: 8,
                ..PpoConfig::default()
            },
            0,
        );
        assert_eq!(t.num_lanes(), 8);
        let stats = t.train_update().expect("finite update");
        assert!(stats.episodes.count > 0);
        assert_eq!(t.total_steps(), 256, "256 divides evenly across 8 lanes");
        assert!(stats.entropy > 0.0);
    }

    #[test]
    fn multi_lane_training_improves_returns() {
        // The vectorized path must actually learn, not just run.
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4().with_window(8)).unwrap();
        let mut t = Trainer::new(
            env,
            Backbone::Mlp { hidden: vec![32] },
            PpoConfig {
                horizon: 512,
                num_lanes: 4,
                ..PpoConfig::small_env()
            },
            1,
        );
        let first = t.train_update().unwrap().episodes.avg_return();
        for _ in 0..25 {
            t.train_update().unwrap();
        }
        let last = t.avg_return();
        assert!(
            last > first + 0.2,
            "vectorized training must improve returns: first {first}, last {last}"
        );
    }

    #[test]
    fn sharded_update_collects_and_learns() {
        // The data-parallel path must actually train, not just run.
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4().with_window(8)).unwrap();
        let mut t = Trainer::new(
            env,
            Backbone::Mlp { hidden: vec![32] },
            PpoConfig {
                horizon: 512,
                num_lanes: 4,
                grad_shards: 4,
                ..PpoConfig::small_env()
            },
            1,
        );
        let first = t.train_update().unwrap().episodes.avg_return();
        for _ in 0..25 {
            t.train_update().unwrap();
        }
        let last = t.avg_return();
        assert!(
            last > first + 0.2,
            "sharded training must improve returns: first {first}, last {last}"
        );
    }

    #[test]
    fn sharded_training_is_bitwise_deterministic() {
        // Two trainers, same seed and shard layout: stats and final
        // weight bytes must agree exactly, whatever the worker pool does.
        let run = || {
            let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
            let mut t = Trainer::new(
                env,
                Backbone::Mlp { hidden: vec![16] },
                PpoConfig {
                    horizon: 256,
                    minibatch: 64,
                    epochs_per_update: 2,
                    num_lanes: 2,
                    grad_shards: 3,
                    ..PpoConfig::default()
                },
                9,
            );
            let mut stats = Vec::new();
            for _ in 0..3 {
                stats.push(t.train_update().unwrap());
            }
            (stats, autocat_nn::state::params_digest(t.net_mut()))
        };
        let (stats_a, digest_a) = run();
        let (stats_b, digest_b) = run();
        assert_eq!(stats_a, stats_b);
        assert_eq!(digest_a, digest_b, "weights must be bit-identical");
    }

    #[test]
    fn small_transformer_training_matches_the_pinned_digest() {
        // A recorded value, not a second run: any bit drift in the
        // Transformer's layers, the PPO loss or Adam fails here.
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4().with_window(8)).unwrap();
        let mut t = Trainer::new(
            env,
            Backbone::small_transformer(),
            PpoConfig {
                horizon: 64,
                minibatch: 32,
                epochs_per_update: 2,
                ..PpoConfig::default()
            },
            4,
        );
        t.train_update().unwrap();
        t.train_update().unwrap();
        assert_eq!(
            format!("{:016x}", autocat_nn::state::params_digest(t.net_mut())),
            "c6d603bdf9c5243b"
        );
    }

    #[test]
    fn sharded_small_transformer_training_matches_the_pinned_digest() {
        // The Transformer through the sharded update (3 shards: 11-row
        // ranges of each 32-row minibatch), pinned like the 1-shard run
        // above.
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4().with_window(8)).unwrap();
        let mut t = Trainer::new(
            env,
            Backbone::small_transformer(),
            PpoConfig {
                horizon: 64,
                minibatch: 32,
                epochs_per_update: 2,
                grad_shards: 3,
                ..PpoConfig::default()
            },
            4,
        );
        t.train_update().unwrap();
        t.train_update().unwrap();
        assert_eq!(
            format!("{:016x}", autocat_nn::state::params_digest(t.net_mut())),
            "86df3be3c89dc2d0"
        );
    }

    #[test]
    fn train_batch_accumulates_into_the_pinned_gradient_bits() {
        // Two `train_batch` calls with no `zero_grad` between them must
        // add the second batch's gradients onto the first's: the
        // accumulate contract of `PolicyValueNet::train_batch`, pinned
        // as recorded bits for both backbones.
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4().with_window(8)).unwrap();
        let obs_dim = env.obs_dim();
        let obs = |seed: usize| {
            let data = (0..6 * obs_dim)
                .map(|j| match (j * 7 + seed * 3) % 5 {
                    0 => 1.0,
                    1 => -0.5,
                    _ => 0.0,
                })
                .collect();
            autocat_nn::Matrix::from_vec(6, obs_dim, data)
        };
        let mut grad_fn = |i: usize, logits: &[f32], value: f32| {
            let dl = logits
                .iter()
                .enumerate()
                .map(|(a, &l)| 0.5 * l - f32::from(u8::from(a == i % logits.len())))
                .collect();
            (dl, value - 0.25)
        };
        let mut digests = Vec::new();
        for backbone in [
            Backbone::Mlp {
                hidden: vec![16, 8],
            },
            Backbone::small_transformer(),
        ] {
            let mut t = Trainer::new(env.clone(), backbone, PpoConfig::default(), 7);
            let net = t.net_mut();
            net.zero_grad();
            net.train_batch(&obs(1), &mut grad_fn);
            net.train_batch(&obs(2), &mut grad_fn);
            let mut bytes = Vec::new();
            net.visit_params(&mut |p| {
                for g in p.grad.as_slice() {
                    bytes.extend_from_slice(&g.to_bits().to_le_bytes());
                }
            });
            digests.push(format!("{:016x}", autocat_nn::state::fnv1a(bytes)));
        }
        assert_eq!(digests, ["cca6dd5d18487ef0", "b9fd97677bf268a7"]);
    }

    #[test]
    fn single_lane_trainer_matches_default_config() {
        // num_lanes: 1 (the default) and an explicit with_lanes(1) must
        // produce identical training traces for identical seeds.
        let mk = |cfg: PpoConfig| {
            let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
            let mut t = Trainer::new(env, Backbone::Mlp { hidden: vec![16] }, cfg, 5);
            let s = t.train_update().unwrap();
            (s.policy_loss, s.value_loss, s.entropy, s.episodes)
        };
        let base = PpoConfig {
            horizon: 128,
            minibatch: 64,
            epochs_per_update: 2,
            ..PpoConfig::default()
        };
        assert_eq!(mk(base), mk(base.with_lanes(1)));
    }

    #[test]
    fn epochs_metric_uses_paper_units() {
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
        let mut t = Trainer::new(
            env,
            Backbone::Mlp { hidden: vec![16] },
            PpoConfig {
                horizon: 300,
                steps_per_epoch: 3000,
                ..PpoConfig::default()
            },
            3,
        );
        t.train_update().unwrap();
        assert!((t.epochs() - 0.1).abs() < 1e-9);
    }
}
