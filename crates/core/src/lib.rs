//! # AutoCAT — RL for automated exploration of cache-timing attacks
//!
//! A from-scratch Rust reproduction of *"AutoCAT: Reinforcement Learning
//! for Automated Exploration of Cache-Timing Attacks"* (HPCA 2023).
//!
//! AutoCAT frames a cache-timing attack as a guessing game: an RL agent
//! controls the attack program (accesses, flushes, victim triggers) against
//! a cache holding a victim secret, and is rewarded for guessing the secret
//! in few steps. Trained with PPO, the agent rediscovers prime+probe,
//! flush+reload, evict+reload and replacement-state attacks across cache
//! configurations, learns to bypass detectors, and discovered the
//! `StealthyStreamline` attack.
//!
//! This crate is the facade: it re-exports the substrate crates and offers
//! the high-level [`Explorer`] API.
//!
//! ```no_run
//! use autocat::{Explorer, gym::EnvConfig};
//!
//! // Explore attacks on the paper's Table IV config 6 (flush+reload).
//! let report = Explorer::new(EnvConfig::flush_reload_fa4())
//!     .seed(7)
//!     .max_steps(300_000)
//!     .run()
//!     .expect("valid configuration");
//! println!("found: {} ({})", report.sequence_notation, report.category);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`cache`] | cache simulator: policies, prefetchers, hierarchy, PL locking |
//! | [`detect`] | CC-Hunter autocorrelation, Cyclone SVM, miss-count detectors |
//! | [`gym`] | the guessing-game environments + simulated hardware backend |
//! | [`nn`] | matrices, manual-backprop layers, MLP/Transformer, Adam |
//! | [`ppo`] | the PPO trainer, evaluation, deterministic replay |
//! | [`attacks`] | textbook attacks, classifier, covert-channel model, search |
//!
//! The sibling `autocat-scenario` crate (which layers on top of this
//! facade) adds the declarative scenario registry and TOML/JSON scenario
//! files; `Scenario::run` drives [`Explorer`] from data.

pub use autocat_attacks as attacks;
pub use autocat_cache as cache;
pub use autocat_detect as detect;
pub use autocat_gym as gym;
pub use autocat_nn as nn;
pub use autocat_ppo as ppo;

use autocat_attacks::classify::{classify_sequence, AttackCategory};
use autocat_gym::{Action, CacheGuessingGame, EnvConfig};
use autocat_ppo::{eval, Backbone, PpoConfig, Trainer};

/// The outcome of one exploration run.
#[derive(Clone, Debug)]
pub struct ExplorationReport {
    /// The attack sequence found by deterministic replay (action indices).
    pub sequence: Vec<Action>,
    /// The sequence in the paper's notation (`f0 -> v -> 0 -> g`).
    pub sequence_notation: String,
    /// Heuristic attack category (the paper's "attack analysis").
    pub category: AttackCategory,
    /// Guess accuracy (correct / episodes) over the evaluation episodes.
    pub accuracy: f64,
    /// Fraction of evaluation episodes terminated by a detector (the
    /// Sec. V-D defense metric).
    pub detection_rate: f64,
    /// Evaluation episodes behind the two rates above.
    pub eval_episodes: usize,
    /// Environment steps spent training.
    pub training_steps: u64,
    /// Paper-style epochs (3000 steps each) to convergence, if converged.
    pub epochs_to_converge: Option<f64>,
    /// Average episode length at the end of training.
    pub episode_length: f32,
    /// Whether training met the convergence criterion.
    pub converged: bool,
}

/// High-level exploration driver: train PPO on a guessing-game
/// configuration, extract the attack by deterministic replay, evaluate its
/// accuracy and classify it.
#[derive(Clone, Debug)]
pub struct Explorer {
    config: EnvConfig,
    backbone: Backbone,
    ppo: PpoConfig,
    lanes: Option<usize>,
    shards: Option<usize>,
    seed: u64,
    max_steps: u64,
    return_threshold: f32,
    eval_episodes: usize,
}

impl Explorer {
    /// Creates an explorer with the hyper-parameters validated on the
    /// paper's small cache configurations.
    pub fn new(config: EnvConfig) -> Self {
        Self {
            config,
            backbone: Backbone::Mlp {
                hidden: vec![64, 64],
            },
            ppo: PpoConfig::small_env(),
            lanes: None,
            shards: None,
            seed: 0,
            max_steps: 400_000,
            return_threshold: 0.85,
            eval_episodes: 200,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of parallel rollout lanes (`VecEnv` width). One lane
    /// (the default) reproduces the scalar training path bit-for-bit;
    /// more lanes batch the policy forwards and parallelize stepping.
    /// Takes effect regardless of builder-call order: it overrides the
    /// `num_lanes` of any [`PpoConfig`] passed to [`Explorer::ppo`].
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes.max(1));
        self
    }

    /// Sets the number of data-parallel gradient shards per minibatch
    /// (`PpoConfig::grad_shards`). One shard (the default) is the
    /// historical single-threaded update; more shards split each
    /// minibatch's forward/backward across the rayon pool with a
    /// fixed-order reduction that keeps training bit-identical for every
    /// thread count. Overrides any [`PpoConfig`] passed to
    /// [`Explorer::ppo`], like [`Explorer::lanes`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Sets the training-step budget.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = steps;
        self
    }

    /// Sets the network backbone.
    pub fn backbone(mut self, backbone: Backbone) -> Self {
        self.backbone = backbone;
        self
    }

    /// Sets the PPO hyper-parameters.
    pub fn ppo(mut self, ppo: PpoConfig) -> Self {
        self.ppo = ppo;
        self
    }

    /// Sets the trailing-average-return threshold treated as convergence.
    pub fn return_threshold(mut self, threshold: f32) -> Self {
        self.return_threshold = threshold;
        self
    }

    /// Sets the number of evaluation episodes. Evaluation always runs on
    /// the canonical `eval::EVAL_LANES` batched width (shared with the
    /// sweep report), independent of the training lane count.
    pub fn eval_episodes(mut self, episodes: usize) -> Self {
        self.eval_episodes = episodes;
        self
    }

    /// Trains, evaluates, extracts and classifies.
    ///
    /// # Errors
    ///
    /// Returns an error if the environment configuration is invalid.
    pub fn run(self) -> Result<ExplorationReport, String> {
        let env = CacheGuessingGame::new(self.config.clone())?;
        let mut ppo = self.ppo;
        if let Some(lanes) = self.lanes {
            ppo.num_lanes = lanes;
        }
        if let Some(shards) = self.shards {
            ppo.grad_shards = shards;
        }
        let mut trainer = Trainer::new(env, self.backbone, ppo, self.seed);
        let result = trainer.train_until(self.return_threshold, self.max_steps);
        // Evaluate with sampling (matters on stochastic caches) on the
        // canonical EVAL_LANES width — the same sampling plan the sweep
        // report uses, so both front ends report identical statistics for
        // identical policies — then extract the canonical sequence by
        // greedy replay.
        let (env, net, rng) = trainer.parts_mut();
        let stats =
            eval::evaluate_batched(&*env, net, self.eval_episodes, eval::EVAL_LANES, false, rng)
                .stats;
        let seq = eval::extract_sequence(env, net, rng);
        let actions: Vec<Action> = seq
            .actions
            .iter()
            .map(|&i| env.action_space().decode(i))
            .collect();
        let notation = actions
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(" -> ");
        let category = classify_sequence(&actions, env.config());
        Ok(ExplorationReport {
            sequence: actions,
            sequence_notation: notation,
            category,
            accuracy: stats.accuracy(),
            detection_rate: stats.detection_rate(),
            eval_episodes: stats.episodes,
            training_steps: result.total_steps,
            epochs_to_converge: result.converged_at_epochs,
            episode_length: result.final_avg_length,
            converged: result.converged_at_steps.is_some(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explorer_builder_round_trips() {
        let e = Explorer::new(EnvConfig::flush_reload_fa4())
            .seed(3)
            .max_steps(1000)
            .return_threshold(0.5)
            .lanes(6)
            .eval_episodes(10);
        assert_eq!(e.seed, 3);
        assert_eq!(e.max_steps, 1000);
        assert_eq!(e.eval_episodes, 10);
        assert_eq!(e.lanes, Some(6));
    }

    #[test]
    fn lanes_survive_a_later_ppo_override() {
        // .lanes() must win regardless of builder-call order.
        let e = Explorer::new(EnvConfig::flush_reload_fa4())
            .lanes(4)
            .ppo(PpoConfig::small_env());
        assert_eq!(e.lanes, Some(4));
        assert_eq!(e.ppo.num_lanes, 1, "merged only at run()");
    }

    #[test]
    fn multi_lane_exploration_completes() {
        // The vectorized engine must run the full pipeline end to end.
        let report = Explorer::new(EnvConfig::flush_reload_fa4().with_window(8))
            .lanes(4)
            .max_steps(2048)
            .ppo(PpoConfig {
                horizon: 512,
                ..PpoConfig::small_env()
            })
            .run()
            .unwrap();
        assert!(!report.sequence.is_empty());
        assert!(report.training_steps >= 2048);
    }

    #[test]
    fn invalid_config_is_reported() {
        let mut cfg = EnvConfig::flush_reload_fa4();
        cfg.window_size = 1;
        assert!(Explorer::new(cfg).run().is_err());
    }

    #[test]
    fn tiny_budget_run_completes_without_convergence() {
        // A minimal budget exercises the full pipeline (train → evaluate →
        // extract → classify) without waiting for convergence.
        let report = Explorer::new(EnvConfig::flush_reload_fa4().with_window(8))
            .max_steps(2048)
            .ppo(PpoConfig {
                horizon: 512,
                ..PpoConfig::small_env()
            })
            .run()
            .unwrap();
        assert!(!report.sequence.is_empty());
        assert!(report.training_steps >= 2048);
        assert!(!report.sequence_notation.is_empty());
    }
}
