//! Hand-rolled PPO for the AutoCAT reproduction (paper Sec. IV-C).
//!
//! The paper trains its agent with proximal policy optimization on an MLP
//! or Transformer backbone. No mature RL crate exists offline, so this
//! crate implements the full loop from scratch on top of `autocat-nn`:
//!
//! * [`rollout`] — trajectory collection and generalized advantage
//!   estimation (GAE-λ),
//! * [`trainer`] — the clipped-surrogate PPO update with entropy bonus,
//!   value loss, advantage normalization and global gradient clipping;
//!   with `PpoConfig::grad_shards > 1` each minibatch is split into
//!   shards that run as rayon tasks against the one network, each into
//!   its own tape, and the gradients reduced in fixed shard order, so the
//!   update is bit-identical for every `RAYON_NUM_THREADS` setting,
//! * [`eval`] — policy evaluation: the serial loop and the lane-batched
//!   [`eval::evaluate_batched`] engine (lane groups as pool tasks, one
//!   batched forward per step over a group's live lanes, bit-identical to
//!   the serial path at one lane), whose
//!   per-episode action records are the attack sequences a report
//!   classifies,
//! * [`checkpoint`] — trainer persistence: weights, Adam moments and every
//!   RNG stream, with a **bit-exact resume guarantee** (a loaded trainer
//!   continues identically to the one that saved, see the
//!   [module docs](checkpoint)). The `sweep` harness in `autocat-bench`
//!   builds its train-once/eval-everywhere pipeline on this.
//!
//! Determinism is load-bearing throughout: a `(scenario, seed)` pair fixes
//! the trajectory stream, the evaluated attacks and the checkpoint bytes,
//! which is what makes the paper's Table IV reproducible from artifacts.
//!
//! # Example: train, checkpoint, resume
//!
//! ```no_run
//! use autocat_gym::{EnvConfig, env::CacheGuessingGame};
//! use autocat_ppo::{Backbone, PpoConfig, Trainer};
//!
//! let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
//! let mut trainer = Trainer::new(env, Backbone::default_mlp(), PpoConfig::default(), 0);
//! let result = trainer.train_until(0.8, 200_000);
//! println!("converged: {:?}", result.converged_at_steps);
//! trainer.save_checkpoint("fr.ckpt.json").unwrap();
//!
//! // Later (or elsewhere): rebuild the environment, load, keep training.
//! let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
//! let mut resumed = Trainer::load_checkpoint("fr.ckpt.json", env).unwrap();
//! resumed.train_until(0.9, 400_000);
//! ```

pub mod checkpoint;
pub mod eval;
pub mod rollout;
pub mod sharded;
pub mod trainer;

pub use eval::{EpisodeRecord, EvalReport, EvalStats};
pub use rollout::{gae, RolloutBatch};
pub use trainer::{Backbone, Divergence, PpoConfig, TrainResult, Trainer, UpdateStats};
