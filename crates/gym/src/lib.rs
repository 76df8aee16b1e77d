//! Cache guessing-game RL environments (paper Sec. III-B / IV).
//!
//! AutoCAT formulates a cache-timing attack as a guessing game: the RL agent
//! controls the attack program — memory accesses `aX`, optional flushes
//! `afX`, triggering the victim `av` — and ends an episode by guessing the
//! victim's secret address (`agY`, or `agE` for "victim made no access").
//! The environment owns the cache implementation, the secret, and the guess
//! evaluator, and returns rewards per Table II.
//!
//! * [`env::CacheGuessingGame`] — the single-secret episode environment used
//!   by Tables III–VII.
//! * [`multi::MultiGuessEnv`] — fixed-length episodes transmitting many
//!   secrets, with optional autocorrelation / SVM / miss-count detectors in
//!   the loop (Fig. 3, Tables VIII & IX).
//! * [`hardware::SimulatedProcessor`] — the blackbox "real hardware" backend
//!   substituting for CacheQuery on Intel machines (Table III); hidden
//!   replacement policy, timing noise, optional batched-measurement masking.
//! * [`vecenv::VecEnv`] — N independent lanes of any [`Environment`],
//!   stepped together so the policy can run one batched forward per step;
//!   a single lane is bit-for-bit compatible with the scalar loop.
//!
//! The environments are pluggable on both sides of the boundary: any
//! [`CacheBackend`] implementation can serve as the memory
//! ([`env::CacheGuessingGame::with_backend`]), and any
//! [`Monitor`] built from the [`MonitorSpec`] in
//! [`EnvConfig::detection`] runs in-loop as the episode guard.
//!
//! # Example
//!
//! ```
//! use autocat_gym::{EnvConfig, Environment, env::CacheGuessingGame};
//! use rand::SeedableRng;
//!
//! let config = EnvConfig::flush_reload_fa4(); // paper Table IV config 6
//! let mut env = CacheGuessingGame::new(config).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let _obs = env.reset(&mut rng);
//! let result = env.step(0, &mut rng); // take the first action
//! assert!(!result.obs.is_empty());
//! ```

pub mod action;
pub mod config;
pub mod env;
pub mod hardware;
pub mod multi;
pub mod obs;
pub mod vecenv;

pub use action::{Action, ActionSpace};
pub use autocat_cache::CacheBackend;
pub use autocat_detect::{Monitor, MonitorSpec, Verdict};
pub use config::{CacheSpec, EnvConfig, RewardConfig};
pub use env::{backend_from_spec, CacheGuessingGame};
pub use hardware::{HardwareProfile, NoiseModel, SimulatedProcessor};
pub use multi::{MultiGuessConfig, MultiGuessEnv};
pub use obs::ObsEncoder;
pub use vecenv::{lane_seed, FinishedEpisode, LaneGroup, LaneStep, VecEnv};

use rand::rngs::StdRng;

/// Outcome of one environment step.
#[derive(Clone, Debug, PartialEq)]
pub struct StepResult {
    /// Flattened observation (window of per-step tokens).
    pub obs: Vec<f32>,
    /// Reward for the step just taken.
    pub reward: f32,
    /// Whether the episode ended.
    pub done: bool,
    /// Auxiliary step information.
    pub info: StepInfo,
}

/// Auxiliary information attached to a step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepInfo {
    /// `Some(correct)` when this step was a guess.
    pub guessed: Option<bool>,
    /// Whether a detector terminated/penalized the episode on this step.
    pub detected: bool,
    /// Whether the episode ended due to the length limit.
    pub length_violation: bool,
}

/// The interface PPO uses to interact with environments.
///
/// All AutoCAT environments expose a discrete action space and a fixed-size
/// flattened observation (a window of per-step tokens; see [`obs`]).
pub trait Environment {
    /// Flattened observation dimension (`window * token_dim`).
    fn obs_dim(&self) -> usize;
    /// Number of discrete actions.
    fn num_actions(&self) -> usize;
    /// Features per history token (for sequence models).
    fn token_dim(&self) -> usize;
    /// History window length in tokens.
    fn window(&self) -> usize;
    /// Starts a new episode, returning the initial observation.
    fn reset(&mut self, rng: &mut StdRng) -> Vec<f32>;
    /// Applies the action with the given index.
    ///
    /// # Panics
    ///
    /// Implementations panic if `action` is out of range or the episode is
    /// already done.
    fn step(&mut self, action: usize, rng: &mut StdRng) -> StepResult;
}
