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
//! This crate is the facade: it re-exports the substrate crates.
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`cache`] | cache simulator: policies, prefetchers, hierarchy, PL locking |
//! | [`detect`] | CC-Hunter autocorrelation, Cyclone SVM, miss-count detectors |
//! | [`gym`] | the guessing-game environments + simulated hardware backend |
//! | [`nn`] | matrices, manual-backprop layers, MLP/Transformer, Adam |
//! | [`ppo`] | the PPO trainer, evaluation, bit-exact checkpoints |
//! | [`attacks`] | textbook attacks, classifier, covert-channel model, search |
//!
//! The sibling `autocat-scenario` crate (which layers on top of this
//! facade) adds the declarative scenario registry, TOML/JSON scenario
//! files and the one train → evaluate → classify pipeline:
//! `Scenario::run` trains a scenario and reports its `SweepRow`.

pub use autocat_attacks as attacks;
pub use autocat_cache as cache;
pub use autocat_detect as detect;
pub use autocat_gym as gym;
pub use autocat_nn as nn;
pub use autocat_ppo as ppo;
