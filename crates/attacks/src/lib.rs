//! Textbook cache-timing attacks, attack classification, the covert-channel
//! timing model and search baselines for the AutoCAT reproduction.
//!
//! * [`textbook`] — scripted prime+probe / flush+reload / evict+reload
//!   agents that play the guessing game the way the literature describes
//!   them (the paper's "textbook" baselines in Tables VIII & IX).
//! * [`lru`] — the LRU set-based and address-based attacks (HPCA 2020) used
//!   in Fig. 4 and as the covert-channel baseline.
//! * [`stealthy`] — the Streamline and StealthyStreamline sequences
//!   (Fig. 4), generalized to arbitrary associativity and 2-/3-bit symbols.
//! * [`classify`] — the heuristic attack-sequence classifier automating the
//!   paper's manual "attack analysis" step (Sec. IV-D).
//! * [`channel`] — the cycle-level covert-channel model regenerating
//!   Table X and Fig. 5 (bit rate vs error rate on simulated machines).
//! * [`search`] — the brute-force/RL search-cost comparison of Sec. VI-A.
//!
//! # Where this sits in the pipeline
//!
//! The RL loop (`autocat-ppo`) ends with a converged policy; this crate
//! turns that policy's behavior back into *security knowledge*. Evaluation
//! (`autocat_ppo::eval::evaluate_batched`) records every episode's action
//! sequence, and [`classify::classify_sequence`] names the attack family
//! the agent rediscovered in each — the census and majority label printed
//! in the paper's Table IV "attack" column by every report
//! (`autocat_scenario::run::SweepRow`: `Scenario::run`, the table bins,
//! `scenario-run`, the daemon and the `sweep` reproduction report). The scripted agents in
//! [`textbook`] close the loop from the other side: they replay the
//! literature's attacks against the same environments so RL-found
//! sequences can be benchmarked against their hand-written ancestors.
//!
//! # Example: name an attack sequence
//!
//! ```
//! use autocat_attacks::{classify_sequence, AttackCategory};
//! use autocat_gym::{Action, EnvConfig};
//!
//! // flush the probe line, trigger the victim, time a reload, guess:
//! // the flush+reload signature on Table IV config 3.
//! let config = EnvConfig::flush_reload_fa4();
//! let sequence = [
//!     Action::Flush(0),
//!     Action::TriggerVictim,
//!     Action::Access(0),
//!     Action::Guess(0),
//! ];
//! assert_eq!(
//!     classify_sequence(&sequence, &config),
//!     AttackCategory::FlushReload
//! );
//! ```

pub mod channel;
pub mod classify;
pub mod lru;
pub mod search;
pub mod stealthy;
pub mod textbook;

pub use channel::{ChannelKind, CovertChannelModel, MachineModel, OperatingPoint};
pub use classify::{classify_sequence, AttackCategory};
pub use textbook::{ScriptedAttacker, TextbookFlushReload, TextbookPrimeProbe};
