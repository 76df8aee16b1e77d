//! Shared helpers for the table/figure harness binaries, plus the
//! [`sweep`] pipeline (train every scenario → checkpoint → Table IV
//! reproduction report).
//!
//! Every binary regenerates one table or figure of the paper. Budgets:
//! set `AUTOCAT_BUDGET=full` for the paper-scale runs; the default
//! `quick` mode uses reduced training budgets and fewer repeat runs so a
//! full sweep finishes on a laptop.

pub mod census;
pub mod sweep;

/// The shared training-override flags, re-exported from
/// [`autocat_scenario::run`] so existing `autocat_bench::cli` paths resolve.
pub mod cli {
    pub use autocat_scenario::run::TrainOverrides;
}

use autocat::gym::{EnvConfig, Environment};
use autocat::nn::models::PolicyValueNet;
use autocat::nn::{Categorical, Matrix};
use autocat_scenario::Scenario;
use rand::rngs::StdRng;

/// Run budget selected via the `AUTOCAT_BUDGET` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Reduced budgets (default): 1 training run per row, capped steps.
    Quick,
    /// Paper-scale budgets: 3 runs per row, generous step caps.
    Full,
}

impl Budget {
    /// Reads the budget from the environment.
    pub fn from_env() -> Self {
        match std::env::var("AUTOCAT_BUDGET").as_deref() {
            Ok("full") => Budget::Full,
            _ => Budget::Quick,
        }
    }

    /// Training runs per table row (the paper averages over 3).
    pub fn runs(self) -> u64 {
        match self {
            Budget::Quick => 1,
            Budget::Full => 3,
        }
    }

    /// Environment-step cap per training run.
    pub fn max_steps(self) -> u64 {
        match self {
            Budget::Quick => 400_000,
            Budget::Full => 1_500_000,
        }
    }

    /// Parallel rollout lanes for the training harnesses: 1 lane in quick
    /// mode (bit-for-bit the historical scalar path) and 4 lanes for
    /// paper-scale runs.
    pub fn lanes(self) -> usize {
        match self {
            Budget::Quick => 1,
            Budget::Full => 4,
        }
    }
}

/// The scenario a training-based table bin runs: the default recipe
/// (`TrainSpec::default`: a 64×64 MLP on `PpoConfig::small_env`) with the
/// bin's own environment, seed, convergence threshold and evaluation
/// episodes, and the budget's step cap and rollout lanes.
pub fn standard_scenario(
    name: impl Into<String>,
    env: EnvConfig,
    seed: u64,
    return_threshold: f32,
    eval_episodes: usize,
    budget: Budget,
) -> Scenario {
    let mut scenario = Scenario::new(name, "", env);
    scenario.train.seed = seed;
    scenario.train.return_threshold = return_threshold;
    scenario.train.eval_episodes = eval_episodes;
    scenario.train.max_steps = budget.max_steps();
    scenario.train.ppo.num_lanes = budget.lanes();
    scenario
}

/// Plays one episode with actions sampled from `net`, one-row forward per
/// step, drawing from `rng` only: reset, then forward, sample and step
/// until done. The multi-guess bins read the finished episode's statistics
/// and event log from `env` afterwards.
pub fn play_sampled_episode(
    env: &mut impl Environment,
    net: &mut dyn PolicyValueNet,
    rng: &mut StdRng,
) {
    let mut obs = env.reset(rng);
    loop {
        let (logits, _) = net.forward(&Matrix::from_row(&obs));
        let a = Categorical::from_logits(logits.row(0)).sample(rng);
        let r = env.step(a, rng);
        if r.done {
            break;
        }
        obs = r.obs;
    }
}

/// Prints a table header with a separator line.
pub fn print_header(title: &str, columns: &str) {
    println!("\n=== {title} ===");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len().min(100)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_budget_is_default() {
        std::env::remove_var("AUTOCAT_BUDGET");
        assert_eq!(Budget::from_env(), Budget::Quick);
        assert_eq!(Budget::Quick.runs(), 1);
        assert!(Budget::Full.max_steps() > Budget::Quick.max_steps());
    }

    #[test]
    fn standard_scenario_takes_the_bin_settings_and_the_budget() {
        let scenario = standard_scenario(
            "t",
            EnvConfig::flush_reload_fa4(),
            7,
            0.6,
            100,
            Budget::Full,
        );
        let train = &scenario.train;
        assert_eq!(
            (train.seed, train.return_threshold, train.eval_episodes),
            (7, 0.6, 100)
        );
        assert_eq!(train.max_steps, Budget::Full.max_steps());
        assert_eq!(train.ppo.num_lanes, Budget::Full.lanes());
        assert_eq!(
            train.backbone,
            autocat::ppo::Backbone::Mlp {
                hidden: vec![64, 64]
            }
        );
        let small_env = autocat::ppo::PpoConfig {
            num_lanes: Budget::Full.lanes(),
            ..autocat::ppo::PpoConfig::small_env()
        };
        assert_eq!(train.ppo, small_env);
    }

    #[test]
    fn lane_defaults_keep_quick_mode_scalar() {
        assert_eq!(
            Budget::Quick.lanes(),
            1,
            "quick runs stay bit-for-bit scalar"
        );
        assert_eq!(
            Budget::Full.lanes(),
            4,
            "full runs use the vectorized engine"
        );
    }
}
