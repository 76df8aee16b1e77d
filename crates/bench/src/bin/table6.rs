//! Table VI: random replacement policy — step-reward sweep.

use autocat::cache::PolicyKind;
use autocat::gym::EnvConfig;
use autocat_bench::{print_header, standard_scenario, Budget};

fn main() {
    let budget = Budget::from_env();
    print_header(
        "Table VI: random replacement (paper: -0.02 -> 0.98/16.25, -0.01 -> 0.98/18.85, -0.005 -> 0.94/19.02)",
        "Step reward | End accuracy | Episode length",
    );
    for (i, step_reward) in [-0.02f32, -0.01, -0.005].iter().enumerate() {
        let mut cfg = EnvConfig::replacement_study(PolicyKind::Random);
        cfg.rewards.step = *step_reward;
        cfg.window_size = 28;
        // The random policy caps achievable return below the
        // deterministic case; accept convergence earlier.
        let row = standard_scenario("random", cfg, 20 + i as u64, 0.6, 100, budget)
            .run()
            .expect("valid random-policy config");
        println!(
            "{:>11} | {:>12.2} | {:>14.2}",
            step_reward,
            row.accuracy(),
            row.avg_length
        );
    }
    println!("\n(expected shape: smaller |step reward| -> longer episodes, accuracy trade-off)");
}
