//! Table V: RL training statistics per deterministic replacement policy.

use autocat::cache::PolicyKind;
use autocat::gym::EnvConfig;
use autocat_bench::{print_header, standard_scenario, Budget};

fn main() {
    let budget = Budget::from_env();
    print_header(
        "Table V: epochs to converge & episode length per policy (paper: LRU 26.0/7.0, PLRU 15.67/7.0, RRIP 70.67/12.7)",
        "Policy | Epochs to converge | Episode length | Example sequence",
    );
    for policy in [PolicyKind::Lru, PolicyKind::Plru, PolicyKind::Rrip] {
        let mut epochs_sum = 0.0;
        let mut len_sum = 0.0;
        let mut runs_converged = 0u64;
        let mut last_seq = String::new();
        for run in 0..budget.runs() {
            let cfg = EnvConfig::replacement_study(policy);
            let scenario = standard_scenario(policy.name(), cfg, 10 * run + 1, 0.85, 200, budget);
            let row = scenario.run().expect("valid replacement config");
            if row.converged {
                epochs_sum += row.steps as f64 / scenario.train.ppo.steps_per_epoch as f64;
                runs_converged += 1;
            }
            len_sum += row.avg_length as f64;
            last_seq = row.sequence;
        }
        let runs = budget.runs() as f64;
        println!(
            "{:<6} | {:>18} | {:>14.1} | {}",
            policy.name(),
            if runs_converged > 0 {
                format!("{:.2}", epochs_sum / runs_converged as f64)
            } else {
                "n/a".to_string()
            },
            len_sum / runs,
            last_seq,
        );
    }
    println!("\n(expected shape: RRIP needs more epochs and longer sequences than LRU/PLRU)");
}
