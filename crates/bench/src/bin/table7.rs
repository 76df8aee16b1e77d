//! Table VII: PLRU with and without the PL cache.

use autocat::gym::EnvConfig;
use autocat_bench::{print_header, standard_scenario, Budget};

fn main() {
    let budget = Budget::from_env();
    print_header(
        "Table VII: PL cache vs baseline (paper: PL 37.67 epochs/8.1 len, baseline 7.67/7.0)",
        "Cache     | Epochs to converge | Episode length | Sequence",
    );
    for (label, locked) in [("PL Cache", true), ("Baseline", false)] {
        let mut epochs_sum = 0.0;
        let mut len_sum = 0.0;
        let mut converged = 0u64;
        let mut seq = String::new();
        for run in 0..budget.runs() {
            let cfg = EnvConfig::pl_cache_study(locked);
            let scenario = standard_scenario(label, cfg, 30 + run, 0.85, 200, budget);
            let row = scenario.run().expect("valid PL config");
            if row.converged {
                epochs_sum += row.steps as f64 / scenario.train.ppo.steps_per_epoch as f64;
                converged += 1;
            }
            len_sum += row.avg_length as f64;
            seq = row.sequence;
        }
        println!(
            "{:<9} | {:>18} | {:>14.1} | {}",
            label,
            if converged > 0 {
                format!("{:.2}", epochs_sum / converged as f64)
            } else {
                "n/a".into()
            },
            len_sum / budget.runs() as f64,
            seq,
        );
    }
    println!("\n(expected shape: PL cache takes several times more epochs than the baseline)");
}
