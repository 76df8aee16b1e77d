//! Case study 1 (paper Sec. V-C): attacks against LRU, PLRU and RRIP
//! replacement state, via the scenario registry.
//!
//! Run with: `cargo run --release --example replacement_policies`

use autocat::cache::PolicyKind;

fn main() {
    for policy in [PolicyKind::Lru, PolicyKind::Plru, PolicyKind::Rrip] {
        println!(
            "\n--- scenario: replacement-{} ---",
            policy.name().to_lowercase()
        );
        let scenario = autocat_scenario::replacement(policy);
        let row = scenario.run().expect("valid scenario");
        println!("sequence : {}", row.sequence);
        println!(
            "category : {}   accuracy: {:.3}",
            row.category,
            row.accuracy()
        );
        if row.converged {
            let e = row.steps as f64 / scenario.train.ppo.steps_per_epoch as f64;
            println!("epochs   : {e:.1} (paper: LRU 26.0, PLRU 15.7, RRIP 70.7)");
        } else {
            println!("epochs   : did not converge in budget");
        }
    }
}
