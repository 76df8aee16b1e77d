//! Quickstart: let the RL agent discover a flush+reload attack on the
//! paper's Table IV config 6 (fully-associative 4-way LRU cache, shared
//! address 0, flush enabled) — resolved from the scenario registry.
//!
//! Run with: `cargo run --release --example quickstart`

fn main() {
    println!("AutoCAT quickstart: exploring scenario table4-6 (expected: flush+reload)");
    let mut scenario = autocat_scenario::table4(6).expect("registry row 6 exists");
    scenario.train.seed = 1;
    scenario.train.max_steps = 300_000;
    let row = scenario.run().expect("valid scenario");
    println!("attack sequence : {}", row.sequence);
    println!("category        : {} ({})", row.category, row.census);
    println!("guess accuracy  : {:.3}", row.accuracy());
    println!("training steps  : {}", row.steps);
    if row.converged {
        let epochs = row.steps as f64 / scenario.train.ppo.steps_per_epoch as f64;
        println!("converged after : {epochs:.1} paper-epochs (3000 steps each)");
    } else {
        println!("did not converge within the step budget — try more steps");
    }
}
