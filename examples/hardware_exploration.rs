//! Attacks on (simulated) real hardware — the Table III experiment.
//!
//! The blackbox `SimulatedProcessor` stands in for CacheQuery-driven Intel
//! machines: hidden replacement policy, measurement noise, one cache set.
//! The scenario registry carries one scenario per Table III profile.
//!
//! Run with: `cargo run --release --example hardware_exploration`

use autocat::gym::HardwareProfile;

fn main() {
    let profile = HardwareProfile::SkylakeL2;
    let mut scenario = autocat_scenario::hardware(profile);
    println!("Exploring scenario {} as a blackbox...", scenario.name);
    println!("  {}", scenario.summary);
    scenario.train.seed = 4;
    let row = scenario.run().expect("valid scenario");
    println!("sequence : {}", row.sequence);
    println!("category : {}", row.category);
    println!(
        "accuracy : {:.3} (noise keeps it slightly below 1.0, as in Table III)",
        row.accuracy()
    );
}
