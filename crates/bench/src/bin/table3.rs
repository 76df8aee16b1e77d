//! Table III: attack sequences found on (simulated) real hardware.
//!
//! Substitution: blackbox `SimulatedProcessor` profiles stand in for the
//! CacheQuery-driven Intel machines (DESIGN.md, substitution 1).

use autocat::cache::CacheConfig;
use autocat::gym::{CacheSpec, EnvConfig, HardwareProfile};
use autocat_bench::{print_header, standard_scenario, Budget};

fn main() {
    let budget = Budget::from_env();
    let rows: Vec<HardwareProfile> = match budget {
        Budget::Full => HardwareProfile::table3_rows().to_vec(),
        Budget::Quick => {
            let args: Vec<String> = std::env::args().skip(1).collect();
            if args.iter().any(|a| a == "--all") {
                HardwareProfile::table3_rows().to_vec()
            } else {
                vec![HardwareProfile::SkylakeL2, HardwareProfile::KabylakeL3W4]
            }
        }
    };
    print_header(
        "Table III: attacks found on real hardware (simulated blackbox processors)",
        "CPU                      | Lvl | Ways | Pol.   | Attack addr | Accuracy | Category | Sequence",
    );
    for (i, profile) in rows.iter().enumerate() {
        let (s, e) = profile.attacker_range();
        let mut cfg = EnvConfig::new(
            CacheConfig::fully_associative(profile.ways()),
            (s, e),
            (0, 0),
        );
        cfg.cache = CacheSpec::Hardware(*profile);
        cfg.victim_no_access_enable = true;
        cfg.window_size = (3 * profile.ways() + 6).min(40);
        // The paper uses step_reward = -0.005 for hardware runs.
        cfg.rewards.step = -0.005;
        let row = standard_scenario(profile.cpu(), cfg, 100 + i as u64, 0.8, 200, budget)
            .run()
            .expect("valid hardware config");
        println!(
            "{:<24} | {:<3} | {:>4} | {:<6} | 0-{:<9} | {:>7.3} | {:<8} | {}",
            profile.cpu(),
            profile.level(),
            profile.ways(),
            profile.policy_label(),
            e,
            row.accuracy(),
            row.category,
            row.sequence,
        );
    }
    println!("\n(paper: accuracies 0.993-1.0, all rows classified LRU/LRU*-category attacks)");
}
