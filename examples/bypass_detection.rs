//! Case study 2 (paper Sec. V-D): finding an attack that bypasses
//! miss-count detection — the seed of StealthyStreamline.
//!
//! The `defense-misscount` scenario runs a strict miss-count `Monitor` in
//! the loop: any victim cache miss terminates the episode with a penalty,
//! so prime+probe stops working; the agent must exploit replacement state
//! instead (the victim's line stays cached and only its LRU age leaks).
//!
//! Run with: `cargo run --release --example bypass_detection`

use autocat::cache::PolicyKind;

fn main() {
    println!("Exploring a 4-way LRU cache WITH miss-based detection enabled...");
    let scenario = autocat_scenario::defense_misscount();
    println!("scenario : {} ({})", scenario.name, scenario.summary);
    let row = scenario.run().expect("valid scenario");
    println!("sequence : {}", row.sequence);
    println!(
        "category : {} (LRU-state attacks never make the victim miss)",
        row.category
    );
    println!("accuracy : {:.3}", row.accuracy());

    println!("\nThe generalized attack built from such sequences is StealthyStreamline:");
    use autocat::attacks::stealthy::StealthyStreamline;
    let ss = StealthyStreamline::new(8, PolicyKind::Lru, 2);
    println!(
        "  8-way, 2-bit: {} accesses/iteration, {} timed, {} distinguishable symbols, victim misses: {}",
        ss.accesses_per_iteration(),
        ss.measured_per_iteration(),
        ss.distinguishable_symbols(),
        ss.victim_misses_during(&[0, 1, 2, 3])
    );
}
