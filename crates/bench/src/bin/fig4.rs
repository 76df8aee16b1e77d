//! Fig. 4: the StealthyStreamline attack — the RL-found sequence under
//! miss-based detection, its construction, and the cache-state trace.

use autocat::attacks::stealthy::StealthyStreamline;
use autocat::cache::{Cache, CacheConfig, Domain, PolicyKind};
use autocat::gym::{EnvConfig, MonitorSpec};
use autocat_bench::{print_header, standard_scenario, Budget};

fn main() {
    let budget = Budget::from_env();
    print_header(
        "Fig. 4(b): sequence found by RL under miss-based detection",
        "",
    );
    let cfg =
        EnvConfig::replacement_study(PolicyKind::Lru).with_detection(MonitorSpec::strict_miss());
    let row = standard_scenario("fig4", cfg, 4, 0.85, 200, budget)
        .run()
        .expect("valid fig4 config");
    println!(
        "RL sequence: {}   accuracy {:.3}  category {}{}",
        row.sequence,
        row.accuracy(),
        row.category,
        if row.converged {
            ""
        } else {
            "  [not converged]"
        },
    );

    print_header(
        "Fig. 4(c): StealthyStreamline construction (4-way, 2-bit)",
        "",
    );
    let ss = StealthyStreamline::new(4, PolicyKind::Lru, 2);
    let it = ss.iteration();
    println!(
        "iteration: fill {:?} -> victim slot -> {:?}; measured next round: {:?}",
        it.pre_victim, it.post_victim, it.measured
    );
    println!(
        "accesses/iteration: {} ({} timed); distinguishable symbols: {}",
        ss.accesses_per_iteration(),
        ss.measured_per_iteration(),
        ss.distinguishable_symbols()
    );

    print_header("Fig. 4(d): cache state (LRU ages) per victim secret", "");
    for secret in 0..4u64 {
        let mut cache = Cache::new(CacheConfig::fully_associative(4).with_policy(PolicyKind::Lru));
        for &a in &it.pre_victim {
            cache.access(a, Domain::Attacker);
        }
        cache.access(secret, Domain::Victim);
        for &a in &it.post_victim {
            cache.access(a, Domain::Attacker);
        }
        let contents: Vec<String> = cache
            .set_contents(0)
            .iter()
            .map(|c| match c {
                Some((a, _)) => a.to_string(),
                None => "-".into(),
            })
            .collect();
        let ages = cache.lru_ages(0).unwrap();
        let sig: Vec<bool> = it.measured.iter().map(|&m| cache.probe(m)).collect();
        println!(
            "victim accessed {secret}: lines {:?} ages {:?} measured-present {:?}",
            contents, ages, sig
        );
    }
    println!("\n(each secret leaves a distinct measured pattern -> 2 bits per iteration)");
}
