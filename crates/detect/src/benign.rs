//! Synthetic benign workload generator.
//!
//! The paper trains its Cyclone SVM on SPEC2017 memory traces as the benign
//! class. Those traces are not available offline, so this module generates
//! synthetic benign co-running programs with realistic locality (sequential
//! scans, strided loops, small hot working sets and Zipf-like randoms),
//! interleaved on a shared cache. What the SVM consumes is only the
//! cyclic-interference feature vector, and benign programs — which touch
//! shared lines rarely and without tight ping-pong patterns — produce the
//! same low-cyclic-count contrast to attacks that SPEC traces do (see
//! DESIGN.md, substitution 3).

use autocat_cache::{Cache, CacheConfig, CacheEvent, Domain};
use rand::Rng;

/// Access pattern of one benign program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BenignPattern {
    /// Sequential scan through a region.
    Sequential,
    /// Strided walk with the given stride.
    Strided(u64),
    /// Repeated loop over a small hot working set.
    HotLoop {
        /// Working-set size in lines.
        working_set: u64,
    },
    /// Zipf-like random access (low addresses are hot).
    ZipfRandom,
}

impl BenignPattern {
    /// Address at logical step `i` within a region of `region` lines.
    fn address(&self, i: u64, region: u64, rng: &mut impl Rng) -> u64 {
        match *self {
            BenignPattern::Sequential => i % region,
            BenignPattern::Strided(s) => (i * s.max(1)) % region,
            BenignPattern::HotLoop { working_set } => i % working_set.clamp(1, region),
            BenignPattern::ZipfRandom => {
                // Approximate Zipf: squash a uniform sample toward zero.
                let u: f64 = rng.gen_range(0.0f64..1.0);
                ((u * u) * region as f64) as u64 % region
            }
        }
    }
}

/// A pair of benign programs co-running on a shared cache.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenignWorkload {
    /// Pattern of the program mapped to the attacker domain slot.
    pub pattern_a: BenignPattern,
    /// Pattern of the program mapped to the victim domain slot.
    pub pattern_b: BenignPattern,
    /// Total number of accesses to generate.
    pub length: usize,
    /// Lines in each program's private region.
    pub region: u64,
    /// Probability an access goes to the small shared region (models shared
    /// libraries/data; benign sharing is sparse and unstructured).
    pub shared_prob: f64,
}

impl Default for BenignWorkload {
    fn default() -> Self {
        Self {
            pattern_a: BenignPattern::Sequential,
            pattern_b: BenignPattern::HotLoop { working_set: 10 },
            length: 256,
            region: 64,
            shared_prob: 0.02,
        }
    }
}

/// All pattern combinations used to build a diverse benign training set.
pub fn benign_pattern_suite() -> Vec<(BenignPattern, BenignPattern)> {
    let patterns = [
        BenignPattern::Sequential,
        BenignPattern::Strided(3),
        BenignPattern::HotLoop { working_set: 10 },
        BenignPattern::ZipfRandom,
    ];
    let mut combos = Vec::new();
    for &a in &patterns {
        for &b in &patterns {
            combos.push((a, b));
        }
    }
    combos
}

/// Runs the workload on a fresh cache of the given configuration and returns
/// the event log.
pub fn generate_trace(
    cache_config: &CacheConfig,
    workload: &BenignWorkload,
    rng: &mut impl Rng,
) -> Vec<CacheEvent> {
    let mut cache = Cache::new(cache_config.clone());
    let shared_base = 1_000_000u64; // distinct region for shared lines
    let mut step_a = 0u64;
    let mut step_b = 0u64;
    for _ in 0..workload.length {
        // Benign co-runners interleave burstily rather than strictly
        // alternating.
        let use_a = rng.gen_bool(0.5);
        let (domain, pattern, step, base) = if use_a {
            step_a += 1;
            (Domain::Attacker, workload.pattern_a, step_a, 0u64)
        } else {
            step_b += 1;
            (Domain::Victim, workload.pattern_b, step_b, workload.region)
        };
        // The second program's addresses are phase-shifted within its
        // region: real co-runners' hot lines do not systematically land in
        // the same cache sets.
        let phase = if use_a { 0 } else { workload.region / 3 };
        let addr = if rng.gen_bool(workload.shared_prob) {
            shared_base + rng.gen_range(0..8u64)
        } else {
            base + (pattern.address(step, workload.region, rng) + phase) % workload.region
        };
        cache.access(addr, domain);
    }
    cache.drain_events()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclone::CycloneFeatures;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(33)
    }

    #[test]
    fn trace_has_requested_length_of_accesses() {
        let cfg = CacheConfig::new(4, 2);
        let wl = BenignWorkload {
            length: 100,
            ..BenignWorkload::default()
        };
        let trace = generate_trace(&cfg, &wl, &mut rng());
        let accesses = trace
            .iter()
            .filter(|e| matches!(e, CacheEvent::Access { .. }))
            .count();
        assert_eq!(accesses, 100);
    }

    #[test]
    fn both_domains_appear() {
        let cfg = CacheConfig::new(4, 2);
        let trace = generate_trace(&cfg, &BenignWorkload::default(), &mut rng());
        let has = |d: Domain| {
            trace
                .iter()
                .any(|e| matches!(e, CacheEvent::Access { domain, .. } if *domain == d))
        };
        assert!(has(Domain::Attacker));
        assert!(has(Domain::Victim));
    }

    #[test]
    fn benign_traces_have_low_cyclic_interference() {
        // The separation Cyclone exploits: benign co-runners produce far
        // fewer a⇝b⇝a cycles per access than a prime+probe loop.
        // A textbook prime+probe produces ≥ 0.11 cycles per access; benign
        // co-runners must stay clearly below that, both per combination and
        // on average (a couple of thrash-prone combos are tolerated — the
        // paper's SVM is 98.8% accurate, not perfect).
        let cfg = CacheConfig::direct_mapped(4);
        let fx = CycloneFeatures::default();
        let mut total = 0usize;
        let suite = benign_pattern_suite();
        for &(a, b) in &suite {
            let wl = BenignWorkload {
                pattern_a: a,
                pattern_b: b,
                length: 400,
                ..BenignWorkload::default()
            };
            let trace = generate_trace(&cfg, &wl, &mut rng());
            let cycles = fx.total_cyclic(&trace);
            total += cycles;
            assert!(
                (cycles as f64) < 0.075 * 400.0,
                "patterns {a:?}/{b:?}: {cycles} cycles is not benign-like"
            );
        }
        let mean = total as f64 / suite.len() as f64;
        assert!(mean < 0.045 * 400.0, "mean cycles {mean} too attack-like");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = CacheConfig::new(4, 2);
        let wl = BenignWorkload::default();
        let t1 = generate_trace(&cfg, &wl, &mut rand::rngs::StdRng::seed_from_u64(1));
        let t2 = generate_trace(&cfg, &wl, &mut rand::rngs::StdRng::seed_from_u64(1));
        assert_eq!(t1, t2);
    }

    #[test]
    fn pattern_suite_covers_all_combinations() {
        assert_eq!(benign_pattern_suite().len(), 16);
    }

    #[test]
    fn patterns_stay_in_region() {
        let mut r = rng();
        for p in [
            BenignPattern::Sequential,
            BenignPattern::Strided(5),
            BenignPattern::HotLoop { working_set: 2 },
            BenignPattern::ZipfRandom,
        ] {
            for i in 0..64 {
                assert!(p.address(i, 16, &mut r) < 16);
            }
        }
    }
}
