//! Simulated blackbox "real hardware" backend (Table III substitution).
//!
//! The paper drives real Intel processors through CacheQuery: the agent
//! issues accesses to a single cache set and reads back noisy timings,
//! without knowing associativity or the (often undocumented) replacement
//! policy. We substitute a simulated processor: a hidden cache-set model
//! per CPU profile plus a timing-noise model, exposed through the same
//! hit/miss interface. The RL agent treats it as a blackbox exactly as it
//! would the real machine (see DESIGN.md, substitution 1).

use autocat_cache::{Cache, CacheBackend, CacheConfig, CacheEvent, CacheStats, Domain, PolicyKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Timing-measurement noise.
///
/// Real measurements misclassify hit/miss occasionally (interrupts, TLB
/// effects, frequency transitions); we model that as an independent flip of
/// the observed outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    /// Probability that an observed hit/miss outcome is flipped.
    pub flip_prob: f64,
}

impl NoiseModel {
    /// Noise-free measurements.
    pub fn none() -> Self {
        Self { flip_prob: 0.0 }
    }

    /// Typical well-calibrated measurement noise.
    pub fn typical() -> Self {
        Self { flip_prob: 0.002 }
    }
}

/// Profiles of the processors/cache levels in the paper's Table III.
///
/// `N.O.D.` (not officially documented) levels are modelled with an NRU
/// policy the agent cannot see; L1 levels use tree-PLRU as documented.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HardwareProfile {
    /// Core i7-6700 (SkyLake) L1: 8-way PLRU.
    SkylakeL1,
    /// Core i7-6700 (SkyLake) L2: 4 ways, undocumented policy.
    SkylakeL2,
    /// Core i7-6700 (SkyLake) L3 (CAT-partitioned): 4 ways, undocumented.
    SkylakeL3,
    /// Core i7-7700K (KabyLake) L3 (CAT): 4 ways, undocumented.
    KabylakeL3W4,
    /// Core i7-7700K (KabyLake) L3 (CAT): 8 ways, undocumented.
    KabylakeL3W8,
    /// Core i7-9700 (CoffeeLake) L1: 8-way PLRU.
    CoffeelakeL1,
    /// Core i7-9700 (CoffeeLake) L2: 4 ways, undocumented.
    CoffeelakeL2,
}

impl HardwareProfile {
    /// All Table III rows in paper order.
    pub fn table3_rows() -> [HardwareProfile; 7] {
        [
            HardwareProfile::SkylakeL1,
            HardwareProfile::SkylakeL2,
            HardwareProfile::SkylakeL3,
            HardwareProfile::KabylakeL3W4,
            HardwareProfile::KabylakeL3W8,
            HardwareProfile::CoffeelakeL1,
            HardwareProfile::CoffeelakeL2,
        ]
    }

    /// CPU model string as in Table III.
    pub fn cpu(&self) -> &'static str {
        match self {
            HardwareProfile::SkylakeL1
            | HardwareProfile::SkylakeL2
            | HardwareProfile::SkylakeL3 => "Core i7-6700 (SkyLake)",
            HardwareProfile::KabylakeL3W4 | HardwareProfile::KabylakeL3W8 => {
                "Core i7-7700K (KabyLake)"
            }
            HardwareProfile::CoffeelakeL1 | HardwareProfile::CoffeelakeL2 => {
                "Core i7-9700 (CoffeeLake)"
            }
        }
    }

    /// Cache level string.
    pub fn level(&self) -> &'static str {
        match self {
            HardwareProfile::SkylakeL1 | HardwareProfile::CoffeelakeL1 => "L1",
            HardwareProfile::SkylakeL2 | HardwareProfile::CoffeelakeL2 => "L2",
            _ => "L3",
        }
    }

    /// Associativity of the targeted set.
    pub fn ways(&self) -> usize {
        match self {
            HardwareProfile::SkylakeL1
            | HardwareProfile::KabylakeL3W8
            | HardwareProfile::CoffeelakeL1 => 8,
            _ => 4,
        }
    }

    /// Documented policy name (as the paper's table shows it).
    pub fn policy_label(&self) -> &'static str {
        match self {
            HardwareProfile::SkylakeL1 | HardwareProfile::CoffeelakeL1 => "PLRU",
            _ => "N.O.D.",
        }
    }

    /// The *hidden* policy backing the simulation (not part of the
    /// blackbox interface; used only to build the model).
    pub fn hidden_policy(&self) -> PolicyKind {
        match self {
            HardwareProfile::SkylakeL1 | HardwareProfile::CoffeelakeL1 => PolicyKind::Plru,
            _ => PolicyKind::Nru,
        }
    }

    /// Attacker address range `(start, end)` used in Table III (addresses
    /// map to a single set; the range is about 2x the ways).
    pub fn attacker_range(&self) -> (u64, u64) {
        match self.ways() {
            8 => (0, 15),
            _ => (0, 8),
        }
    }

    /// Measurement noise for this machine.
    pub fn noise(&self) -> NoiseModel {
        match self {
            // L1 timing differences are large and clean; outer levels are
            // noisier.
            HardwareProfile::SkylakeL1 | HardwareProfile::CoffeelakeL1 => {
                NoiseModel { flip_prob: 0.001 }
            }
            _ => NoiseModel { flip_prob: 0.003 },
        }
    }
}

/// A blackbox single-set processor model with measurement noise.
#[derive(Clone, Debug)]
pub struct SimulatedProcessor {
    cache: Cache,
    noise: NoiseModel,
    rng: StdRng,
    accesses: u64,
}

impl SimulatedProcessor {
    /// Builds the simulated processor for a profile.
    pub fn new(profile: HardwareProfile, seed: u64) -> Self {
        let config =
            CacheConfig::fully_associative(profile.ways()).with_policy(profile.hidden_policy());
        Self {
            cache: Cache::new(config),
            noise: profile.noise(),
            rng: StdRng::seed_from_u64(seed),
            accesses: 0,
        }
    }

    /// Builds a custom blackbox processor (for tests and ablations).
    pub fn custom(config: CacheConfig, noise: NoiseModel, seed: u64) -> Self {
        Self {
            cache: Cache::new(config),
            noise,
            rng: StdRng::seed_from_u64(seed),
            accesses: 0,
        }
    }

    /// Performs a timed access; returns the *observed* (noisy) hit outcome
    /// and the true outcome.
    pub fn access_timed(&mut self, addr: u64, domain: Domain) -> (bool, bool) {
        self.accesses += 1;
        let true_hit = self.cache.access(addr, domain).hit;
        let observed = if self.rng.gen_bool(self.noise.flip_prob) {
            !true_hit
        } else {
            true_hit
        };
        (observed, true_hit)
    }

    /// Total accesses performed (for harness statistics).
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Clears the set (a new CacheQuery run starts cold).
    pub fn reset(&mut self) {
        self.cache.reset();
    }

    /// The underlying cache model — exposed for *evaluation only* (the RL
    /// agent never sees it; tests use it to validate the blackbox).
    pub fn inspect_cache(&self) -> &Cache {
        &self.cache
    }
}

impl CacheBackend for SimulatedProcessor {
    /// `observed_hit` is the noisy timing outcome, `true_hit` the hidden
    /// model's ground truth — the pair diverges at the configured flip
    /// rate.
    fn access(&mut self, addr: u64, domain: Domain) -> (bool, bool) {
        self.access_timed(addr, domain)
    }

    fn flush(&mut self, _addr: u64, _domain: Domain) {
        // CacheQuery exposes no flush on the targeted set; configs with
        // hardware backends set `flush_enable = false`.
    }

    fn reset(&mut self) {
        SimulatedProcessor::reset(self);
    }

    /// The hidden model's event stream: the *attacker* treats the
    /// processor as a blackbox, but a defender's on-chip counters exist
    /// even on real hardware, so monitors may consume these events.
    fn drain_events(&mut self) -> Vec<CacheEvent> {
        self.cache.drain_events()
    }

    fn stats(&self) -> CacheStats {
        *self.cache.stats()
    }

    /// Measurement noise makes the observed outcomes stochastic, so
    /// environments reseed between episodes.
    fn is_stochastic(&self) -> bool {
        true
    }

    /// Starts a fresh measurement run: new noise stream, cold set, and —
    /// when the hidden model uses random replacement — a fresh policy
    /// stream (derived from `seed`, offset so it never aliases the noise
    /// stream), keeping the backend's full state a function of the
    /// episode RNG stream like the non-blackbox backends.
    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.cache
            .reseed_policy(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
        self.cache.reset();
        self.accesses = 0;
    }

    fn box_clone(&self) -> Box<dyn CacheBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_report_paper_geometry() {
        assert_eq!(HardwareProfile::SkylakeL1.ways(), 8);
        assert_eq!(HardwareProfile::SkylakeL1.policy_label(), "PLRU");
        assert_eq!(HardwareProfile::SkylakeL2.ways(), 4);
        assert_eq!(HardwareProfile::SkylakeL2.policy_label(), "N.O.D.");
        assert_eq!(HardwareProfile::KabylakeL3W8.attacker_range(), (0, 15));
        assert_eq!(HardwareProfile::table3_rows().len(), 7);
    }

    /// After `reseed`, a random-replacement blackbox's behavior must
    /// depend only on the new seed, not on prior episodes' draws — the
    /// same checkpoint-resume property the non-blackbox backends have.
    #[test]
    fn reseed_covers_the_hidden_random_policy() {
        use autocat_cache::PolicyKind;
        let make = || {
            SimulatedProcessor::custom(
                CacheConfig::fully_associative(4).with_policy(PolicyKind::Random),
                NoiseModel::none(),
                1,
            )
        };
        let drive = |p: &mut SimulatedProcessor, n: u64| -> Vec<(bool, bool)> {
            (0..n)
                .map(|i| CacheBackend::access(p, (i * 5) % 11, Domain::Attacker))
                .collect()
        };
        let (mut a, mut b) = (make(), make());
        drive(&mut a, 50); // burn a different number of policy draws
        drive(&mut b, 13);
        CacheBackend::reseed(&mut a, 77);
        CacheBackend::reseed(&mut b, 77);
        assert_eq!(drive(&mut a, 60), drive(&mut b, 60));
    }

    #[test]
    fn noiseless_processor_matches_cache_model() {
        let mut p =
            SimulatedProcessor::custom(CacheConfig::fully_associative(4), NoiseModel::none(), 1);
        let (obs, truth) = p.access_timed(0, Domain::Attacker);
        assert!(!obs && !truth);
        let (obs, truth) = p.access_timed(0, Domain::Attacker);
        assert!(obs && truth);
    }

    #[test]
    fn noise_flips_at_configured_rate() {
        let mut p = SimulatedProcessor::custom(
            CacheConfig::fully_associative(1),
            NoiseModel { flip_prob: 0.25 },
            7,
        );
        p.access_timed(0, Domain::Attacker);
        let n = 10_000;
        let mut flips = 0;
        for _ in 0..n {
            let (obs, truth) = p.access_timed(0, Domain::Attacker);
            assert!(truth, "address 0 stays resident in a 1-way cache");
            if obs != truth {
                flips += 1;
            }
        }
        let rate = flips as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "flip rate {rate}");
    }

    #[test]
    fn reset_clears_the_set() {
        let mut p = SimulatedProcessor::new(HardwareProfile::SkylakeL2, 3);
        p.access_timed(0, Domain::Attacker);
        p.reset();
        let (_, truth) = p.access_timed(0, Domain::Attacker);
        assert!(!truth);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimulatedProcessor::new(HardwareProfile::SkylakeL1, 5);
        let mut b = SimulatedProcessor::new(HardwareProfile::SkylakeL1, 5);
        for addr in [0u64, 3, 7, 0, 9, 3] {
            assert_eq!(
                a.access_timed(addr, Domain::Attacker),
                b.access_timed(addr, Domain::Attacker)
            );
        }
    }
}
