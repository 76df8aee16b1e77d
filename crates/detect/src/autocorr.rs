//! Autocorrelation-based detection (CC-Hunter, paper Sec. V-D).
//!
//! CC-Hunter encodes the two kinds of cross-domain conflict misses into a
//! binary event train — the victim evicting the attacker (`V→A`, encoded 0)
//! and the attacker evicting the victim (`A→V`, encoded 1) — and flags an
//! attack when the train's autocorrelation exceeds a threshold at any lag
//! `1 ≤ p ≤ P`.

use autocat_cache::{CacheEvent, Domain};

/// A binary train of cross-domain conflict-miss events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventTrain {
    events: Vec<u8>,
}

impl EventTrain {
    /// Creates an empty train.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a train from a cache event log, keeping only cross-domain
    /// conflict misses: `V→A` encodes 0, `A→V` encodes 1 (paper Fig. 3).
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a CacheEvent>) -> Self {
        let mut train = Self::new();
        for ev in events {
            train.observe(ev);
        }
        train
    }

    /// Feeds one cache event; conflict misses are appended to the train.
    pub fn observe(&mut self, event: &CacheEvent) {
        if let Some((victim_domain, evictor_domain)) = event.as_conflict_miss() {
            match (victim_domain, evictor_domain) {
                // Attacker's line evicted by the victim: V→A, encoded 0.
                (Domain::Attacker, Domain::Victim) => self.events.push(0),
                // Victim's line evicted by the attacker: A→V, encoded 1.
                (Domain::Victim, Domain::Attacker) => self.events.push(1),
                _ => {}
            }
        }
    }

    /// The raw binary train.
    pub fn as_slice(&self) -> &[u8] {
        &self.events
    }

    /// Number of recorded conflict events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the train is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Autocorrelation coefficient at lag `p`, using the paper's estimator:
    ///
    /// `C_p = n * Σ_{i=0}^{n-p} (X_i - X̄)(X_{i+p} - X̄)
    ///        / ((n-p) * Σ_{i=0}^{n} (X_i - X̄)²)`.
    ///
    /// Returns 0 when the train is constant or shorter than `p + 2`.
    pub fn autocorrelation(&self, p: usize) -> f64 {
        let n = self.events.len();
        if n < p + 2 {
            return 0.0;
        }
        let mean = self.events.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let denom: f64 = self.events.iter().map(|&x| (x as f64 - mean).powi(2)).sum();
        if denom == 0.0 {
            return 0.0;
        }
        let num: f64 = (0..n - p)
            .map(|i| (self.events[i] as f64 - mean) * (self.events[i + p] as f64 - mean))
            .sum();
        (n as f64 * num) / ((n - p) as f64 * denom)
    }

    /// The full autocorrelogram for lags `0..=max_lag`.
    pub fn autocorrelogram(&self, max_lag: usize) -> Vec<f64> {
        (0..=max_lag).map(|p| self.autocorrelation(p)).collect()
    }

    /// Maximum autocorrelation over lags `1..=max_lag`.
    pub fn max_autocorrelation(&self, max_lag: usize) -> f64 {
        (1..=max_lag)
            .map(|p| self.autocorrelation(p))
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0)
    }
}

/// CC-Hunter-style detector: flags an attack when the event train's
/// autocorrelation exceeds `threshold` at any lag `1..=max_lag`.
#[derive(Clone, Debug)]
pub struct AutocorrDetector {
    /// Detection threshold on `C_p` (the paper uses 0.75).
    pub threshold: f64,
    /// Maximum lag `P` examined.
    pub max_lag: usize,
    train: EventTrain,
}

impl AutocorrDetector {
    /// Creates a detector with the paper's parameters (threshold 0.75,
    /// lags up to `max_lag`).
    pub fn new(threshold: f64, max_lag: usize) -> Self {
        Self {
            threshold,
            max_lag,
            train: EventTrain::new(),
        }
    }

    /// Feeds cache events.
    pub fn observe_all<'a>(&mut self, events: impl IntoIterator<Item = &'a CacheEvent>) {
        for ev in events {
            self.train.observe(ev);
        }
    }

    /// The accumulated event train.
    pub fn train(&self) -> &EventTrain {
        &self.train
    }

    /// Whether the accumulated train is classified as an attack.
    pub fn is_attack(&self) -> bool {
        self.train.max_autocorrelation(self.max_lag) > self.threshold
    }

    /// Maximum autocorrelation of the accumulated train.
    pub fn max_autocorrelation(&self) -> f64 {
        self.train.max_autocorrelation(self.max_lag)
    }

    /// Clears the accumulated train.
    pub fn reset(&mut self) {
        self.train = EventTrain::new();
    }
}

impl Default for AutocorrDetector {
    fn default() -> Self {
        Self::new(0.75, 30)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_from_bits(bits: &[u8]) -> EventTrain {
        EventTrain {
            events: bits.to_vec(),
        }
    }

    #[test]
    fn periodic_train_has_high_autocorrelation() {
        // A strictly alternating 0,1,0,1,... train: C_2 should be ~1.
        let bits: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
        let train = train_from_bits(&bits);
        assert!(
            train.autocorrelation(2) > 0.9,
            "C_2 = {}",
            train.autocorrelation(2)
        );
        assert!(train.autocorrelation(1) < -0.9);
        assert!(train.max_autocorrelation(10) > 0.9);
    }

    #[test]
    fn prime_probe_like_train_is_periodic() {
        // Prime+probe on a 4-line region: one V→A (0) then four A→V (1)s,
        // repeated — strong periodicity at lag 5.
        let mut bits = Vec::new();
        for _ in 0..16 {
            bits.push(0);
            bits.extend_from_slice(&[1, 1, 1, 1]);
        }
        let train = train_from_bits(&bits);
        assert!(
            train.autocorrelation(5) > 0.75,
            "C_5 = {}",
            train.autocorrelation(5)
        );
    }

    #[test]
    fn random_train_has_low_autocorrelation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let bits: Vec<u8> = (0..512).map(|_| rng.gen_range(0..=1) as u8).collect();
        let train = train_from_bits(&bits);
        assert!(
            train.max_autocorrelation(30) < 0.3,
            "max C = {}",
            train.max_autocorrelation(30)
        );
    }

    #[test]
    fn constant_train_is_not_flagged() {
        let train = train_from_bits(&[1; 100]);
        assert_eq!(train.max_autocorrelation(10), 0.0);
    }

    #[test]
    fn short_train_returns_zero() {
        let train = train_from_bits(&[0, 1]);
        assert_eq!(train.autocorrelation(5), 0.0);
    }

    #[test]
    fn detector_flags_periodic_not_random() {
        let mut bits = Vec::new();
        for _ in 0..20 {
            bits.push(0u8);
            bits.extend_from_slice(&[1, 1, 1]);
        }
        let mut det = AutocorrDetector {
            train: train_from_bits(&bits),
            ..Default::default()
        };
        assert!(det.is_attack());
        det.reset();
        assert!(!det.is_attack());
    }

    #[test]
    fn observe_encodes_directions() {
        use autocat_cache::{CacheEvent, Domain};
        let mut train = EventTrain::new();
        train.observe(&CacheEvent::Eviction {
            victim_domain: Domain::Victim,
            evictor_domain: Domain::Attacker,
            evicted_addr: 0,
            incoming_addr: 4,
            set: 0,
        });
        train.observe(&CacheEvent::Eviction {
            victim_domain: Domain::Attacker,
            evictor_domain: Domain::Victim,
            evicted_addr: 4,
            incoming_addr: 0,
            set: 0,
        });
        assert_eq!(train.as_slice(), &[1, 0]);
    }

    #[test]
    fn autocorrelogram_starts_at_one() {
        let bits: Vec<u8> = (0..32).map(|i| (i % 2) as u8).collect();
        let gram = train_from_bits(&bits).autocorrelogram(5);
        assert!((gram[0] - 1.0).abs() < 1e-9);
        assert_eq!(gram.len(), 6);
    }
}
