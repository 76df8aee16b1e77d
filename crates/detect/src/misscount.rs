//! µarch-statistics detection based on victim cache misses (paper Sec. V-D).
//!
//! Most cache-timing attacks force the victim program to miss; hardware
//! performance counters can monitor the victim's hit rate and flag an attack
//! when misses exceed a threshold. The paper's RL experiment uses the
//! finest-grained version: "an attack is detected when the victim program's
//! access triggers a cache miss", which corresponds to `threshold = 1`.

use autocat_cache::{CacheEvent, Domain};

/// Detector counting victim-program demand misses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissCountDetector {
    /// Number of victim misses at or above which an attack is signalled.
    pub threshold: u64,
    victim_misses: u64,
}

impl MissCountDetector {
    /// Creates a detector flagging at `threshold` victim misses.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: u64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self {
            threshold,
            victim_misses: 0,
        }
    }

    /// The paper's configuration: any victim miss is an attack.
    pub fn strict() -> Self {
        Self::new(1)
    }

    /// Feeds one cache event.
    pub fn observe(&mut self, event: &CacheEvent) {
        if let CacheEvent::Access {
            domain: Domain::Victim,
            hit: false,
            ..
        } = event
        {
            self.victim_misses += 1;
        }
    }

    /// Feeds a batch of cache events.
    pub fn observe_all<'a>(&mut self, events: impl IntoIterator<Item = &'a CacheEvent>) {
        for ev in events {
            self.observe(ev);
        }
    }

    /// Victim misses seen so far.
    pub fn victim_misses(&self) -> u64 {
        self.victim_misses
    }

    /// Whether the detector currently signals an attack.
    pub fn is_attack(&self) -> bool {
        self.victim_misses >= self.threshold
    }

    /// Clears the miss counter.
    pub fn reset(&mut self) {
        self.victim_misses = 0;
    }
}

impl Default for MissCountDetector {
    fn default() -> Self {
        Self::strict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn victim_miss() -> CacheEvent {
        CacheEvent::Access {
            domain: Domain::Victim,
            addr: 0,
            set: 0,
            hit: false,
        }
    }

    fn victim_hit() -> CacheEvent {
        CacheEvent::Access {
            domain: Domain::Victim,
            addr: 0,
            set: 0,
            hit: true,
        }
    }

    fn attacker_miss() -> CacheEvent {
        CacheEvent::Access {
            domain: Domain::Attacker,
            addr: 0,
            set: 0,
            hit: false,
        }
    }

    #[test]
    fn strict_flags_first_victim_miss() {
        let mut d = MissCountDetector::strict();
        assert!(!d.is_attack());
        d.observe(&victim_miss());
        assert!(d.is_attack());
    }

    #[test]
    fn hits_and_attacker_misses_do_not_count() {
        let mut d = MissCountDetector::strict();
        d.observe(&victim_hit());
        d.observe(&attacker_miss());
        assert!(!d.is_attack());
        assert_eq!(d.victim_misses(), 0);
    }

    #[test]
    fn threshold_requires_that_many_misses() {
        let mut d = MissCountDetector::new(3);
        d.observe_all(&[victim_miss(), victim_miss()]);
        assert!(!d.is_attack());
        d.observe(&victim_miss());
        assert!(d.is_attack());
    }

    #[test]
    fn reset_clears_state() {
        let mut d = MissCountDetector::strict();
        d.observe(&victim_miss());
        d.reset();
        assert!(!d.is_attack());
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        let _ = MissCountDetector::new(0);
    }
}
