//! Cyclone-style cyclic-interference features (paper Sec. V-D).
//!
//! Cyclone tracks, per cache line *frame*, which security domains interfere
//! and counts *cyclic* interference `a ⇝ b ⇝ a`: domain `a`'s line is
//! evicted by `b`, whose line is then evicted back by `a` re-claiming the
//! frame. In a prime+probe loop the victim's secret line and the attacker's
//! primed line ping-pong through the same frame every round, while benign
//! co-runners conflict in bursts without tight address ping-pong. The
//! per-interval cyclic counts form the SVM's feature vector.

use autocat_cache::{CacheEvent, Domain};
use std::collections::BTreeMap;

/// Extracts Cyclone features from a cache event log.
///
/// The trace is split into `num_intervals` equal time intervals (by access
/// index); the feature vector holds the cyclic-interference count of each
/// interval.
#[derive(Clone, Debug, PartialEq)]
pub struct CycloneFeatures {
    /// Number of intervals (feature dimension).
    pub num_intervals: usize,
    /// Maximum accesses between the two evictions of a ping-pong pair for
    /// it to count as cyclic (attacks reverse within one probe round;
    /// benign reversals straggle over full scan periods).
    pub proximity_window: usize,
}

impl CycloneFeatures {
    /// Creates an extractor with the given feature dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `num_intervals` is zero.
    pub fn new(num_intervals: usize) -> Self {
        assert!(num_intervals > 0, "need at least one interval");
        Self {
            num_intervals,
            proximity_window: 12,
        }
    }

    /// Overrides the proximity window.
    pub fn with_proximity_window(mut self, window: usize) -> Self {
        self.proximity_window = window;
        self
    }

    /// Counts cyclic interference events over the whole trace.
    pub fn total_cyclic(&self, events: &[CacheEvent]) -> usize {
        self.cyclic_marks(events).len()
    }

    /// Extracts the per-interval cyclic counts as a `num_intervals`-dim
    /// feature vector.
    pub fn extract(&self, events: &[CacheEvent]) -> Vec<f32> {
        let marks = self.cyclic_marks(events);
        let total_accesses = events
            .iter()
            .filter(|e| matches!(e, CacheEvent::Access { .. }))
            .count()
            .max(1);
        let mut features = vec![0.0f32; self.num_intervals];
        for access_idx in marks {
            let interval = (access_idx * self.num_intervals) / total_accesses;
            features[interval.min(self.num_intervals - 1)] += 1.0;
        }
        features
    }

    /// Positions (by access index) of cyclic-interference events: a
    /// cross-domain eviction whose `(evicted, incoming)` address pair is the
    /// reverse of the previous cross-domain eviction in the same set.
    fn cyclic_marks(&self, events: &[CacheEvent]) -> Vec<usize> {
        // Per set: the last cross-domain eviction (evicted, incoming,
        // evictor, access index). BTreeMap, not HashMap: this feeds SVM
        // feature vectors and through them detection verdicts in reports,
        // so lookups must never depend on hash order (lint rule D1).
        let mut last: BTreeMap<usize, (u64, u64, Domain, usize)> = BTreeMap::new();
        let mut marks = Vec::new();
        let mut access_idx = 0usize;
        for ev in events {
            match *ev {
                CacheEvent::Access { .. } => access_idx += 1,
                CacheEvent::Eviction {
                    victim_domain,
                    evictor_domain,
                    evicted_addr,
                    incoming_addr,
                    set,
                } => {
                    if victim_domain == evictor_domain
                        || victim_domain == Domain::Prefetcher
                        || evictor_domain == Domain::Prefetcher
                    {
                        continue;
                    }
                    if let Some(&(prev_evicted, prev_incoming, prev_evictor, prev_idx)) =
                        last.get(&set)
                    {
                        if prev_evictor != evictor_domain
                            && evicted_addr == prev_incoming
                            && incoming_addr == prev_evicted
                            && access_idx.saturating_sub(prev_idx) <= self.proximity_window
                        {
                            marks.push(access_idx.saturating_sub(1));
                        }
                    }
                    last.insert(
                        set,
                        (evicted_addr, incoming_addr, evictor_domain, access_idx),
                    );
                }
                CacheEvent::Flush { .. } => {}
            }
        }
        marks
    }
}

impl Default for CycloneFeatures {
    fn default() -> Self {
        Self::new(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(domain: Domain, addr: u64) -> CacheEvent {
        CacheEvent::Access {
            domain,
            addr,
            set: (addr % 4) as usize,
            hit: false,
        }
    }

    fn eviction(
        victim_domain: Domain,
        evictor_domain: Domain,
        evicted: u64,
        incoming: u64,
        set: usize,
    ) -> CacheEvent {
        CacheEvent::Eviction {
            victim_domain,
            evictor_domain,
            evicted_addr: evicted,
            incoming_addr: incoming,
            set,
        }
    }

    #[test]
    fn detects_ping_pong_pair() {
        // Victim's addr 1 evicts attacker's 5 in set 1, attacker's 5 evicts
        // 1 back: cyclic interference.
        let events = vec![
            access(Domain::Victim, 1),
            eviction(Domain::Attacker, Domain::Victim, 5, 1, 1),
            access(Domain::Attacker, 5),
            eviction(Domain::Victim, Domain::Attacker, 1, 5, 1),
        ];
        assert_eq!(CycloneFeatures::default().total_cyclic(&events), 1);
    }

    #[test]
    fn one_directional_evictions_are_not_cyclic() {
        // Attacker sweeping over the victim's data: A evicts V repeatedly
        // with fresh addresses (benign-sweep shape).
        let events = vec![
            eviction(Domain::Victim, Domain::Attacker, 0, 4, 0),
            eviction(Domain::Victim, Domain::Attacker, 4, 8, 0),
            eviction(Domain::Victim, Domain::Attacker, 8, 12, 0),
        ];
        assert_eq!(CycloneFeatures::default().total_cyclic(&events), 0);
    }

    #[test]
    fn alternating_domains_without_pair_reversal_not_cyclic() {
        // Domains alternate but the address pairs move on (streaming).
        let events = vec![
            eviction(Domain::Attacker, Domain::Victim, 4, 1, 1),
            eviction(Domain::Victim, Domain::Attacker, 2, 6, 1),
            eviction(Domain::Attacker, Domain::Victim, 7, 3, 1),
        ];
        assert_eq!(CycloneFeatures::default().total_cyclic(&events), 0);
    }

    #[test]
    fn same_domain_evictions_ignored() {
        let events = vec![
            eviction(Domain::Attacker, Domain::Attacker, 0, 4, 0),
            eviction(Domain::Attacker, Domain::Attacker, 4, 0, 0),
        ];
        assert_eq!(CycloneFeatures::default().total_cyclic(&events), 0);
    }

    #[test]
    fn cycles_tracked_per_set() {
        // Reversals land in different sets: no cycle.
        let events = vec![
            eviction(Domain::Attacker, Domain::Victim, 5, 1, 1),
            eviction(Domain::Victim, Domain::Attacker, 1, 5, 2),
        ];
        assert_eq!(CycloneFeatures::default().total_cyclic(&events), 0);
    }

    #[test]
    fn prime_probe_loop_generates_many_cycles() {
        // Each round: victim's line evicts the attacker's primed line; the
        // probe re-claims it.
        let mut events = Vec::new();
        for _ in 0..10 {
            events.push(access(Domain::Victim, 1));
            events.push(eviction(Domain::Attacker, Domain::Victim, 5, 1, 1));
            events.push(access(Domain::Attacker, 5));
            events.push(eviction(Domain::Victim, Domain::Attacker, 1, 5, 1));
        }
        let total = CycloneFeatures::default().total_cyclic(&events);
        assert!(total >= 19, "expected ~19 cycles, got {total}");
    }

    #[test]
    fn feature_vector_has_configured_dim_and_mass() {
        let mut events = Vec::new();
        for _ in 0..10 {
            events.push(access(Domain::Victim, 1));
            events.push(eviction(Domain::Attacker, Domain::Victim, 5, 1, 1));
            events.push(access(Domain::Attacker, 5));
            events.push(eviction(Domain::Victim, Domain::Attacker, 1, 5, 1));
        }
        let fx = CycloneFeatures::new(4);
        let features = fx.extract(&events);
        assert_eq!(features.len(), 4);
        let sum: f32 = features.iter().sum();
        assert_eq!(sum as usize, fx.total_cyclic(&events));
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let features = CycloneFeatures::default().extract(&[]);
        assert!(features.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn prefetcher_evictions_ignored() {
        let events = vec![
            eviction(Domain::Attacker, Domain::Victim, 5, 1, 1),
            eviction(Domain::Victim, Domain::Prefetcher, 1, 5, 1),
            eviction(Domain::Attacker, Domain::Victim, 5, 1, 1),
        ];
        assert_eq!(CycloneFeatures::default().total_cyclic(&events), 0);
    }
}
