//! Cache events consumed by the timing-channel detectors.

/// The security domain issuing a memory operation.
///
/// The paper's detectors distinguish the victim program from the attack
/// program (CC-Hunter's `A→V` / `V→A` conflict misses, Cyclone's
/// cross-domain cyclic interference).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// The attack program.
    Attacker,
    /// The victim program.
    Victim,
    /// Hardware prefetcher (attributed to neither program).
    Prefetcher,
}

impl Domain {
    /// Short label used in event-train plots.
    pub fn label(self) -> &'static str {
        match self {
            Domain::Attacker => "A",
            Domain::Victim => "V",
            Domain::Prefetcher => "P",
        }
    }
}

/// An observable cache event.
///
/// The simulator appends these to a log that detector implementations
/// consume; this mirrors how CC-Hunter taps conflict misses and how Cyclone
/// taps per-line cross-domain accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEvent {
    /// A demand access completed.
    Access {
        /// Issuing domain.
        domain: Domain,
        /// Line address accessed.
        addr: u64,
        /// Set index the address mapped to.
        set: usize,
        /// Whether the access hit.
        hit: bool,
    },
    /// A line was evicted to make room for a fill.
    Eviction {
        /// Domain that owned the evicted line.
        victim_domain: Domain,
        /// Domain whose fill caused the eviction.
        evictor_domain: Domain,
        /// Address of the evicted line.
        evicted_addr: u64,
        /// Address of the line filled in its place.
        incoming_addr: u64,
        /// Set index where the eviction happened.
        set: usize,
    },
    /// A line was flushed (e.g. `clflush`).
    Flush {
        /// Domain issuing the flush.
        domain: Domain,
        /// Address flushed.
        addr: u64,
        /// Whether the line was present.
        present: bool,
    },
}

impl CacheEvent {
    /// Returns `Some((victim_domain, evictor_domain))` if this event is a
    /// cross-domain conflict miss between the attacker and victim programs —
    /// the event CC-Hunter's autocorrelation detector tracks.
    pub fn as_conflict_miss(&self) -> Option<(Domain, Domain)> {
        match *self {
            CacheEvent::Eviction {
                victim_domain,
                evictor_domain,
                ..
            } if victim_domain != evictor_domain
                && victim_domain != Domain::Prefetcher
                && evictor_domain != Domain::Prefetcher =>
            {
                Some((victim_domain, evictor_domain))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_miss_detects_cross_domain_eviction() {
        let ev = CacheEvent::Eviction {
            victim_domain: Domain::Victim,
            evictor_domain: Domain::Attacker,
            evicted_addr: 3,
            incoming_addr: 7,
            set: 0,
        };
        assert_eq!(
            ev.as_conflict_miss(),
            Some((Domain::Victim, Domain::Attacker))
        );
    }

    #[test]
    fn same_domain_eviction_is_not_conflict() {
        let ev = CacheEvent::Eviction {
            victim_domain: Domain::Attacker,
            evictor_domain: Domain::Attacker,
            evicted_addr: 3,
            incoming_addr: 7,
            set: 0,
        };
        assert_eq!(ev.as_conflict_miss(), None);
    }

    #[test]
    fn prefetcher_evictions_are_not_conflicts() {
        let ev = CacheEvent::Eviction {
            victim_domain: Domain::Victim,
            evictor_domain: Domain::Prefetcher,
            evicted_addr: 1,
            incoming_addr: 2,
            set: 0,
        };
        assert_eq!(ev.as_conflict_miss(), None);
    }

    #[test]
    fn access_is_never_a_conflict() {
        let ev = CacheEvent::Access {
            domain: Domain::Victim,
            addr: 0,
            set: 0,
            hit: false,
        };
        assert_eq!(ev.as_conflict_miss(), None);
    }
}
