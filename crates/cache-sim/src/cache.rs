//! The single-level cache model.

use crate::config::CacheConfig;
use crate::event::{CacheEvent, Domain};
use crate::mapping::ResolvedMapping;
use crate::policy::SetPolicy;
use crate::prefetch::PrefetchState;

/// Result of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit in the cache.
    pub hit: bool,
    /// Set index the address mapped to.
    pub set: usize,
    /// `(address, owner)` of a line evicted by this access, if any.
    pub evicted: Option<(u64, Domain)>,
    /// Latency of the access in cycles (from [`CacheConfig`]).
    pub latency: u32,
}

/// Aggregate counters, including per-domain miss counts used by the
/// µarch-statistics detector (Sec. V-D).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total demand hits.
    pub hits: u64,
    /// Total demand misses.
    pub misses: u64,
    /// Demand misses issued by the victim program.
    pub victim_misses: u64,
    /// Demand misses issued by the attack program.
    pub attacker_misses: u64,
    /// Lines evicted (all causes).
    pub evictions: u64,
    /// Prefetch fills issued.
    pub prefetches: u64,
    /// Flushes that removed a present line.
    pub flushes: u64,
}

impl CacheStats {
    /// Adds `other`'s counters into `self`, so multi-lane / multi-level /
    /// multi-scenario runs can aggregate statistics without field-by-field
    /// code in callers — the two-level backend merges its L1s and L2 this
    /// way, whether the run came from a TOML scenario file, a JSON one, or
    /// a checkpointed sweep. Merging a `CacheStats::default()` is the
    /// identity:
    ///
    /// ```
    /// use autocat_cache::CacheStats;
    ///
    /// let mut total = CacheStats { hits: 3, misses: 1, ..CacheStats::default() };
    /// total.merge(&CacheStats { hits: 2, evictions: 5, ..CacheStats::default() });
    /// total.merge(&CacheStats::default()); // identity
    /// assert_eq!((total.hits, total.misses, total.evictions), (5, 1, 5));
    /// ```
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.victim_misses += other.victim_misses;
        self.attacker_misses += other.attacker_misses;
        self.evictions += other.evictions;
        self.prefetches += other.prefetches;
        self.flushes += other.flushes;
    }
}

#[derive(Clone, Debug)]
struct CacheSetState {
    tags: Vec<Option<u64>>,
    owner: Vec<Domain>,
    locked: Vec<bool>,
    policy: SetPolicy,
}

impl CacheSetState {
    fn new(config: &CacheConfig, set_index: usize) -> Self {
        Self {
            tags: vec![None; config.num_ways],
            owner: vec![Domain::Attacker; config.num_ways],
            locked: vec![false; config.num_ways],
            policy: SetPolicy::new(
                config.policy,
                config.num_ways,
                // Distinct stream per set so random replacement is not
                // correlated across sets.
                config.policy_seed.wrapping_add(set_index as u64),
            ),
        }
    }

    fn find(&self, addr: u64) -> Option<usize> {
        self.tags.iter().position(|&t| t == Some(addr))
    }

    fn invalid_unlocked_way(&self) -> Option<usize> {
        (0..self.tags.len()).find(|&w| self.tags[w].is_none() && !self.locked[w])
    }
}

/// A single-level set-associative cache with replacement policy, optional
/// prefetcher, PL-cache locking and an event log.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    mapping: ResolvedMapping,
    sets: Vec<CacheSetState>,
    prefetcher: PrefetchState,
    /// Address-space wrap for prefetches (see [`Cache::set_prefetch_wrap`]).
    prefetch_wrap: Option<u64>,
    events: Vec<CacheEvent>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache from a configuration.
    pub fn new(config: CacheConfig) -> Self {
        let mapping = ResolvedMapping::resolve(&config.mapping);
        let sets = (0..config.num_sets)
            .map(|s| CacheSetState::new(&config, s))
            .collect();
        let prefetcher = PrefetchState::new(config.prefetcher);
        Self {
            config,
            mapping,
            sets,
            prefetcher,
            prefetch_wrap: None,
            events: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Bounds the prefetcher's target address space: prefetched addresses
    /// wrap modulo `wrap` (the paper's traces wrap within the combined
    /// attacker/victim address range).
    pub fn set_prefetch_wrap(&mut self, wrap: Option<u64>) {
        self.prefetch_wrap = wrap;
    }

    /// Set index for an address under the configured mapping.
    pub fn set_index(&self, addr: u64) -> usize {
        self.mapping.set_index(addr, self.config.num_sets)
    }

    /// Performs a demand access by `domain`, updating replacement state,
    /// filling on a miss and running the prefetcher.
    pub fn access(&mut self, addr: u64, domain: Domain) -> AccessResult {
        let result = self.demand_access(addr, domain);
        if let Some(pf_addr) = self.prefetcher.observe(addr, self.prefetch_wrap) {
            self.prefetch_fill(pf_addr, domain);
        }
        result
    }

    fn demand_access(&mut self, addr: u64, domain: Domain) -> AccessResult {
        let set_idx = self.set_index(addr);
        let hit = self.sets[set_idx].find(addr).is_some();
        let mut evicted = None;
        if hit {
            let way = self.sets[set_idx].find(addr).expect("hit implies present");
            self.sets[set_idx].policy.on_hit(way);
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            match domain {
                Domain::Victim => self.stats.victim_misses += 1,
                Domain::Attacker => self.stats.attacker_misses += 1,
                Domain::Prefetcher => {}
            }
            evicted = self.fill(set_idx, addr, domain, domain);
        }
        self.events.push(CacheEvent::Access {
            domain,
            addr,
            set: set_idx,
            hit,
        });
        AccessResult {
            hit,
            set: set_idx,
            evicted,
            latency: if hit {
                self.config.hit_latency
            } else {
                self.config.miss_latency
            },
        }
    }

    /// Fills `addr` into its set on behalf of `owner`, attributing any
    /// eviction to `evictor`. Returns the evicted `(addr, owner)` if any.
    fn fill(
        &mut self,
        set_idx: usize,
        addr: u64,
        owner: Domain,
        evictor: Domain,
    ) -> Option<(u64, Domain)> {
        let way = match self.sets[set_idx].invalid_unlocked_way() {
            Some(w) => w,
            None => {
                let locked = self.sets[set_idx].locked.clone();
                self.sets[set_idx].policy.victim(&locked)
            }
        };
        let mut evicted = None;
        if let Some(old) = self.sets[set_idx].tags[way] {
            let old_owner = self.sets[set_idx].owner[way];
            self.stats.evictions += 1;
            self.events.push(CacheEvent::Eviction {
                victim_domain: old_owner,
                evictor_domain: evictor,
                evicted_addr: old,
                incoming_addr: addr,
                set: set_idx,
            });
            evicted = Some((old, old_owner));
        }
        self.sets[set_idx].tags[way] = Some(addr);
        self.sets[set_idx].owner[way] = owner;
        self.sets[set_idx].policy.on_fill(way);
        evicted
    }

    fn prefetch_fill(&mut self, addr: u64, on_behalf_of: Domain) {
        let set_idx = self.set_index(addr);
        if self.sets[set_idx].find(addr).is_some() {
            return; // already present: prefetch is a no-op
        }
        if self.sets[set_idx].invalid_unlocked_way().is_none()
            && self.sets[set_idx].locked.iter().all(|&l| l)
        {
            return; // fully locked set: drop the prefetch
        }
        self.stats.prefetches += 1;
        self.fill(set_idx, addr, on_behalf_of, Domain::Prefetcher);
    }

    /// Checks whether `addr` is present without changing any state.
    pub fn probe(&self, addr: u64) -> bool {
        let set_idx = self.set_index(addr);
        self.sets[set_idx].find(addr).is_some()
    }

    /// Flushes `addr` (like `clflush`). Returns whether a line was removed.
    pub fn flush(&mut self, addr: u64, domain: Domain) -> bool {
        let set_idx = self.set_index(addr);
        let present = if let Some(way) = self.sets[set_idx].find(addr) {
            self.sets[set_idx].tags[way] = None;
            self.sets[set_idx].locked[way] = false;
            self.sets[set_idx].policy.on_invalidate(way);
            self.stats.flushes += 1;
            true
        } else {
            false
        };
        self.events.push(CacheEvent::Flush {
            domain,
            addr,
            present,
        });
        present
    }

    /// Invalidates `addr` without logging a flush event (used by the
    /// hierarchy for back-invalidation). Returns whether a line was removed.
    pub fn invalidate_silent(&mut self, addr: u64) -> bool {
        let set_idx = self.set_index(addr);
        if let Some(way) = self.sets[set_idx].find(addr) {
            self.sets[set_idx].tags[way] = None;
            self.sets[set_idx].locked[way] = false;
            self.sets[set_idx].policy.on_invalidate(way);
            true
        } else {
            false
        }
    }

    /// PL cache: fills `addr` (if absent) and locks it so it can never be
    /// evicted. Returns `false` if the set had no unlocked way to fill into.
    pub fn lock_line(&mut self, addr: u64, owner: Domain) -> bool {
        let set_idx = self.set_index(addr);
        if self.sets[set_idx].find(addr).is_none() {
            if self.sets[set_idx].invalid_unlocked_way().is_none()
                && self.sets[set_idx].locked.iter().all(|&l| l)
            {
                return false;
            }
            self.fill(set_idx, addr, owner, owner);
        }
        let way = self.sets[set_idx].find(addr).expect("just filled");
        self.sets[set_idx].locked[way] = true;
        true
    }

    /// PL cache: unlocks `addr` if present and locked. Returns whether a
    /// lock was released.
    pub fn unlock_line(&mut self, addr: u64) -> bool {
        let set_idx = self.set_index(addr);
        if let Some(way) = self.sets[set_idx].find(addr) {
            let was = self.sets[set_idx].locked[way];
            self.sets[set_idx].locked[way] = false;
            was
        } else {
            false
        }
    }

    /// Returns whether `addr` is present and locked.
    pub fn is_locked(&self, addr: u64) -> bool {
        let set_idx = self.set_index(addr);
        self.sets[set_idx]
            .find(addr)
            .map(|w| self.sets[set_idx].locked[w])
            .unwrap_or(false)
    }

    /// Contents of a set as `(address, owner)` per way (None = invalid).
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn set_contents(&self, set: usize) -> Vec<Option<(u64, Domain)>> {
        assert!(set < self.config.num_sets, "set {set} out of range");
        let s = &self.sets[set];
        (0..s.tags.len())
            .map(|w| s.tags[w].map(|t| (t, s.owner[w])))
            .collect()
    }

    /// LRU ages of a set's ways (0 = MRU), when the policy tracks true LRU.
    pub fn lru_ages(&self, set: usize) -> Option<Vec<usize>> {
        self.sets.get(set)?.policy.lru_ages()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The event log accumulated so far.
    pub fn events(&self) -> &[CacheEvent] {
        &self.events
    }

    /// Drains and returns the event log.
    pub fn drain_events(&mut self) -> Vec<CacheEvent> {
        std::mem::take(&mut self.events)
    }

    /// Reseeds every set's replacement-policy RNG (random replacement
    /// only; deterministic policies ignore it), deriving a distinct
    /// per-set stream the same way construction derives one from
    /// `policy_seed`. Exposed through
    /// [`CacheBackend::reseed`](crate::CacheBackend::reseed) so episode
    /// resets make the cache's full state a function of the episode RNG
    /// stream.
    pub fn reseed_policy(&mut self, seed: u64) {
        for (s, set) in self.sets.iter_mut().enumerate() {
            set.policy.reseed(seed.wrapping_add(s as u64));
        }
    }

    /// Clears contents, statistics, events and prefetcher state, keeping
    /// the configuration (and the random-policy RNG stream).
    pub fn reset(&mut self) {
        for (s, set) in self.sets.iter_mut().enumerate() {
            let fresh = CacheSetState::new(&self.config, s);
            // Preserve the random policy's RNG position across resets
            // (environments reseed it explicitly via `reseed_policy`
            // before resetting); deterministic policies are stateless
            // after reset anyway.
            let policy = match (&set.policy, fresh.policy) {
                (SetPolicy::Random(_), SetPolicy::Random(_)) => set.policy.clone(),
                (_, f) => f,
            };
            set.tags = vec![None; self.config.num_ways];
            set.owner = vec![Domain::Attacker; self.config.num_ways];
            set.locked = vec![false; self.config.num_ways];
            set.policy = policy;
        }
        self.prefetcher.reset();
        self.events.clear();
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicyKind, PrefetcherKind};
    use crate::mapping::AddressMapping;

    #[test]
    fn stats_merge_sums_counters_and_preserves_default_identity() {
        let mut a = CacheStats {
            hits: 3,
            misses: 2,
            victim_misses: 1,
            attacker_misses: 1,
            evictions: 4,
            prefetches: 5,
            flushes: 6,
        };
        let b = CacheStats {
            hits: 10,
            misses: 20,
            victim_misses: 7,
            attacker_misses: 13,
            evictions: 1,
            prefetches: 0,
            flushes: 2,
        };
        let before = a;
        // Default is the merge identity.
        a.merge(&CacheStats::default());
        assert_eq!(a, before);
        a.merge(&b);
        assert_eq!(
            a,
            CacheStats {
                hits: 13,
                misses: 22,
                victim_misses: 8,
                attacker_misses: 14,
                evictions: 5,
                prefetches: 5,
                flushes: 8,
            }
        );
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(CacheConfig::fully_associative(2));
        assert!(!c.access(1, Domain::Attacker).hit);
        assert!(c.access(1, Domain::Attacker).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = Cache::new(CacheConfig::direct_mapped(4));
        c.access(0, Domain::Victim);
        let r = c.access(4, Domain::Attacker); // same set (4 % 4 == 0)
        assert_eq!(r.evicted, Some((0, Domain::Victim)));
        assert!(!c.probe(0));
        assert!(c.probe(4));
    }

    #[test]
    fn lru_eviction_order_in_fa_cache() {
        let mut c = Cache::new(CacheConfig::fully_associative(4).with_policy(PolicyKind::Lru));
        for a in 0..4 {
            c.access(a, Domain::Attacker);
        }
        c.access(0, Domain::Attacker); // 0 becomes MRU; LRU is 1
        let r = c.access(9, Domain::Attacker);
        assert_eq!(r.evicted, Some((1, Domain::Attacker)));
    }

    #[test]
    fn flush_removes_line_and_counts() {
        let mut c = Cache::new(CacheConfig::fully_associative(2));
        c.access(5, Domain::Attacker);
        assert!(c.flush(5, Domain::Attacker));
        assert!(!c.probe(5));
        assert!(!c.flush(5, Domain::Attacker));
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn locked_lines_survive_conflict_pressure() {
        let mut c = Cache::new(CacheConfig::fully_associative(2).with_policy(PolicyKind::Lru));
        assert!(c.lock_line(0, Domain::Victim));
        for a in 10..20 {
            c.access(a, Domain::Attacker);
        }
        assert!(c.probe(0), "locked line must never be evicted");
        assert!(c.is_locked(0));
    }

    #[test]
    fn locked_line_hit_still_updates_replacement_state() {
        // The PL-cache attack (Sec. V-D) relies on the victim's hit on a
        // locked line changing the LRU state.
        let mut c = Cache::new(CacheConfig::fully_associative(3).with_policy(PolicyKind::Lru));
        c.lock_line(0, Domain::Victim);
        c.access(1, Domain::Attacker);
        c.access(2, Domain::Attacker);
        // Ages: 0 oldest among unlocked? ways hold [0L, 1, 2]; victim hit:
        c.access(0, Domain::Victim);
        // Now LRU among unlocked is 1.
        let r = c.access(3, Domain::Attacker);
        assert_eq!(r.evicted, Some((1, Domain::Attacker)));
    }

    #[test]
    fn unlock_allows_eviction_again() {
        let mut c = Cache::new(CacheConfig::fully_associative(1));
        c.lock_line(0, Domain::Victim);
        assert!(c.unlock_line(0));
        let r = c.access(1, Domain::Attacker);
        assert_eq!(r.evicted, Some((0, Domain::Victim)));
    }

    #[test]
    fn lock_fails_when_set_fully_locked() {
        let mut c = Cache::new(CacheConfig::fully_associative(2));
        assert!(c.lock_line(0, Domain::Victim));
        assert!(c.lock_line(1, Domain::Victim));
        assert!(!c.lock_line(2, Domain::Victim));
    }

    #[test]
    fn next_line_prefetcher_brings_in_neighbor() {
        let cfg = CacheConfig::direct_mapped(4).with_prefetcher(PrefetcherKind::NextLine);
        let mut c = Cache::new(cfg);
        c.access(1, Domain::Attacker);
        assert!(c.probe(2), "next-line prefetch of 2 expected");
        assert_eq!(c.stats().prefetches, 1);
    }

    #[test]
    fn prefetch_wrap_follows_address_space() {
        let cfg = CacheConfig::direct_mapped(4).with_prefetcher(PrefetcherKind::NextLine);
        let mut c = Cache::new(cfg);
        c.set_prefetch_wrap(Some(8));
        c.access(7, Domain::Attacker);
        assert!(c.probe(0), "prefetch of 7+1 wraps to 0");
    }

    #[test]
    fn eviction_event_records_domains() {
        let mut c = Cache::new(CacheConfig::direct_mapped(2));
        c.access(0, Domain::Victim);
        c.access(2, Domain::Attacker); // evicts victim's 0
        let conflicts: Vec<_> = c
            .events()
            .iter()
            .filter_map(|e| e.as_conflict_miss())
            .collect();
        assert_eq!(conflicts, vec![(Domain::Victim, Domain::Attacker)]);
    }

    #[test]
    fn victim_miss_counter_tracks_domain() {
        let mut c = Cache::new(CacheConfig::direct_mapped(2));
        c.access(0, Domain::Victim);
        c.access(1, Domain::Attacker);
        c.access(2, Domain::Victim);
        assert_eq!(c.stats().victim_misses, 2);
        assert_eq!(c.stats().attacker_misses, 1);
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = Cache::new(CacheConfig::fully_associative(2));
        c.access(0, Domain::Attacker);
        c.reset();
        assert!(!c.probe(0));
        assert_eq!(c.stats().misses, 0);
        assert!(c.events().is_empty());
    }

    #[test]
    fn random_mapping_still_resolves_all_addresses() {
        let cfg = CacheConfig::new(4, 2).with_mapping(AddressMapping::RandomPermutation {
            seed: 5,
            address_space: 16,
        });
        let mut c = Cache::new(cfg);
        for a in 0..16 {
            c.access(a, Domain::Attacker);
            assert!(c.probe(a));
        }
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = Cache::new(CacheConfig::fully_associative(2).with_policy(PolicyKind::Lru));
        c.access(0, Domain::Attacker);
        c.access(1, Domain::Attacker);
        // Probing 0 must not refresh it.
        assert!(c.probe(0));
        let r = c.access(2, Domain::Attacker);
        assert_eq!(r.evicted, Some((0, Domain::Attacker)));
    }

    #[test]
    fn latency_reflects_hit_miss() {
        let mut c = Cache::new(CacheConfig::fully_associative(2).with_latencies(4, 40));
        assert_eq!(c.access(0, Domain::Attacker).latency, 40);
        assert_eq!(c.access(0, Domain::Attacker).latency, 4);
    }
}
