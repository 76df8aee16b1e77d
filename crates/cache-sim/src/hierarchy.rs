//! Two-level cache hierarchy: private L1s and a shared inclusive L2
//! (configs 16 and 17 of Table IV).

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::event::Domain;

/// Configuration of a [`TwoLevelCache`].
#[derive(Clone, Debug, PartialEq)]
pub struct TwoLevelConfig {
    /// Number of cores (each gets a private L1).
    pub num_cores: usize,
    /// Per-core private L1 configuration.
    pub l1: CacheConfig,
    /// Shared inclusive L2 configuration.
    pub l2: CacheConfig,
}

impl TwoLevelConfig {
    /// The paper's config 16: two cores with 4-set direct-mapped L1s and a
    /// shared inclusive 2-way 4-set L2.
    pub fn paper_config16() -> Self {
        Self {
            num_cores: 2,
            l1: CacheConfig::direct_mapped(4).with_latencies(4, 12),
            l2: CacheConfig::new(4, 2).with_latencies(12, 40),
        }
    }

    /// The paper's config 17: like config 16 but with a 2-way 8-set L2.
    pub fn paper_config17() -> Self {
        Self {
            num_cores: 2,
            l1: CacheConfig::direct_mapped(4).with_latencies(4, 12),
            l2: CacheConfig::new(8, 2).with_latencies(12, 40),
        }
    }
}

/// Result of an access through the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyResult {
    /// Hit in the core's private L1.
    pub l1_hit: bool,
    /// Hit in the shared L2 (only meaningful when `l1_hit` is false).
    pub l2_hit: bool,
    /// Total latency in cycles.
    pub latency: u32,
}

impl HierarchyResult {
    /// Whether the access hit anywhere in the hierarchy.
    pub fn hit(&self) -> bool {
        self.l1_hit || self.l2_hit
    }
}

/// A two-level hierarchy with private L1 caches and a shared *inclusive* L2:
/// evicting a line from L2 back-invalidates it from every L1, which is the
/// mechanism the cross-core prime+probe attacks in Table IV exploit.
#[derive(Clone, Debug)]
pub struct TwoLevelCache {
    config: TwoLevelConfig,
    l1s: Vec<Cache>,
    l2: Cache,
}

impl TwoLevelCache {
    /// Creates an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_cores` is zero.
    pub fn new(config: TwoLevelConfig) -> Self {
        assert!(config.num_cores > 0, "need at least one core");
        let l1s = (0..config.num_cores)
            .map(|_| Cache::new(config.l1.clone()))
            .collect();
        let l2 = Cache::new(config.l2.clone());
        Self { config, l1s, l2 }
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &TwoLevelConfig {
        &self.config
    }

    /// Performs an access from `core` by `domain`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, addr: u64, domain: Domain) -> HierarchyResult {
        assert!(core < self.config.num_cores, "core {core} out of range");
        let l1_result = self.l1s[core].access(addr, domain);
        if l1_result.hit {
            return HierarchyResult {
                l1_hit: true,
                l2_hit: false,
                latency: self.config.l1.hit_latency,
            };
        }
        let l2_result = self.l2.access(addr, domain);
        // Inclusive L2: a line evicted from L2 must leave all L1s too.
        if let Some((evicted_addr, _)) = l2_result.evicted {
            for l1 in &mut self.l1s {
                l1.invalidate_silent(evicted_addr);
            }
        }
        let latency = if l2_result.hit {
            self.config.l2.hit_latency
        } else {
            self.config.l2.miss_latency
        };
        HierarchyResult {
            l1_hit: false,
            l2_hit: l2_result.hit,
            latency,
        }
    }

    /// Flushes `addr` from the whole hierarchy (all L1s and the L2).
    pub fn flush(&mut self, addr: u64, domain: Domain) -> bool {
        let mut present = false;
        for l1 in &mut self.l1s {
            present |= l1.invalidate_silent(addr);
        }
        present |= self.l2.flush(addr, domain);
        present
    }

    /// Checks presence in the shared L2.
    pub fn probe_l2(&self, addr: u64) -> bool {
        self.l2.probe(addr)
    }

    /// Checks presence in `core`'s L1.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn probe_l1(&self, core: usize, addr: u64) -> bool {
        self.l1s[core].probe(addr)
    }

    /// Core `core`'s private L1 (for event/statistics inspection).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn l1(&self, core: usize) -> &Cache {
        assert!(core < self.config.num_cores, "core {core} out of range");
        &self.l1s[core]
    }

    /// The shared L2 (for event/statistics inspection).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Mutable access to the shared L2 (e.g. to drain events).
    pub fn l2_mut(&mut self) -> &mut Cache {
        &mut self.l2
    }

    /// Clears all levels.
    pub fn reset(&mut self) {
        for l1 in &mut self.l1s {
            l1.reset();
        }
        self.l2.reset();
    }

    /// Reseeds the replacement-policy RNGs of every level (random
    /// replacement only), deriving a distinct stream per cache. See
    /// [`Cache::reseed_policy`].
    pub fn reseed_policy(&mut self, seed: u64) {
        for (core, l1) in self.l1s.iter_mut().enumerate() {
            // Offset by a large odd stride so per-set streams (seed + set)
            // of different caches cannot collide for realistic set counts.
            l1.reseed_policy(seed.wrapping_add((core as u64 + 1).wrapping_mul(0x9E37_79B9)));
        }
        self.l2.reseed_policy(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> TwoLevelCache {
        TwoLevelCache::new(TwoLevelConfig::paper_config16())
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = hierarchy();
        let first = h.access(0, 5, Domain::Attacker);
        assert!(!first.hit());
        let second = h.access(0, 5, Domain::Attacker);
        assert!(second.l1_hit);
        assert_eq!(second.latency, 4);
    }

    #[test]
    fn cross_core_l2_hit() {
        let mut h = hierarchy();
        h.access(0, 5, Domain::Victim);
        // Other core misses its L1 but hits shared L2.
        let r = h.access(1, 5, Domain::Attacker);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
        assert_eq!(r.latency, 12);
    }

    #[test]
    fn inclusive_eviction_back_invalidates_l1() {
        let mut h = hierarchy();
        // L2 is 2-way 4-set: fill set 0 of L2 from core 1 with addr 0 and 4,
        // then force an eviction with addr 8 and check core-0's L1 copy dies.
        h.access(0, 0, Domain::Victim); // victim holds 0 in its L1 and L2
        h.access(1, 4, Domain::Attacker);
        h.access(1, 8, Domain::Attacker); // evicts 0 from L2 (LRU)
        assert!(!h.probe_l2(0));
        assert!(
            !h.probe_l1(0, 0),
            "inclusion must back-invalidate L1 copies"
        );
        // Victim's re-access now misses all the way.
        let r = h.access(0, 0, Domain::Victim);
        assert!(!r.hit());
    }

    #[test]
    fn flush_clears_all_levels() {
        let mut h = hierarchy();
        h.access(0, 3, Domain::Victim);
        assert!(h.flush(3, Domain::Attacker));
        assert!(!h.probe_l2(3));
        assert!(!h.probe_l1(0, 3));
    }

    #[test]
    fn private_l1_isolation() {
        let mut h = hierarchy();
        h.access(0, 2, Domain::Victim);
        assert!(h.probe_l1(0, 2));
        assert!(!h.probe_l1(1, 2), "other core's L1 must stay cold");
    }

    #[test]
    fn reset_empties_hierarchy() {
        let mut h = hierarchy();
        h.access(0, 1, Domain::Victim);
        h.reset();
        assert!(!h.probe_l2(1));
        assert!(!h.probe_l1(0, 1));
    }

    #[test]
    #[should_panic(expected = "core 5 out of range")]
    fn bad_core_panics() {
        let mut h = hierarchy();
        let _ = h.access(5, 0, Domain::Attacker);
    }
}
