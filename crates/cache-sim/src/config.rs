//! Cache configuration (the `Cache configs` block of the paper's Table II).

use crate::mapping::AddressMapping;

/// Replacement policy selection (paper Sec. IV-A implements LRU, random,
/// PLRU and RRIP; NRU is added as an "undocumented" policy for the simulated
/// real-hardware backend).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// True least-recently-used with full age ordering.
    Lru,
    /// Tree-based pseudo-LRU.
    Plru,
    /// Static re-reference interval prediction (2-bit SRRIP).
    Rrip,
    /// Not-recently-used (one reference bit per line).
    Nru,
    /// Uniform random victim selection.
    Random,
}

impl PolicyKind {
    /// All deterministic policies (used by the Table V sweep).
    pub fn deterministic() -> [PolicyKind; 4] {
        [
            PolicyKind::Lru,
            PolicyKind::Plru,
            PolicyKind::Rrip,
            PolicyKind::Nru,
        ]
    }

    /// Human-readable name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Plru => "PLRU",
            PolicyKind::Rrip => "RRIP",
            PolicyKind::Nru => "NRU",
            PolicyKind::Random => "random",
        }
    }
}

/// Hardware prefetcher selection (configs 2, 13, 14 of Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PrefetcherKind {
    /// No prefetching.
    #[default]
    None,
    /// Next-line prefetcher: every demand access prefetches `addr + 1`.
    NextLine,
    /// Stream prefetcher: detects ascending streams and prefetches ahead.
    Stream,
}

/// Configuration of a single cache (one level).
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Number of sets (`num_blocks / num_ways`).
    pub num_sets: usize,
    /// Associativity.
    pub num_ways: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Prefetcher attached to this cache.
    pub prefetcher: PrefetcherKind,
    /// Address-to-set mapping.
    pub mapping: AddressMapping,
    /// Seed for the random replacement policy (ignored by deterministic
    /// policies).
    pub policy_seed: u64,
    /// Access latency in cycles on a hit (used by the covert-channel model).
    pub hit_latency: u32,
    /// Access latency in cycles on a miss.
    pub miss_latency: u32,
}

impl CacheConfig {
    /// Creates a config with LRU replacement, no prefetcher and a direct
    /// (modulo) mapping.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` or `num_ways` is zero.
    pub fn new(num_sets: usize, num_ways: usize) -> Self {
        assert!(num_sets > 0, "num_sets must be positive");
        assert!(num_ways > 0, "num_ways must be positive");
        Self {
            num_sets,
            num_ways,
            policy: PolicyKind::Lru,
            prefetcher: PrefetcherKind::None,
            mapping: AddressMapping::Direct,
            policy_seed: 0,
            hit_latency: 4,
            miss_latency: 40,
        }
    }

    /// A direct-mapped cache with `num_sets` sets (1 way each).
    pub fn direct_mapped(num_sets: usize) -> Self {
        Self::new(num_sets, 1)
    }

    /// A fully-associative cache with `num_ways` ways (1 set).
    pub fn fully_associative(num_ways: usize) -> Self {
        Self::new(1, num_ways)
    }

    /// Total number of cache blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_sets * self.num_ways
    }

    /// Sets the replacement policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the prefetcher.
    pub fn with_prefetcher(mut self, prefetcher: PrefetcherKind) -> Self {
        self.prefetcher = prefetcher;
        self
    }

    /// Sets the address mapping.
    pub fn with_mapping(mut self, mapping: AddressMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Sets the seed used by the random replacement policy.
    pub fn with_policy_seed(mut self, seed: u64) -> Self {
        self.policy_seed = seed;
        self
    }

    /// Sets hit/miss latencies in cycles.
    pub fn with_latencies(mut self, hit: u32, miss: u32) -> Self {
        self.hit_latency = hit;
        self.miss_latency = miss;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_geometry() {
        let dm = CacheConfig::direct_mapped(8);
        assert_eq!(dm.num_sets, 8);
        assert_eq!(dm.num_ways, 1);
        assert_eq!(dm.num_blocks(), 8);
        let fa = CacheConfig::fully_associative(4);
        assert_eq!(fa.num_sets, 1);
        assert_eq!(fa.num_ways, 4);
    }

    #[test]
    #[should_panic(expected = "num_ways must be positive")]
    fn zero_ways_panics() {
        let _ = CacheConfig::new(4, 0);
    }

    #[test]
    fn with_policy_round_trips() {
        let c = CacheConfig::new(2, 2).with_policy(PolicyKind::Rrip);
        assert_eq!(c.policy, PolicyKind::Rrip);
        assert_eq!(c.policy.name(), "RRIP");
    }

    #[test]
    fn deterministic_policies_exclude_random() {
        assert!(!PolicyKind::deterministic().contains(&PolicyKind::Random));
    }
}
