//! Address-to-set mapping functions.

use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How line addresses map to cache sets.
///
/// The paper's Sec. V-B also studies "a fixed random address-to-set mapping
/// where an address is mapped to a set using a fixed random permutation";
/// [`AddressMapping::RandomPermutation`] reproduces that.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AddressMapping {
    /// Conventional modulo indexing: `set = addr % num_sets`.
    Direct,
    /// A fixed random permutation of a bounded address space. The
    /// permutation is derived deterministically from the seed, covering
    /// addresses `0..address_space`; addresses outside that range fall back
    /// to modulo indexing of their permuted low bits.
    RandomPermutation {
        /// Seed for the fixed permutation.
        seed: u64,
        /// Size of the permuted address space.
        address_space: usize,
    },
}

impl AddressMapping {
    /// Computes the set index for `addr` in a cache with `num_sets` sets.
    pub fn set_index(&self, addr: u64, num_sets: usize) -> usize {
        match self {
            AddressMapping::Direct => (addr % num_sets as u64) as usize,
            AddressMapping::RandomPermutation {
                seed,
                address_space,
            } => {
                let perm = build_permutation(*seed, *address_space);
                let idx = (addr as usize) % (*address_space).max(1);
                perm[idx] % num_sets
            }
        }
    }
}

/// Builds the fixed permutation for a seed (deterministic).
fn build_permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n.max(1)).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    perm.shuffle(&mut rng);
    perm
}

/// A memoized random permutation mapping, avoiding re-deriving the
/// permutation on every access (used by [`crate::Cache`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ResolvedMapping {
    Direct,
    Permuted(Vec<usize>),
}

impl ResolvedMapping {
    pub(crate) fn resolve(mapping: &AddressMapping) -> Self {
        match mapping {
            AddressMapping::Direct => ResolvedMapping::Direct,
            AddressMapping::RandomPermutation {
                seed,
                address_space,
            } => ResolvedMapping::Permuted(build_permutation(*seed, *address_space)),
        }
    }

    pub(crate) fn set_index(&self, addr: u64, num_sets: usize) -> usize {
        match self {
            ResolvedMapping::Direct => (addr % num_sets as u64) as usize,
            ResolvedMapping::Permuted(perm) => {
                let idx = (addr as usize) % perm.len();
                perm[idx] % num_sets
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapping_is_modulo() {
        let m = AddressMapping::Direct;
        assert_eq!(m.set_index(0, 4), 0);
        assert_eq!(m.set_index(5, 4), 1);
        assert_eq!(m.set_index(7, 4), 3);
    }

    #[test]
    fn permutation_is_deterministic() {
        let m = AddressMapping::RandomPermutation {
            seed: 7,
            address_space: 16,
        };
        let a: Vec<usize> = (0..16).map(|i| m.set_index(i, 4)).collect();
        let b: Vec<usize> = (0..16).map(|i| m.set_index(i, 4)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn permutation_is_balanced_over_sets() {
        // A permutation of 0..16 over 4 sets must put exactly 4 addresses in
        // each set.
        let m = AddressMapping::RandomPermutation {
            seed: 3,
            address_space: 16,
        };
        let mut counts = [0usize; 4];
        for a in 0..16u64 {
            counts[m.set_index(a, 4)] += 1;
        }
        assert_eq!(counts, [4, 4, 4, 4]);
    }

    #[test]
    fn different_seeds_generally_differ() {
        let m1 = AddressMapping::RandomPermutation {
            seed: 1,
            address_space: 32,
        };
        let m2 = AddressMapping::RandomPermutation {
            seed: 2,
            address_space: 32,
        };
        let a: Vec<usize> = (0..32).map(|i| m1.set_index(i, 8)).collect();
        let b: Vec<usize> = (0..32).map(|i| m2.set_index(i, 8)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn resolved_matches_unresolved() {
        let m = AddressMapping::RandomPermutation {
            seed: 11,
            address_space: 24,
        };
        let r = ResolvedMapping::resolve(&m);
        for a in 0..24u64 {
            assert_eq!(m.set_index(a, 6), r.set_index(a, 6));
        }
    }
}
