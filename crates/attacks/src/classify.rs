//! Heuristic attack-sequence classification (automating the paper's manual
//! "attack analysis", Sec. IV-D).

use autocat_gym::{Action, EnvConfig};
use std::fmt;

/// Attack categories the paper's Table IV reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackCategory {
    /// Prime+probe: disjoint addresses, contention-based eviction.
    PrimeProbe,
    /// Flush+reload: flush shared lines, reload after the victim.
    FlushReload,
    /// Evict+reload: evict shared lines by accesses, reload after.
    EvictReload,
    /// Replacement-state (LRU/PLRU/RRIP) attack: no eviction of the probed
    /// evidence required; fewer post-trigger probes than a full probe pass.
    LruBased,
    /// A combination (e.g. the paper's config 4: evict+reload fused with
    /// prime+probe).
    Combined,
    /// Nothing recognizable.
    Unknown,
}

impl fmt::Display for AttackCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttackCategory::PrimeProbe => "PP",
            AttackCategory::FlushReload => "FR",
            AttackCategory::EvictReload => "ER",
            AttackCategory::LruBased => "LRU",
            AttackCategory::Combined => "Combined",
            AttackCategory::Unknown => "Unknown",
        };
        write!(f, "{s}")
    }
}

/// Classifies an attack sequence found by the RL agent.
///
/// Heuristics mirror how the paper's authors categorized sequences:
///
/// * flushes before the trigger + reloads of victim-shared addresses after
///   it → flush+reload;
/// * accesses (no flush) before the trigger + shared-address reloads →
///   evict+reload; if the probe also covers attacker-private addresses the
///   sequence is a combination;
/// * disjoint address spaces with a probe of previously-primed lines →
///   prime+probe;
/// * a probe that touches *fewer* lines than the priming pass while still
///   deciding (possible only by reading replacement state) → LRU-based.
pub fn classify_sequence(actions: &[Action], config: &EnvConfig) -> AttackCategory {
    let trigger_pos = actions
        .iter()
        .position(|a| matches!(a, Action::TriggerVictim));
    let Some(tpos) = trigger_pos else {
        return AttackCategory::Unknown;
    };
    let is_victim_addr = |a: u64| a >= config.victim_addr_s && a <= config.victim_addr_e;
    let pre = &actions[..tpos];
    let post = &actions[tpos + 1..];

    let pre_flushes: Vec<u64> = pre
        .iter()
        .filter_map(|a| {
            if let Action::Flush(x) = a {
                Some(*x)
            } else {
                None
            }
        })
        .collect();
    let pre_accesses: Vec<u64> = pre
        .iter()
        .filter_map(|a| {
            if let Action::Access(x) = a {
                Some(*x)
            } else {
                None
            }
        })
        .collect();
    let post_accesses: Vec<u64> = post
        .iter()
        .filter_map(|a| {
            if let Action::Access(x) = a {
                Some(*x)
            } else {
                None
            }
        })
        .collect();
    let has_guess = actions
        .iter()
        .any(|a| matches!(a, Action::Guess(_) | Action::GuessNoAccess));
    if !has_guess {
        return AttackCategory::Unknown;
    }

    let shared_reload = post_accesses.iter().any(|&a| is_victim_addr(a));
    let private_probe = post_accesses.iter().any(|&a| !is_victim_addr(a));

    if !pre_flushes.is_empty() && shared_reload {
        return AttackCategory::FlushReload;
    }
    let shared_space =
        is_victim_addr(config.attacker_addr_s) || is_victim_addr(config.attacker_addr_e);
    if shared_reload && !pre_accesses.is_empty() {
        // Evicted by accesses rather than flushes.
        return if private_probe {
            AttackCategory::Combined
        } else {
            AttackCategory::EvictReload
        };
    }
    if shared_reload && shared_space {
        return AttackCategory::EvictReload;
    }
    if !post_accesses.is_empty() && !pre_accesses.is_empty() {
        // Contention on attacker-private lines. Distinguish full-probe
        // prime+probe from replacement-state reads: a prime+probe needs to
        // prime *and* probe enough distinct lines to cover the contended
        // sets; an LRU-state attack decides from fewer probes than primes.
        let mut probe_distinct = post_accesses.to_vec();
        probe_distinct.sort_unstable();
        probe_distinct.dedup();
        let mut prime_distinct = pre_accesses.to_vec();
        prime_distinct.sort_unstable();
        prime_distinct.dedup();
        if probe_distinct.len() * 2 <= prime_distinct.len() {
            return AttackCategory::LruBased;
        }
        return AttackCategory::PrimeProbe;
    }
    AttackCategory::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocat_gym::EnvConfig;

    fn acts(s: &[Action]) -> Vec<Action> {
        s.to_vec()
    }

    #[test]
    fn classifies_textbook_prime_probe() {
        let cfg = EnvConfig::prime_probe_dm4();
        let seq = acts(&[
            Action::Access(4),
            Action::Access(5),
            Action::Access(6),
            Action::Access(7),
            Action::TriggerVictim,
            Action::Access(4),
            Action::Access(5),
            Action::Access(6),
            Action::Access(7),
            Action::Guess(1),
        ]);
        assert_eq!(classify_sequence(&seq, &cfg), AttackCategory::PrimeProbe);
    }

    #[test]
    fn classifies_flush_reload() {
        let cfg = EnvConfig::flush_reload_fa4();
        let seq = acts(&[
            Action::Flush(0),
            Action::TriggerVictim,
            Action::Access(0),
            Action::Guess(0),
        ]);
        assert_eq!(classify_sequence(&seq, &cfg), AttackCategory::FlushReload);
    }

    #[test]
    fn classifies_evict_reload() {
        // Config 4-like: attacker covers 0-7, victim 0-3; evict by access,
        // reload the shared lines.
        let mut cfg = EnvConfig::prime_probe_dm4();
        cfg.attacker_addr_s = 0;
        cfg.attacker_addr_e = 7;
        let seq = acts(&[
            Action::Access(6),
            Action::Access(5),
            Action::Access(7),
            Action::TriggerVictim,
            Action::Access(1),
            Action::Access(2),
            Action::Guess(1),
        ]);
        assert_eq!(classify_sequence(&seq, &cfg), AttackCategory::EvictReload);
    }

    #[test]
    fn classifies_combination() {
        // The paper's config 4 finding: ER fused with PP (probes both
        // shared and private lines).
        let mut cfg = EnvConfig::prime_probe_dm4();
        cfg.attacker_addr_s = 0;
        cfg.attacker_addr_e = 7;
        let seq = acts(&[
            Action::Access(6),
            Action::Access(5),
            Action::Access(7),
            Action::TriggerVictim,
            Action::Access(7),
            Action::Access(6),
            Action::Access(1),
            Action::Guess(1),
        ]);
        assert_eq!(classify_sequence(&seq, &cfg), AttackCategory::Combined);
    }

    #[test]
    fn classifies_lru_state_attack() {
        // Config 5/7-style: prime 4+ lines but probe only one — possible
        // only by reading replacement state.
        let mut cfg = EnvConfig::replacement_study(autocat_cache::PolicyKind::Lru);
        cfg.attacker_addr_s = 4;
        cfg.attacker_addr_e = 8;
        cfg.victim_addr_s = 0;
        cfg.victim_addr_e = 0;
        let seq = acts(&[
            Action::Access(4),
            Action::Access(5),
            Action::Access(7),
            Action::Access(8),
            Action::TriggerVictim,
            Action::Access(6),
            Action::Guess(0),
        ]);
        assert_eq!(classify_sequence(&seq, &cfg), AttackCategory::LruBased);
    }

    #[test]
    fn no_trigger_is_unknown() {
        let cfg = EnvConfig::prime_probe_dm4();
        let seq = acts(&[Action::Access(4), Action::Guess(0)]);
        assert_eq!(classify_sequence(&seq, &cfg), AttackCategory::Unknown);
    }

    #[test]
    fn no_guess_is_unknown() {
        let cfg = EnvConfig::prime_probe_dm4();
        let seq = acts(&[Action::Access(4), Action::TriggerVictim, Action::Access(4)]);
        assert_eq!(classify_sequence(&seq, &cfg), AttackCategory::Unknown);
    }

    #[test]
    fn display_labels() {
        assert_eq!(AttackCategory::PrimeProbe.to_string(), "PP");
        assert_eq!(AttackCategory::FlushReload.to_string(), "FR");
        assert_eq!(AttackCategory::EvictReload.to_string(), "ER");
        assert_eq!(AttackCategory::LruBased.to_string(), "LRU");
    }
}
