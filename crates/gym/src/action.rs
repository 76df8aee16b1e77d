//! The discrete action space (paper Sec. IV-C, "RL Action Space").

use crate::config::EnvConfig;
use std::fmt;

/// One attack-program action.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// `aX` — access attacker-accessible address `X`.
    Access(u64),
    /// `afX` — flush address `X` (only when `flush_enable`).
    Flush(u64),
    /// `av` — trigger the victim program's secret access.
    TriggerVictim,
    /// `agY` — guess the secret is address `Y` (ends the episode, or
    /// re-arms the secret in multi-guess episodes).
    Guess(u64),
    /// `agE` — guess the victim made no access (only when
    /// `victim_no_access_enable`).
    GuessNoAccess,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Access(x) => write!(f, "{x}"),
            Action::Flush(x) => write!(f, "f{x}"),
            Action::TriggerVictim => write!(f, "v"),
            Action::Guess(y) => write!(f, "g{y}"),
            Action::GuessNoAccess => write!(f, "gE"),
        }
    }
}

/// Bijection between action indices and [`Action`]s for a configuration.
///
/// Layout: accesses, then flushes (if enabled), then the victim trigger,
/// then guesses (victim addresses), then guess-no-access (if enabled).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActionSpace {
    actions: Vec<Action>,
}

impl ActionSpace {
    /// Builds the action space for an environment configuration.
    pub fn from_config(config: &EnvConfig) -> Self {
        let mut actions = Vec::new();
        for a in config.attacker_addr_s..=config.attacker_addr_e {
            actions.push(Action::Access(a));
        }
        if config.flush_enable {
            for a in config.attacker_addr_s..=config.attacker_addr_e {
                actions.push(Action::Flush(a));
            }
        }
        actions.push(Action::TriggerVictim);
        for v in config.victim_addr_s..=config.victim_addr_e {
            actions.push(Action::Guess(v));
        }
        if config.victim_no_access_enable {
            actions.push(Action::GuessNoAccess);
        }
        Self { actions }
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the space is empty (never true for valid configs).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Decodes an action index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn decode(&self, index: usize) -> Action {
        assert!(
            index < self.actions.len(),
            "action index {index} out of range"
        );
        self.actions[index]
    }

    /// Encodes an action to its index, if present in this space.
    pub fn encode(&self, action: Action) -> Option<usize> {
        self.actions.iter().position(|&a| a == action)
    }

    /// All actions in index order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Indices of all guess actions (`agY` and `agE`).
    pub fn guess_indices(&self) -> Vec<usize> {
        self.actions
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, Action::Guess(_) | Action::GuessNoAccess))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;

    #[test]
    fn prime_probe_space_layout() {
        // Config 1: attacker 4-7 (4 accesses), no flush, trigger, guesses
        // 0-3, no agE → 4 + 1 + 4 = 9 actions.
        let space = ActionSpace::from_config(&EnvConfig::prime_probe_dm4());
        assert_eq!(space.len(), 9);
        assert_eq!(space.decode(0), Action::Access(4));
        assert_eq!(space.decode(4), Action::TriggerVictim);
        assert_eq!(space.decode(5), Action::Guess(0));
    }

    #[test]
    fn flush_reload_space_layout() {
        // Config 6: attacker 0-3 accesses + 4 flushes + trigger + guess 0 +
        // agE = 4 + 4 + 1 + 1 + 1 = 11.
        let space = ActionSpace::from_config(&EnvConfig::flush_reload_fa4());
        assert_eq!(space.len(), 11);
        assert_eq!(space.decode(4), Action::Flush(0));
        assert_eq!(space.decode(8), Action::TriggerVictim);
        assert_eq!(space.decode(9), Action::Guess(0));
        assert_eq!(space.decode(10), Action::GuessNoAccess);
    }

    #[test]
    fn encode_decode_round_trip() {
        let space = ActionSpace::from_config(&EnvConfig::flush_reload_fa4());
        for i in 0..space.len() {
            assert_eq!(space.encode(space.decode(i)), Some(i));
        }
    }

    #[test]
    fn encode_missing_action_is_none() {
        let space = ActionSpace::from_config(&EnvConfig::prime_probe_dm4());
        assert_eq!(space.encode(Action::Flush(4)), None);
        assert_eq!(space.encode(Action::GuessNoAccess), None);
    }

    #[test]
    fn guess_indices_cover_all_guesses() {
        let space = ActionSpace::from_config(&EnvConfig::flush_reload_fa4());
        let g = space.guess_indices();
        assert_eq!(g, vec![9, 10]);
    }

    #[test]
    fn display_formats_match_paper_notation() {
        assert_eq!(Action::Access(7).to_string(), "7");
        assert_eq!(Action::Flush(0).to_string(), "f0");
        assert_eq!(Action::TriggerVictim.to_string(), "v");
        assert_eq!(Action::Guess(2).to_string(), "g2");
        assert_eq!(Action::GuessNoAccess.to_string(), "gE");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_out_of_range_panics() {
        let space = ActionSpace::from_config(&EnvConfig::prime_probe_dm4());
        let _ = space.decode(100);
    }
}
