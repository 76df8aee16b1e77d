//! Environment configuration (the paper's Table II).

use autocat_cache::{CacheConfig, PolicyKind, TwoLevelConfig};
use autocat_detect::MonitorSpec;

use crate::hardware::HardwareProfile;

/// Which cache implementation backs the environment (paper Fig. 2: a cache
/// simulator or real hardware).
#[derive(Clone, Debug, PartialEq)]
pub enum CacheSpec {
    /// A single-level simulated cache.
    Single(CacheConfig),
    /// A two-level hierarchy; the attacker runs on core 1 and the victim on
    /// core 0 (configs 16/17).
    TwoLevel(TwoLevelConfig),
    /// The simulated blackbox processor (Table III substitution).
    Hardware(HardwareProfile),
}

/// Reward values (Table II, RL config block).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RewardConfig {
    /// Reward for a correct guess (paper: 1.0).
    pub correct_guess: f32,
    /// Reward for a wrong guess (paper: -1.0).
    pub wrong_guess: f32,
    /// Per-step penalty (paper: -0.01; -0.005 for hardware runs).
    pub step: f32,
    /// Penalty when the episode exceeds the length limit.
    pub length_violation: f32,
    /// Penalty when a detector flags the sequence.
    pub detection: f32,
}

impl Default for RewardConfig {
    fn default() -> Self {
        Self {
            correct_guess: 1.0,
            wrong_guess: -1.0,
            step: -0.01,
            length_violation: -2.0,
            detection: -2.0,
        }
    }
}

/// Full environment configuration, mirroring the paper's Table II options.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvConfig {
    /// Cache implementation.
    pub cache: CacheSpec,
    /// First address accessible to the attack program (inclusive).
    pub attacker_addr_s: u64,
    /// Last address accessible to the attack program (inclusive).
    pub attacker_addr_e: u64,
    /// First address accessible to the victim program (inclusive).
    pub victim_addr_s: u64,
    /// Last address accessible to the victim program (inclusive).
    pub victim_addr_e: u64,
    /// Whether the attack program may flush (`clflush`).
    pub flush_enable: bool,
    /// Whether the victim may make no access when triggered ("0/E" configs).
    pub victim_no_access_enable: bool,
    /// In-episode detection (Table II `detection_enable`): any
    /// [`autocat_detect::Monitor`] built from this spec guards the episode,
    /// terminating it with `detection_reward` when the monitor flags an
    /// event (Sec. V-D).
    pub detection: MonitorSpec,
    /// History window size; also the episode length limit (paper sets it to
    /// 4–8 × `num_blocks`).
    pub window_size: usize,
    /// Reward values.
    pub rewards: RewardConfig,
    /// Number of random warm-up accesses initializing the cache at reset
    /// (paper Sec. VI-B).
    pub init_accesses: usize,
    /// PL cache: pre-install and lock every victim address at reset
    /// (Table VII experiment).
    pub pl_lock_victim: bool,
    /// Mask latency observations until the agent first signals a guess
    /// (the paper's batched-measurement mode for real hardware).
    pub masked_latency: bool,
}

impl EnvConfig {
    /// Creates a config over a single-level cache with the given address
    /// ranges and paper-default rewards.
    pub fn new(cache: CacheConfig, attacker_addrs: (u64, u64), victim_addrs: (u64, u64)) -> Self {
        let num_blocks = cache.num_blocks();
        Self {
            cache: CacheSpec::Single(cache),
            attacker_addr_s: attacker_addrs.0,
            attacker_addr_e: attacker_addrs.1,
            victim_addr_s: victim_addrs.0,
            victim_addr_e: victim_addrs.1,
            flush_enable: false,
            victim_no_access_enable: false,
            detection: MonitorSpec::Off,
            window_size: (6 * num_blocks).clamp(8, 64),
            rewards: RewardConfig::default(),
            init_accesses: num_blocks,
            pl_lock_victim: false,
            masked_latency: false,
        }
    }

    /// Paper Table IV config 1: direct-mapped 4-set cache, victim 0–3,
    /// attacker 4–7 (prime+probe expected).
    pub fn prime_probe_dm4() -> Self {
        Self::new(CacheConfig::direct_mapped(4), (4, 7), (0, 3))
    }

    /// Paper Table IV config 6: fully-associative 4-way LRU cache, victim
    /// accesses address 0 or nothing, attacker 0–3 with flush
    /// (flush+reload expected).
    pub fn flush_reload_fa4() -> Self {
        let mut c = Self::new(
            CacheConfig::fully_associative(4).with_policy(PolicyKind::Lru),
            (0, 3),
            (0, 0),
        );
        c.flush_enable = true;
        c.victim_no_access_enable = true;
        c
    }

    /// The Table V / case-study-1 config: 4-way set with the given policy,
    /// attacker 0–4 (big enough to fill the set), victim accesses 0 or
    /// nothing.
    pub fn replacement_study(policy: PolicyKind) -> Self {
        let mut c = Self::new(
            CacheConfig::fully_associative(4).with_policy(policy),
            (0, 4),
            (0, 0),
        );
        c.victim_no_access_enable = true;
        c
    }

    /// The Table VII PL-cache config: 4-way PLRU, attacker 1–5, victim locks
    /// and accesses address 0 (or nothing).
    pub fn pl_cache_study(locked: bool) -> Self {
        let mut c = Self::new(
            CacheConfig::fully_associative(4).with_policy(PolicyKind::Plru),
            (1, 5),
            (0, 0),
        );
        c.victim_no_access_enable = true;
        c.pl_lock_victim = locked;
        c
    }

    /// Enables flush actions.
    pub fn with_flush(mut self, enable: bool) -> Self {
        self.flush_enable = enable;
        self
    }

    /// Enables the victim-no-access secret value.
    pub fn with_victim_no_access(mut self, enable: bool) -> Self {
        self.victim_no_access_enable = enable;
        self
    }

    /// Sets the in-loop detection monitor.
    pub fn with_detection(mut self, detection: MonitorSpec) -> Self {
        self.detection = detection;
        self
    }

    /// Sets the window size / episode length limit.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window_size = window;
        self
    }

    /// Sets the reward configuration.
    pub fn with_rewards(mut self, rewards: RewardConfig) -> Self {
        self.rewards = rewards;
        self
    }

    /// Number of attacker-accessible addresses.
    pub fn num_attacker_addrs(&self) -> usize {
        (self.attacker_addr_e - self.attacker_addr_s + 1) as usize
    }

    /// Number of victim-accessible addresses.
    pub fn num_victim_addrs(&self) -> usize {
        (self.victim_addr_e - self.victim_addr_s + 1) as usize
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.attacker_addr_e < self.attacker_addr_s {
            return Err("attacker address range is empty".into());
        }
        if self.victim_addr_e < self.victim_addr_s {
            return Err("victim address range is empty".into());
        }
        if self.window_size < 2 {
            return Err("window_size must be at least 2".into());
        }
        if self.rewards.correct_guess <= 0.0 {
            return Err("correct_guess_reward must be positive".into());
        }
        if self.rewards.wrong_guess > 0.0 || self.rewards.step > 0.0 {
            return Err("wrong_guess/step rewards must be non-positive".into());
        }
        self.detection
            .validate()
            .map_err(|e| format!("detection: {e}"))?;
        if matches!(self.cache, CacheSpec::TwoLevel(_)) && self.flush_enable {
            // Supported, but flush in the hierarchy clears all levels.
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rewards_match_paper() {
        let r = RewardConfig::default();
        assert_eq!(r.correct_guess, 1.0);
        assert_eq!(r.wrong_guess, -1.0);
        assert_eq!(r.step, -0.01);
    }

    #[test]
    fn preset_configs_validate() {
        assert!(EnvConfig::prime_probe_dm4().validate().is_ok());
        assert!(EnvConfig::flush_reload_fa4().validate().is_ok());
        assert!(EnvConfig::replacement_study(PolicyKind::Rrip)
            .validate()
            .is_ok());
        assert!(EnvConfig::pl_cache_study(true).validate().is_ok());
    }

    #[test]
    fn address_counts() {
        let c = EnvConfig::prime_probe_dm4();
        assert_eq!(c.num_attacker_addrs(), 4);
        assert_eq!(c.num_victim_addrs(), 4);
    }

    #[test]
    fn invalid_ranges_rejected() {
        let mut c = EnvConfig::prime_probe_dm4();
        c.attacker_addr_e = 0;
        c.attacker_addr_s = 5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_monitor_rejected() {
        // A malformed monitor spec (SVM weights not matching the feature
        // dimensionality) must fail validation, not panic mid-training.
        let c = EnvConfig::prime_probe_dm4().with_detection(MonitorSpec::CycloneSvm {
            w: vec![1.0; 4],
            b: -1.5,
            num_intervals: 8,
            proximity_window: 12,
        });
        let err = c.validate().unwrap_err();
        assert!(err.contains("detection"), "{err}");
        let c =
            EnvConfig::prime_probe_dm4().with_detection(MonitorSpec::VictimMiss { threshold: 0 });
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_rewards_rejected() {
        let mut c = EnvConfig::prime_probe_dm4();
        c.rewards.step = 0.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn flush_reload_preset_enables_flush_and_no_access() {
        let c = EnvConfig::flush_reload_fa4();
        assert!(c.flush_enable);
        assert!(c.victim_no_access_enable);
    }
}
