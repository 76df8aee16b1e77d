//! The single-secret cache guessing game (paper Sec. III-B).

use autocat_cache::{Cache, CacheBackend, CacheEvent, Domain, TwoLevelCache};
use autocat_detect::Monitor;
use rand::rngs::StdRng;
use rand::Rng;

use crate::action::{Action, ActionSpace};
use crate::config::{CacheSpec, EnvConfig};
use crate::hardware::SimulatedProcessor;
use crate::obs::{Latency, ObsEncoder, StepRecord};
use crate::{Environment, StepInfo, StepResult};

/// The victim's secret for an episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Secret {
    /// The victim accesses this address when triggered.
    Addr(u64),
    /// The victim makes no access when triggered
    /// (`victim_no_access_enable`).
    NoAccess,
}

/// Builds the [`CacheBackend`] a [`CacheSpec`] describes.
///
/// This is the built-in spec → backend factory; environments accept any
/// other implementation through [`CacheGuessingGame::with_backend`].
pub fn backend_from_spec(spec: &CacheSpec, seed: u64) -> Box<dyn CacheBackend> {
    match spec {
        CacheSpec::Single(cfg) => Box::new(Cache::new(cfg.clone())),
        CacheSpec::TwoLevel(cfg) => Box::new(TwoLevelCache::new(cfg.clone())),
        CacheSpec::Hardware(profile) => Box::new(SimulatedProcessor::new(*profile, seed)),
    }
}

/// The single-secret guessing-game environment (Tables III–VII).
///
/// Each episode: the environment samples `addr_secret` (or "no access"),
/// the agent takes access/flush/trigger actions observing hit/miss
/// latencies, and ends the episode with a guess. See [`EnvConfig`] for all
/// the knobs.
///
/// The environment is generic over a boxed [`CacheBackend`]: by default the
/// backend is built from [`EnvConfig::cache`], and
/// [`CacheGuessingGame::with_backend`] accepts any third-party memory
/// model. An optional in-loop [`Monitor`] (built from
/// [`EnvConfig::detection`]) observes every cache event and terminates the
/// episode with the detection penalty when it flags one.
#[derive(Clone, Debug)]
pub struct CacheGuessingGame {
    config: EnvConfig,
    space: ActionSpace,
    encoder: ObsEncoder,
    backend: Box<dyn CacheBackend>,
    monitor: Option<Box<dyn Monitor>>,
    secret: Secret,
    forced_secret: Option<Secret>,
    history: Vec<StepRecord>,
    victim_triggered: bool,
    steps: usize,
    done: bool,
    revealed: bool,
}

impl CacheGuessingGame {
    /// Creates the environment with the backend described by
    /// [`EnvConfig::cache`].
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration fails
    /// [`EnvConfig::validate`].
    pub fn new(config: EnvConfig) -> Result<Self, String> {
        let backend = backend_from_spec(&config.cache, 0);
        Self::with_backend(config, backend)
    }

    /// Creates the environment over a caller-supplied [`CacheBackend`],
    /// ignoring [`EnvConfig::cache`] (which then only documents the
    /// intended memory). This is the third-party plugin entry point: new
    /// memories run in the guessing game without touching this crate.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration fails
    /// [`EnvConfig::validate`].
    pub fn with_backend(config: EnvConfig, backend: Box<dyn CacheBackend>) -> Result<Self, String> {
        config.validate()?;
        let space = ActionSpace::from_config(&config);
        let encoder = ObsEncoder::new(config.window_size, space.len());
        let monitor = config.detection.build();
        Ok(Self {
            config,
            space,
            encoder,
            backend,
            monitor,
            secret: Secret::NoAccess,
            forced_secret: None,
            history: Vec::new(),
            victim_triggered: false,
            steps: 0,
            done: true,
            revealed: false,
        })
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// The action space.
    pub fn action_space(&self) -> &ActionSpace {
        &self.space
    }

    /// The current episode's secret (for evaluation and channel replay).
    pub fn secret(&self) -> Secret {
        self.secret
    }

    /// Forces the next episodes' secret (covert-channel sender role). Pass
    /// `None` to return to random secrets.
    pub fn force_secret(&mut self, secret: Option<Secret>) {
        self.forced_secret = secret;
        if let Some(s) = secret {
            self.secret = s;
        }
    }

    /// Whether the current episode has ended.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The action history of the current episode.
    pub fn history(&self) -> &[StepRecord] {
        &self.history
    }

    /// Drains cache events accumulated since the last drain (detector
    /// experiments). With an in-loop monitor configured the environment
    /// consumes events itself after every step, so this returns only
    /// events emitted since then.
    pub fn drain_events(&mut self) -> Vec<CacheEvent> {
        self.backend.drain_events()
    }

    /// The cache backend driving this environment.
    pub fn backend(&self) -> &dyn CacheBackend {
        self.backend.as_ref()
    }

    /// The in-loop detection monitor, if one is configured.
    pub fn monitor(&self) -> Option<&dyn Monitor> {
        self.monitor.as_deref()
    }

    fn sample_secret(&self, rng: &mut StdRng) -> Secret {
        if let Some(s) = self.forced_secret {
            return s;
        }
        let num_victim = self.config.num_victim_addrs();
        let options = num_victim + usize::from(self.config.victim_no_access_enable);
        let pick = rng.gen_range(0..options);
        if pick < num_victim {
            Secret::Addr(self.config.victim_addr_s + pick as u64)
        } else {
            Secret::NoAccess
        }
    }

    fn init_cache(&mut self, rng: &mut StdRng) {
        self.backend.reset();
        // Warm up with random accesses from the combined address range
        // (paper Sec. VI-B).
        let lo = self.config.attacker_addr_s.min(self.config.victim_addr_s);
        let hi = self.config.attacker_addr_e.max(self.config.victim_addr_e);
        for _ in 0..self.config.init_accesses {
            let addr = rng.gen_range(lo..=hi);
            self.backend.access(addr, Domain::Attacker);
        }
        if self.config.pl_lock_victim {
            for v in self.config.victim_addr_s..=self.config.victim_addr_e {
                let _ = self.backend.lock(v);
            }
        }
        // Detectors must not see the warm-up.
        let _ = self.backend.drain_events();
    }

    fn mask(&self) -> bool {
        self.config.masked_latency && !self.revealed
    }

    fn encode_obs(&self) -> Vec<f32> {
        self.encoder.encode(&self.history, self.mask())
    }

    /// Applies a decoded action, returning `(latency, reward, done, info)`.
    fn apply(&mut self, action: Action) -> (Latency, f32, bool, StepInfo) {
        let rewards = self.config.rewards;
        let mut info = StepInfo::default();
        match action {
            Action::Access(x) => {
                let (observed_hit, _) = self.backend.access(x, Domain::Attacker);
                let lat = if observed_hit {
                    Latency::Hit
                } else {
                    Latency::Miss
                };
                (lat, rewards.step, false, info)
            }
            Action::Flush(x) => {
                self.backend.flush(x, Domain::Attacker);
                (Latency::NotAvailable, rewards.step, false, info)
            }
            Action::TriggerVictim => {
                self.victim_triggered = true;
                if let Secret::Addr(s) = self.secret {
                    // Detection happens through the monitor observing the
                    // resulting cache events (see `step`), not here.
                    let _ = self.backend.access(s, Domain::Victim);
                }
                (Latency::NotAvailable, rewards.step, false, info)
            }
            Action::Guess(y) => {
                if self.mask() {
                    // Batched-measurement mode: the first guess intent
                    // reveals the latencies; the agent then takes its real
                    // guess based on the revealed window.
                    self.revealed = true;
                    return (Latency::NotAvailable, rewards.step, false, info);
                }
                // A guess concerns the victim's triggered access: before any
                // trigger there is nothing to guess and the guess is wrong.
                let correct = self.victim_triggered && self.secret == Secret::Addr(y);
                info.guessed = Some(correct);
                let r = if correct {
                    rewards.correct_guess
                } else {
                    rewards.wrong_guess
                };
                (Latency::NotAvailable, r, true, info)
            }
            Action::GuessNoAccess => {
                if self.mask() {
                    self.revealed = true;
                    return (Latency::NotAvailable, rewards.step, false, info);
                }
                let correct = self.victim_triggered && self.secret == Secret::NoAccess;
                info.guessed = Some(correct);
                let r = if correct {
                    rewards.correct_guess
                } else {
                    rewards.wrong_guess
                };
                (Latency::NotAvailable, r, true, info)
            }
        }
    }
}

impl Environment for CacheGuessingGame {
    fn obs_dim(&self) -> usize {
        self.encoder.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.space.len()
    }

    fn token_dim(&self) -> usize {
        self.encoder.token_dim()
    }

    fn window(&self) -> usize {
        self.config.window_size
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f32> {
        if self.backend.is_stochastic() {
            // A fresh measurement run reseeds the noise stream.
            self.backend.reseed(rng.gen());
        }
        self.init_cache(rng);
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.reset();
        }
        self.secret = self.sample_secret(rng);
        self.history.clear();
        self.victim_triggered = false;
        self.steps = 0;
        self.done = false;
        self.revealed = false;
        self.encode_obs()
    }

    fn step(&mut self, action: usize, _rng: &mut StdRng) -> StepResult {
        assert!(!self.done, "step on finished episode; call reset first");
        let decoded = self.space.decode(action);
        self.steps += 1;
        let (latency, mut reward, mut done, mut info) = self.apply(decoded);
        if let Some(monitor) = self.monitor.as_mut() {
            let mut flagged = false;
            for event in self.backend.drain_events() {
                flagged |= monitor.observe(&event).is_attack();
            }
            if flagged {
                info.detected = true;
                if !done {
                    // The monitor ends the episode with the detection
                    // penalty (paper Sec. V-D).
                    reward = self.config.rewards.detection;
                    done = true;
                }
            }
        }
        self.history.push(StepRecord {
            action,
            latency,
            step_index: self.steps - 1,
            victim_triggered: self.victim_triggered,
        });
        if !done && self.steps >= self.config.window_size {
            done = true;
            reward += self.config.rewards.length_violation;
            info.length_violation = true;
        }
        self.done = done;
        StepResult {
            obs: self.encode_obs(),
            reward,
            done,
            info,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;
    use autocat_cache::PolicyKind;
    use autocat_detect::MonitorSpec;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    /// Runs a fixed action sequence, returning the final StepResult.
    fn run(env: &mut CacheGuessingGame, rng: &mut StdRng, actions: &[Action]) -> StepResult {
        let mut last = None;
        for &a in actions {
            let idx = env.action_space().encode(a).expect("action must exist");
            last = Some(env.step(idx, rng));
        }
        last.expect("at least one action")
    }

    #[test]
    fn flush_reload_attack_wins() {
        // Config 6's known attack: f0 -> v -> 0 -> guess.
        let mut env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
        let mut r = rng();
        let mut correct = 0;
        let episodes = 40;
        for _ in 0..episodes {
            env.reset(&mut r);
            env.step(env.action_space().encode(Action::Flush(0)).unwrap(), &mut r);
            env.step(
                env.action_space().encode(Action::TriggerVictim).unwrap(),
                &mut r,
            );
            let probe = env.step(
                env.action_space().encode(Action::Access(0)).unwrap(),
                &mut r,
            );
            // Decode: hit -> victim accessed 0; miss -> no access.
            let token_start = 0;
            let hit = probe.obs[token_start] == 1.0;
            let guess = if hit {
                Action::Guess(0)
            } else {
                Action::GuessNoAccess
            };
            let fin = env.step(env.action_space().encode(guess).unwrap(), &mut r);
            assert!(fin.done);
            if fin.info.guessed == Some(true) {
                correct += 1;
            }
        }
        assert_eq!(
            correct, episodes,
            "flush+reload must be 100% accurate on LRU sim"
        );
    }

    #[test]
    fn prime_probe_attack_wins() {
        // Config 1: prime 4..7, trigger, probe; first probe miss names the set.
        let mut env = CacheGuessingGame::new(EnvConfig::prime_probe_dm4()).unwrap();
        let mut r = rng();
        for _ in 0..20 {
            env.reset(&mut r);
            for a in 4..8u64 {
                env.step(
                    env.action_space().encode(Action::Access(a)).unwrap(),
                    &mut r,
                );
            }
            env.step(
                env.action_space().encode(Action::TriggerVictim).unwrap(),
                &mut r,
            );
            let mut missed_set = None;
            for a in 4..8u64 {
                let res = env.step(
                    env.action_space().encode(Action::Access(a)).unwrap(),
                    &mut r,
                );
                let miss = res.obs[1] == 1.0;
                if miss && missed_set.is_none() {
                    missed_set = Some(a - 4);
                }
            }
            let secret = match env.secret() {
                Secret::Addr(s) => s,
                Secret::NoAccess => unreachable!("config 1 has no agE"),
            };
            let guessed = missed_set.expect("victim access must evict one primed line");
            assert_eq!(guessed, secret, "probe miss must identify the victim set");
        }
    }

    #[test]
    fn wrong_guess_gets_negative_reward() {
        let mut env = CacheGuessingGame::new(EnvConfig::prime_probe_dm4()).unwrap();
        let mut r = rng();
        env.reset(&mut r);
        env.force_secret(Some(Secret::Addr(0)));
        env.reset(&mut r);
        let res = run(&mut env, &mut r, &[Action::Guess(3)]);
        assert!(res.done);
        assert_eq!(res.reward, -1.0);
        assert_eq!(res.info.guessed, Some(false));
    }

    #[test]
    fn correct_guess_gets_positive_reward() {
        let mut env = CacheGuessingGame::new(EnvConfig::prime_probe_dm4()).unwrap();
        let mut r = rng();
        env.force_secret(Some(Secret::Addr(2)));
        env.reset(&mut r);
        let res = run(&mut env, &mut r, &[Action::TriggerVictim, Action::Guess(2)]);
        assert_eq!(res.reward, 1.0);
        assert_eq!(res.info.guessed, Some(true));
    }

    #[test]
    fn guess_before_trigger_is_always_wrong() {
        let mut env = CacheGuessingGame::new(EnvConfig::prime_probe_dm4()).unwrap();
        let mut r = rng();
        env.force_secret(Some(Secret::Addr(1)));
        env.reset(&mut r);
        // Correct address, but the victim was never triggered.
        let res = run(&mut env, &mut r, &[Action::Guess(1)]);
        assert_eq!(res.info.guessed, Some(false));
        assert_eq!(res.reward, -1.0);
    }

    #[test]
    fn episode_length_limit_enforced() {
        let mut env = CacheGuessingGame::new(EnvConfig::prime_probe_dm4().with_window(4)).unwrap();
        let mut r = rng();
        env.reset(&mut r);
        let mut last = None;
        for _ in 0..4 {
            last = Some(env.step(0, &mut r));
        }
        let last = last.unwrap();
        assert!(last.done);
        assert!(last.info.length_violation);
        assert!(last.reward < -1.0);
    }

    #[test]
    #[should_panic(expected = "finished episode")]
    fn step_after_done_panics() {
        let mut env = CacheGuessingGame::new(EnvConfig::prime_probe_dm4()).unwrap();
        let mut r = rng();
        env.reset(&mut r);
        let g = env.action_space().guess_indices()[0];
        env.step(g, &mut r);
        env.step(0, &mut r);
    }

    #[test]
    fn victim_miss_detection_terminates() {
        // With detection on and an empty-ish cache, triggering the victim
        // after flushing its line must miss and be detected.
        let cfg = EnvConfig::flush_reload_fa4().with_detection(MonitorSpec::strict_miss());
        let mut env = CacheGuessingGame::new(cfg).unwrap();
        let mut r = rng();
        env.force_secret(Some(Secret::Addr(0)));
        env.reset(&mut r);
        env.step(env.action_space().encode(Action::Flush(0)).unwrap(), &mut r);
        let res = env.step(
            env.action_space().encode(Action::TriggerVictim).unwrap(),
            &mut r,
        );
        assert!(res.done);
        assert!(res.info.detected);
        assert_eq!(res.reward, env.config().rewards.detection);
    }

    #[test]
    fn pl_locked_victim_line_never_evicted() {
        let cfg = EnvConfig::pl_cache_study(true);
        let mut env = CacheGuessingGame::new(cfg).unwrap();
        let mut r = rng();
        env.force_secret(Some(Secret::Addr(0)));
        env.reset(&mut r);
        // Hammer the set with attacker lines; the victim's locked line must
        // still hit when triggered (no victim miss ever).
        for a in 1..=5u64 {
            env.step(
                env.action_space().encode(Action::Access(a)).unwrap(),
                &mut r,
            );
        }
        // Victim access must hit (line locked in cache).
        let before = env.drain_events();
        drop(before);
        env.step(
            env.action_space().encode(Action::TriggerVictim).unwrap(),
            &mut r,
        );
        let events = env.drain_events();
        let victim_miss = events.iter().any(|e| {
            matches!(
                e,
                CacheEvent::Access {
                    domain: Domain::Victim,
                    hit: false,
                    ..
                }
            )
        });
        assert!(!victim_miss, "locked victim line must hit");
    }

    #[test]
    fn third_party_backend_plugs_in() {
        // Boxing a bare `Cache` through the public `CacheBackend` trait
        // reproduces the spec-built environment exactly — the plugin path
        // needs no gym-internal types.
        let cfg = EnvConfig::prime_probe_dm4();
        let backend: Box<dyn CacheBackend> =
            Box::new(Cache::new(autocat_cache::CacheConfig::direct_mapped(4)));
        let mut env = CacheGuessingGame::with_backend(cfg.clone(), backend).unwrap();
        let mut reference = CacheGuessingGame::new(cfg).unwrap();
        let (mut r1, mut r2) = (rng(), rng());
        for _ in 0..3 {
            assert_eq!(env.reset(&mut r1), reference.reset(&mut r2));
            for action in 0..4 {
                assert_eq!(env.step(action, &mut r1), reference.step(action, &mut r2));
            }
        }
    }

    #[test]
    fn composite_monitor_guards_episode() {
        // A stacked monitor (CC-Hunter + miss-count) must flag through the
        // miss-count member when the victim misses.
        let cfg = EnvConfig::flush_reload_fa4().with_detection(MonitorSpec::Composite(vec![
            MonitorSpec::cc_hunter(),
            MonitorSpec::strict_miss(),
        ]));
        let mut env = CacheGuessingGame::new(cfg).unwrap();
        let mut r = rng();
        env.force_secret(Some(Secret::Addr(0)));
        env.reset(&mut r);
        env.step(env.action_space().encode(Action::Flush(0)).unwrap(), &mut r);
        let res = env.step(
            env.action_space().encode(Action::TriggerVictim).unwrap(),
            &mut r,
        );
        assert!(res.done);
        assert!(res.info.detected);
    }

    #[test]
    fn secret_distribution_covers_all_options() {
        let mut env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
        let mut r = rng();
        let mut saw_addr = false;
        let mut saw_none = false;
        for _ in 0..50 {
            env.reset(&mut r);
            match env.secret() {
                Secret::Addr(_) => saw_addr = true,
                Secret::NoAccess => saw_none = true,
            }
        }
        assert!(saw_addr && saw_none);
    }

    #[test]
    fn masked_mode_hides_latency_until_reveal() {
        let mut cfg = EnvConfig::replacement_study(PolicyKind::Lru);
        cfg.masked_latency = true;
        let mut env = CacheGuessingGame::new(cfg).unwrap();
        let mut r = rng();
        env.force_secret(Some(Secret::Addr(0)));
        env.reset(&mut r);
        let res = env.step(
            env.action_space().encode(Action::Access(1)).unwrap(),
            &mut r,
        );
        // Latency slot must read N.A. (index 2 of the most recent token).
        assert_eq!(res.obs[2], 1.0, "latency must be masked");
        assert_eq!(res.obs[0] + res.obs[1], 0.0);
        // First guess intent reveals instead of terminating.
        let g = env.action_space().encode(Action::Guess(0)).unwrap();
        let res = env.step(g, &mut r);
        assert!(!res.done, "first guess in masked mode reveals");
        // Now the access's latency is visible in the window (token slot 1).
        let token = env.token_dim();
        let lat_na = res.obs[token + 2];
        assert_eq!(lat_na, 0.0, "latency revealed after guess intent");
        // Second guess actually terminates.
        let fin = env.step(g, &mut r);
        assert!(fin.done);
    }

    #[test]
    fn two_level_backend_runs_episodes() {
        use autocat_cache::TwoLevelConfig;
        let mut cfg = EnvConfig::new(
            autocat_cache::CacheConfig::direct_mapped(4),
            (4, 11),
            (0, 3),
        );
        cfg.cache = CacheSpec::TwoLevel(TwoLevelConfig::paper_config16());
        let mut env = CacheGuessingGame::new(cfg).unwrap();
        let mut r = rng();
        env.reset(&mut r);
        let res = env.step(0, &mut r);
        assert!(!res.done);
    }

    #[test]
    fn hardware_backend_runs_episodes() {
        let mut cfg = EnvConfig::new(
            autocat_cache::CacheConfig::fully_associative(8),
            HardwareProfile::SkylakeL1.attacker_range(),
            (0, 0),
        );
        cfg.cache = CacheSpec::Hardware(HardwareProfile::SkylakeL1);
        cfg.victim_no_access_enable = true;
        let mut env = CacheGuessingGame::new(cfg).unwrap();
        let mut r = rng();
        env.reset(&mut r);
        let res = env.step(0, &mut r);
        assert!(!res.done);
        assert_eq!(res.reward, env.config().rewards.step);
    }

    use crate::hardware::HardwareProfile;
}
