//! Cross-crate integration tests: the full train → evaluate → classify
//! pipeline, scripted-attack oracles, detectors in the loop, and the
//! covert-channel stack.

use autocat::attacks::classify::AttackCategory;
use autocat::attacks::stealthy::StealthyStreamline;
use autocat::attacks::textbook::{
    run_scripted, run_scripted_multi, ScriptedAttacker, TextbookFlushReload, TextbookPrimeProbe,
};
use autocat::cache::{CacheConfig, PolicyKind};
use autocat::detect::{AutocorrDetector, CycloneFeatures, MissCountDetector};
use autocat::gym::{
    env::Secret, Action, CacheGuessingGame, EnvConfig, Environment, MonitorSpec, MultiGuessConfig,
    MultiGuessEnv,
};
use autocat::ppo::{Backbone, PpoConfig, Trainer};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// The headline end-to-end claim: PPO discovers a working flush+reload
/// attack on config 6 and the classifier recognizes it.
///
/// This is the repository's one intentionally-slow test (~1-2 minutes in
/// release, a few in debug); it exercises every crate at once.
#[test]
fn rl_discovers_flush_reload_on_config6() {
    let mut scenario = autocat_scenario::Scenario::new(
        "config6",
        "FR",
        EnvConfig::flush_reload_fa4().with_window(12),
    );
    scenario.train.seed = 1;
    scenario.train.max_steps = 250_000;
    scenario.train.return_threshold = 0.85;
    let row = scenario.run().expect("valid config");
    assert!(
        row.converged,
        "PPO must converge on config 6 within 250k steps"
    );
    assert!(
        row.accuracy() > 0.95,
        "converged policy must guess accurately, got {}",
        row.accuracy()
    );
    let expected = [
        AttackCategory::FlushReload,
        AttackCategory::EvictReload,
        AttackCategory::LruBased,
    ];
    assert!(
        expected.iter().any(|c| c.to_string() == row.category),
        "expected a shared-memory or LRU-state attack, got {} ({}; census {})",
        row.category,
        row.sequence,
        row.census
    );
    // The representative sequence must trigger the victim and end with a
    // guess.
    let actions: Vec<&str> = row.sequence.split(" -> ").collect();
    assert!(actions.contains(&"v"), "{}", row.sequence);
    assert!(
        actions.last().is_some_and(|a| a.starts_with('g')),
        "{}",
        row.sequence
    );
}

#[test]
fn scripted_attacks_are_oracles_on_their_configs() {
    let mut r = rng(2);
    let cfg = EnvConfig::prime_probe_dm4();
    let mut env = CacheGuessingGame::new(cfg.clone()).unwrap();
    let mut pp = TextbookPrimeProbe::new(&cfg, 4);
    let (correct, _) = run_scripted(&mut env, &mut pp, 30, &mut r);
    assert_eq!(correct, 30);

    let cfg = EnvConfig::flush_reload_fa4();
    let mut env = CacheGuessingGame::new(cfg.clone()).unwrap();
    let mut fr = TextbookFlushReload::new(&cfg);
    let (correct, _) = run_scripted(&mut env, &mut fr, 30, &mut r);
    assert_eq!(correct, 30);
}

#[test]
fn miss_detection_blocks_prime_probe_but_not_lru_state() {
    let mut r = rng(3);
    // Prime+probe forces victim misses: with detection on, a textbook PP
    // episode terminates as detected.
    let cfg = EnvConfig::prime_probe_dm4().with_detection(MonitorSpec::strict_miss());
    let mut env = CacheGuessingGame::new(cfg.clone()).unwrap();
    let mut pp = TextbookPrimeProbe::new(&cfg, 4);
    env.reset(&mut r);
    pp.begin();
    let mut last = None;
    let detected = loop {
        let action = pp.decide(last);
        let idx = env.action_space().encode(action).unwrap();
        let res = env.step(idx, &mut r);
        last = env.history().last().map(|h| h.latency);
        if res.done {
            break res.info.detected;
        }
    };
    assert!(
        detected,
        "textbook prime+probe must trip miss-based detection"
    );

    // StealthyStreamline's victim never misses.
    let ss = StealthyStreamline::new(8, PolicyKind::Lru, 2);
    assert_eq!(ss.victim_misses_during(&[0, 1, 2, 3, 0, 2]), 0);
}

#[test]
fn autocorr_detector_flags_textbook_pp_episode() {
    let mut r = rng(4);
    let mut env = MultiGuessEnv::new(MultiGuessConfig::fig3_baseline()).unwrap();
    let mut pp = TextbookPrimeProbe::new(&EnvConfig::prime_probe_dm4(), 4);
    let stats = run_scripted_multi(&mut env, &mut pp, &mut r);
    assert!(stats.accuracy() > 0.9);
    let mut det = AutocorrDetector::default();
    det.observe_all(env.episode_events().iter());
    assert!(
        det.is_attack(),
        "CC-Hunter must flag a textbook PP train (C = {})",
        det.max_autocorrelation()
    );
}

#[test]
fn cyclone_features_separate_attack_from_benign() {
    use autocat::detect::benign::{generate_trace, BenignWorkload};
    let mut r = rng(5);
    let features = CycloneFeatures::new(16);
    // Attack trace.
    let mut env = MultiGuessEnv::new(MultiGuessConfig::fig3_baseline()).unwrap();
    let mut pp = TextbookPrimeProbe::new(&EnvConfig::prime_probe_dm4(), 4);
    let _ = run_scripted_multi(&mut env, &mut pp, &mut r);
    let attack_cycles: f32 = features.extract(env.episode_events()).iter().sum();
    // Benign trace of the same cache.
    let benign_trace = generate_trace(
        &CacheConfig::direct_mapped(4),
        &BenignWorkload::default(),
        &mut r,
    );
    let benign_cycles: f32 = features.extract(&benign_trace).iter().sum();
    assert!(
        attack_cycles > 3.0 * benign_cycles.max(1.0),
        "attack cycles {attack_cycles} must dominate benign {benign_cycles}"
    );
}

#[test]
fn covert_channel_transmits_through_the_cache_model() {
    let ss = StealthyStreamline::new(12, PolicyKind::Lru, 2);
    let msg: Vec<u64> = (0..40).map(|i| (i * 7) % 4).collect();
    let decoded = ss.transmit(&msg, || false);
    let ok = msg
        .iter()
        .zip(decoded.iter())
        .filter(|(m, d)| **d == Some(**m))
        .count();
    assert_eq!(ok, msg.len(), "noiseless 12-way channel must be perfect");
}

#[test]
fn forced_secrets_enable_side_channel_replay() {
    // Using the env as a covert-channel: force each secret, run the
    // textbook attacker, and confirm the guess equals the forced secret.
    let cfg = EnvConfig::prime_probe_dm4();
    let mut env = CacheGuessingGame::new(cfg.clone()).unwrap();
    let mut pp = TextbookPrimeProbe::new(&cfg, 4);
    let mut r = rng(6);
    for secret in 0..4u64 {
        env.force_secret(Some(Secret::Addr(secret)));
        let (correct, _) = run_scripted(&mut env, &mut pp, 3, &mut r);
        assert_eq!(correct, 3, "secret {secret} must be recovered every time");
    }
}

#[test]
fn trainer_runs_on_multi_guess_env() {
    let env = MultiGuessEnv::new(MultiGuessConfig::fig3_baseline()).unwrap();
    let mut t = Trainer::new(
        env,
        Backbone::Mlp { hidden: vec![32] },
        PpoConfig {
            horizon: 320,
            minibatch: 64,
            epochs_per_update: 2,
            ..PpoConfig::default()
        },
        7,
    );
    let stats = t.train_update().unwrap();
    assert!(
        stats.episodes.count >= 2,
        "two 160-step episodes fit in 320 steps"
    );
}

#[test]
fn miss_detector_consumes_env_events() {
    let mut r = rng(8);
    let cfg = EnvConfig::prime_probe_dm4();
    let mut env = CacheGuessingGame::new(cfg.clone()).unwrap();
    env.force_secret(Some(Secret::Addr(0)));
    env.reset(&mut r);
    let mut det = MissCountDetector::strict();
    // Prime set 0 so the victim's access conflicts, then trigger.
    env.step(
        env.action_space().encode(Action::Access(4)).unwrap(),
        &mut r,
    );
    env.step(
        env.action_space().encode(Action::TriggerVictim).unwrap(),
        &mut r,
    );
    det.observe_all(env.drain_events().iter());
    assert!(det.is_attack());
}
