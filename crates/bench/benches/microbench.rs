//! Criterion micro-benchmarks for the AutoCAT substrate.
//!
//! These measure the building blocks whose throughput determines how fast
//! the table/figure harnesses (and RL training generally) run: cache
//! accesses per replacement policy, environment steps, network
//! forward/backward passes, a full PPO update, detector feature extraction
//! and the covert-channel transmission loop.

use autocat::attacks::stealthy::StealthyStreamline;
use autocat::attacks::{ChannelKind, CovertChannelModel, MachineModel};
use autocat::cache::{Cache, CacheConfig, Domain, PolicyKind};
use autocat::detect::{CycloneFeatures, EventTrain};
use autocat::gym::{env::CacheGuessingGame, EnvConfig, Environment};
use autocat::nn::models::{
    MlpConfig, MlpPolicy, PolicyValueNet, TransformerConfig, TransformerPolicy,
};
use autocat::nn::Matrix;
use autocat::ppo::{Backbone, PpoConfig, Trainer};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn bench_cache_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    group
        .measurement_time(Duration::from_secs(1))
        .sample_size(30);
    for policy in [
        PolicyKind::Lru,
        PolicyKind::Plru,
        PolicyKind::Rrip,
        PolicyKind::Random,
    ] {
        group.bench_function(policy.name(), |b| {
            let mut cache = Cache::new(CacheConfig::new(8, 8).with_policy(policy));
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            b.iter(|| {
                let addr = rng.gen_range(0..256u64);
                cache.access(addr, Domain::Attacker)
            });
        });
    }
    group.finish();
}

fn bench_env_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("env");
    group
        .measurement_time(Duration::from_secs(1))
        .sample_size(30);
    group.bench_function("guessing_game_step", |b| {
        let mut env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        env.reset(&mut rng);
        let n = env.num_actions();
        b.iter(|| {
            // Avoid guess actions so episodes stay alive; reset when done.
            let a = rng.gen_range(0..n.min(4));
            let r = env.step(a, &mut rng);
            if r.done {
                env.reset(&mut rng);
            }
            r.reward
        });
    });
    group.finish();
}

fn bench_nn(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn");
    group
        .measurement_time(Duration::from_secs(1))
        .sample_size(30);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut mlp = MlpPolicy::new(&MlpConfig::new(256, 11), &mut rng);
    let obs = Matrix::full(32, 256, 0.3);
    group.bench_function("mlp_forward_batch32", |b| {
        b.iter(|| mlp.forward_inference(&obs));
    });
    group.bench_function("mlp_train_batch32", |b| {
        b.iter(|| {
            mlp.zero_grad();
            mlp.train_batch(&obs, &mut |_, logits, _| (vec![0.01; logits.len()], 0.01));
        });
    });
    let tcfg = TransformerConfig::new(16, 16, 11).with_dims(32, 4, 64);
    let tf = TransformerPolicy::new(&tcfg, &mut rng);
    let tobs = Matrix::full(8, tcfg.obs_dim(), 0.3);
    group.bench_function("transformer_forward_batch8", |b| {
        b.iter(|| tf.forward_inference(&tobs));
    });
    group.finish();
}

fn bench_rollout_lanes(c: &mut Criterion) {
    // The VecEnv engine's reason to exist: collecting a fixed number of
    // transitions must get cheaper per transition as lanes are added,
    // because N lanes share one batched forward per step.
    use autocat::gym::VecEnv;
    use autocat::ppo::rollout::collect;
    let mut group = c.benchmark_group("rollout");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    for lanes in [1usize, 8] {
        group.bench_function(&format!("collect_512_steps_{lanes}_lane"), |b| {
            let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
            let mut venv = VecEnv::new(lanes, env, 7).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut net = MlpPolicy::new(
                &MlpConfig::new(venv.obs_dim(), venv.num_actions()).with_hidden(vec![64, 64]),
                &mut rng,
            );
            b.iter(|| collect(&mut venv, &mut net, 512, 0.99, 0.95, &mut rng));
        });
    }
    group.finish();
}

fn bench_ppo_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppo");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    group.bench_function("update_256_steps", |b| {
        b.iter_batched(
            || {
                let env =
                    CacheGuessingGame::new(EnvConfig::flush_reload_fa4().with_window(8)).unwrap();
                Trainer::new(
                    env,
                    Backbone::Mlp { hidden: vec![32] },
                    PpoConfig {
                        horizon: 256,
                        minibatch: 64,
                        epochs_per_update: 2,
                        ..PpoConfig::default()
                    },
                    0,
                )
            },
            |mut t| t.train_update(),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect");
    group
        .measurement_time(Duration::from_secs(1))
        .sample_size(30);
    // Build a realistic event log once.
    let mut cache = Cache::new(CacheConfig::direct_mapped(4));
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    for _ in 0..2000 {
        let domain = if rng.gen_bool(0.5) {
            Domain::Attacker
        } else {
            Domain::Victim
        };
        cache.access(rng.gen_range(0..16u64), domain);
    }
    let events = cache.drain_events();
    group.bench_function("autocorrelogram_lag30", |b| {
        let train = EventTrain::from_events(events.iter());
        b.iter(|| train.autocorrelogram(30));
    });
    group.bench_function("cyclone_features", |b| {
        let fx = CycloneFeatures::new(16);
        b.iter(|| fx.extract(&events));
    });
    group.finish();
}

fn bench_channel(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel");
    group
        .measurement_time(Duration::from_secs(1))
        .sample_size(20);
    group.bench_function("ss_transmit_64_symbols", |b| {
        let ss = StealthyStreamline::new(8, PolicyKind::Lru, 2);
        let symbols: Vec<u64> = (0..64).map(|i| i % 4).collect();
        b.iter(|| ss.transmit(&symbols, || false));
    });
    group.bench_function("operating_point_sweep", |b| {
        let m = MachineModel::core_i7_6700();
        let model = CovertChannelModel::new(m, ChannelKind::StealthyStreamline2);
        b.iter(|| model.sweep(&[0.9, 1.0, 1.1], 20, 1));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_policies,
    bench_env_step,
    bench_nn,
    bench_rollout_lanes,
    bench_ppo_update,
    bench_detectors,
    bench_channel
);
criterion_main!(benches);
