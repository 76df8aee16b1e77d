//! Table IX: SVM (Cyclone) detection — textbook vs RL baseline vs RL-SVM.

use autocat::attacks::textbook::{run_scripted_multi, TextbookPrimeProbe};
use autocat::cache::CacheConfig;
use autocat::detect::benign::{benign_pattern_suite, generate_trace, BenignWorkload};
use autocat::detect::svm::{cross_validate, SvmTrainConfig};
use autocat::detect::{CycloneFeatures, LinearSvm};
use autocat::gym::{EnvConfig, MultiGuessConfig, MultiGuessEnv};
use autocat::ppo::{Backbone, PpoConfig, Trainer};
use autocat_bench::{play_sampled_episode, print_header, Budget};
use rand::SeedableRng;

fn main() {
    let budget = Budget::from_env();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let features = CycloneFeatures::new(16);
    let cache_cfg = CacheConfig::direct_mapped(4);

    // Build the training set: benign traces (synthetic SPEC substitute) and
    // textbook prime+probe traces.
    let mut data: Vec<(Vec<f32>, i8)> = Vec::new();
    for (a, b) in benign_pattern_suite() {
        for rep in 0..4 {
            let wl = BenignWorkload {
                pattern_a: a,
                pattern_b: b,
                length: 320,
                ..BenignWorkload::default()
            };
            let mut r = rand::rngs::StdRng::seed_from_u64(rep * 97 + 13);
            let trace = generate_trace(&cache_cfg, &wl, &mut r);
            data.push((features.extract(&trace), -1));
        }
    }
    for rep in 0..64 {
        let mut env = MultiGuessEnv::new(MultiGuessConfig::fig3_baseline()).unwrap();
        let mut pp = TextbookPrimeProbe::new(&EnvConfig::prime_probe_dm4(), 4);
        let mut r = rand::rngs::StdRng::seed_from_u64(rep);
        let _ = run_scripted_multi(&mut env, &mut pp, &mut r);
        data.push((features.extract(env.episode_events()), 1));
    }
    let cv = cross_validate(&data, 5, &SvmTrainConfig::default(), &mut rng);
    println!("SVM 5-fold cross-validation accuracy: {cv:.3} (paper: 0.988)");
    let svm = LinearSvm::train(&data, &SvmTrainConfig::default(), &mut rng);

    print_header(
        "Table IX: SVM detection (paper: textbook 0.1625/1.0/0.997, RL baseline 0.228/0.998/0.715, RL SVM 0.168/0.998/0.00333)",
        "Attacker     | Bit rate | Accuracy | Detection rate",
    );

    // Textbook row.
    let eval_eps = 40;
    let mut br = 0.0;
    let mut acc = 0.0;
    let mut det = 0.0;
    for rep in 0..eval_eps {
        let mut env = MultiGuessEnv::new(MultiGuessConfig::fig3_baseline()).unwrap();
        let mut pp = TextbookPrimeProbe::new(&EnvConfig::prime_probe_dm4(), 4);
        let mut r = rand::rngs::StdRng::seed_from_u64(1000 + rep);
        let stats = run_scripted_multi(&mut env, &mut pp, &mut r);
        br += stats.bit_rate();
        acc += stats.accuracy();
        det += f64::from(svm.predict(&features.extract(env.episode_events())) == 1);
    }
    let n = eval_eps as f64;
    println!(
        "{:<12} | {:>8.4} | {:>8.3} | {:>14.4}",
        "textbook",
        br / n,
        acc / n,
        det / n
    );

    // RL baseline (no penalty) and RL SVM (penalized).
    for (label, penalized) in [("RL baseline", false), ("RL SVM", true)] {
        let mut cfg = MultiGuessConfig::fig3_baseline();
        if penalized {
            cfg = cfg.with_svm(svm.clone(), features.clone(), -6.0);
        }
        let env = MultiGuessEnv::new(cfg).unwrap();
        let mut trainer = Trainer::new(
            env,
            Backbone::Mlp {
                hidden: vec![64, 64],
            },
            PpoConfig::small_env(),
            17,
        );
        trainer.train_until(8.0, budget.max_steps());
        let (env, net, r2) = trainer.parts_mut();
        let mut br = 0.0;
        let mut acc = 0.0;
        let mut det = 0.0;
        let eps = 20;
        for _ in 0..eps {
            play_sampled_episode(env, net, r2);
            let stats = env.stats();
            br += stats.bit_rate();
            acc += stats.accuracy();
            det += f64::from(svm.predict(&features.extract(env.episode_events())) == 1);
        }
        let n = eps as f64;
        println!(
            "{:<12} | {:>8.4} | {:>8.3} | {:>14.4}",
            label,
            br / n,
            acc / n,
            det / n
        );
    }
    println!("\n(expected shape: textbook/RL-baseline detected often; RL-SVM detection near zero at some bit-rate cost)");
}
