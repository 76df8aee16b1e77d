//! Table VIII: bit rate / accuracy / max autocorrelation for textbook,
//! RL-baseline and RL-autocor agents (CC-Hunter bypass).

use autocat::attacks::textbook::{run_scripted_multi, TextbookPrimeProbe};
use autocat::gym::{EnvConfig, MultiGuessConfig, MultiGuessEnv};
use autocat::ppo::{Backbone, PpoConfig, Trainer};
use autocat_bench::{play_sampled_episode, print_header, Budget};
use rand::SeedableRng;

fn eval_rl(trainer: &mut Trainer<MultiGuessEnv>, episodes: usize) -> (f64, f64, f64) {
    let (env, net, rng) = trainer.parts_mut();
    let mut bit_rate = 0.0;
    let mut acc = 0.0;
    let mut max_ac = 0.0;
    for _ in 0..episodes {
        play_sampled_episode(env, net, rng);
        let stats = env.stats();
        bit_rate += stats.bit_rate();
        acc += stats.accuracy();
        max_ac += stats.max_autocorr;
    }
    let n = episodes as f64;
    (bit_rate / n, acc / n, max_ac / n)
}

fn main() {
    let budget = Budget::from_env();
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    print_header(
        "Table VIII: CC-Hunter bypass (paper: textbook 0.1625/1.0/0.973, RL baseline 0.229/0.989/0.933, RL autocor 0.216/0.997/0.519)",
        "Attack       | Bit rate (guess/step) | Accuracy | Avg max autocor",
    );

    // Textbook row (averaged over episodes).
    let mut br = 0.0;
    let mut acc = 0.0;
    let mut mac = 0.0;
    let eps = 50;
    for _ in 0..eps {
        let mut env =
            MultiGuessEnv::new(MultiGuessConfig::fig3_baseline().with_autocorr(-0.0, 30)).unwrap();
        let mut pp = TextbookPrimeProbe::new(&EnvConfig::prime_probe_dm4(), 4);
        let stats = run_scripted_multi(&mut env, &mut pp, &mut rng);
        br += stats.bit_rate();
        acc += stats.accuracy();
        mac += stats.max_autocorr;
    }
    println!(
        "{:<12} | {:>21.4} | {:>8.3} | {:>15.3}",
        "textbook",
        br / eps as f64,
        acc / eps as f64,
        mac / eps as f64
    );

    for (label, autocor_weight) in [("RL baseline", 0.0f32), ("RL autocor", -8.0)] {
        let mut cfg = MultiGuessConfig::fig3_baseline();
        if autocor_weight != 0.0 {
            cfg = cfg.with_autocorr(autocor_weight, 30);
        } else {
            cfg = cfg.with_autocorr(-0.0, 30); // track autocorr without penalty
        }
        let env = MultiGuessEnv::new(cfg).unwrap();
        let mut trainer = Trainer::new(
            env,
            Backbone::Mlp {
                hidden: vec![64, 64],
            },
            PpoConfig::small_env(),
            11,
        );
        trainer.train_until(8.0, budget.max_steps());
        let (bit_rate, accuracy, max_ac) = eval_rl(&mut trainer, 20);
        println!(
            "{:<12} | {:>21.4} | {:>8.3} | {:>15.3}",
            label, bit_rate, accuracy, max_ac
        );
    }
    println!("\n(expected shape: RL agents beat the textbook bit rate; RL autocor has much lower max autocorrelation)");
}
