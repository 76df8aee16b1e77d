//! Fig. 3: conflict-miss event trains and autocorrelograms for the
//! textbook, RL-baseline and RL-autocor agents.
//!
//! `--cache DIR` keeps the two RL agents' checkpoints under `DIR`
//! (`fig3-<label>.ckpt.bin`): present checkpoints are loaded through the
//! binary fast path (JSON files from older runs decode too — the loader
//! sniffs the codec) instead of retraining, so iterating on the figure's
//! rendering no longer pays two training runs per invocation.

use autocat::attacks::textbook::{run_scripted_multi, TextbookPrimeProbe};
use autocat::detect::EventTrain;
use autocat::gym::{EnvConfig, MultiGuessConfig, MultiGuessEnv};
use autocat::ppo::{eval, Backbone, PpoConfig, Trainer};
use autocat_bench::{play_sampled_episode, print_header, Budget};
use rand::SeedableRng;

/// Returns the RL agent for one figure lane: loaded from the cache
/// directory when a checkpoint is present, freshly trained (and cached)
/// otherwise.
fn trained_agent(
    label: &str,
    env: MultiGuessEnv,
    budget: Budget,
    cache: Option<&str>,
) -> Result<Trainer<MultiGuessEnv>, String> {
    let path = cache.map(|dir| std::path::Path::new(dir).join(format!("fig3-{label}.ckpt.bin")));
    if let Some(path) = path.as_ref().filter(|p| p.exists()) {
        eprintln!("fig3: loading {label} from {}", path.display());
        return Trainer::load_checkpoint(path, env);
    }
    let mut trainer = Trainer::new(
        env,
        Backbone::Mlp {
            hidden: vec![64, 64],
        },
        PpoConfig::small_env(),
        7,
    );
    trainer.train_until(8.0, budget.max_steps());
    if let Some(path) = path {
        trainer.save_checkpoint(&path)?;
        eprintln!("fig3: cached {label} at {}", path.display());
    }
    Ok(trainer)
}

fn render_train(label: &str, train: &EventTrain) {
    let bits: String = train
        .as_slice()
        .iter()
        .take(60)
        .map(|&b| if b == 1 { '#' } else { '.' })
        .collect();
    println!("{label:<12} A->V(#) V->A(.): {bits}");
}

fn render_autocorrelogram(label: &str, train: &EventTrain) {
    let gram = train.autocorrelogram(30);
    let line: String = gram
        .iter()
        .map(|&c| {
            if c > 0.75 {
                '!'
            } else if c > 0.3 {
                '+'
            } else if c > -0.3 {
                '.'
            } else {
                '-'
            }
        })
        .collect();
    println!(
        "{label:<12} C_p lags 0..30: {line}  (max C_p>=1: {:.3})",
        train.max_autocorrelation(30)
    );
}

fn main() {
    let budget = Budget::from_env();
    let mut cache = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--cache" => match it.next() {
                Some(dir) => cache = Some(dir),
                None => {
                    eprintln!("error: --cache requires a value");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown flag `{other}`\nusage: fig3 [--cache DIR]");
                std::process::exit(2);
            }
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    print_header("Fig. 3: event trains and autocorrelograms", "");

    // Textbook prime+probe.
    let mut env = MultiGuessEnv::new(MultiGuessConfig::fig3_baseline()).unwrap();
    let mut pp = TextbookPrimeProbe::new(&EnvConfig::prime_probe_dm4(), 4);
    let _ = run_scripted_multi(&mut env, &mut pp, &mut rng);
    let train = EventTrain::from_events(env.episode_events().iter());
    render_train("textbook", &train);
    render_autocorrelogram("textbook", &train);

    // RL baseline and RL autocor.
    for (label, autocor) in [("RL_baseline", false), ("RL_autocor", true)] {
        let mut cfg = MultiGuessConfig::fig3_baseline();
        if autocor {
            cfg = cfg.with_autocorr(-8.0, 30);
        }
        let env = MultiGuessEnv::new(cfg).unwrap();
        let mut trainer = match trained_agent(label, env, budget, cache.as_deref()) {
            Ok(trainer) => trainer,
            Err(e) => {
                eprintln!("error: {label}: {e}");
                std::process::exit(1);
            }
        };
        let (env, net, rng2) = trainer.parts_mut();
        // Evaluate the trained agent and *report* the stats (this call
        // used to be discarded, silently serving only to advance the RNG
        // stream); the agent's quality contextualizes its event train. One
        // lane replays the serial evaluator's RNG stream bit for bit.
        let stats = eval::evaluate_batched(&*env, net, 20, 1, false, rng2).stats;
        println!(
            "{label:<12} eval over {} episodes: avg return {:.2}, avg length {:.1}, \
             detection rate {:.2}",
            stats.episodes,
            stats.avg_return,
            stats.avg_length,
            stats.detection_rate()
        );
        // One more full episode to read its event log.
        play_sampled_episode(env, net, rng2);
        let train = EventTrain::from_events(env.episode_events().iter());
        render_train(label, &train);
        render_autocorrelogram(label, &train);
    }
    println!("\n(expected shape: textbook & RL_baseline periodic (max C > 0.75); RL_autocor below threshold)");
}
