//! Rollout-throughput benchmark: steps/second collected by the VecEnv
//! engine at different lane counts and `RAYON_NUM_THREADS` settings,
//! against the paper's config 6 environment with the default 2x128 MLP.
//!
//! ```text
//! rollout-bench                        # sweep lanes x threads, print table
//! rollout-bench --write                # also record BENCH_rollout.json
//! rollout-bench --threads-list 1,4
//! ```
//!
//! Lane configurations are measured in interleaved repetitions and the
//! best repetition per configuration is reported, so scheduler noise on a
//! shared machine hits every configuration equally instead of biasing
//! whichever one ran during a slow phase.
//!
//! Each thread count runs in a **child process** (see
//! [`autocat_bench::harness`]; `--child` is the internal
//! single-measurement mode), as in train-bench. Every child also
//! digests the bytes of the batches it collected; for a fixed lane count
//! the collected data must be bit-identical across thread counts, and the
//! harness hard-fails if it is not.
//!
//! `--write` records the results to `BENCH_rollout.json` at the repository
//! root (the committed baseline tracks regressions across PRs).

use autocat::gym::{env::CacheGuessingGame, EnvConfig, VecEnv};
use autocat::nn::models::{MlpConfig, MlpPolicy};
use autocat::nn::state::fnv1a;
use autocat::ppo::rollout::collect;
use autocat_bench::harness::{
    check_digests, fixed, parse_threads_list, run_per_thread, write_bench_json, JsonRow,
};
use autocat_scenario::value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const LANE_CONFIGS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;
const STEPS_PER_REP: usize = 32_768;
const HORIZON: usize = 2048;

struct Harness {
    venv: VecEnv<CacheGuessingGame>,
    net: MlpPolicy,
    rng: StdRng,
}

impl Harness {
    fn new(lanes: usize) -> Self {
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
        let venv = VecEnv::new(lanes, env, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let net = MlpPolicy::new(
            &MlpConfig::new(venv.obs_dim(), venv.num_actions()).with_hidden(vec![128, 128]),
            &mut rng,
        );
        let mut h = Harness { venv, net, rng };
        // Warm-up pass (allocator, caches) before anything is timed.
        let _ = h.run_rep(1024);
        h
    }

    /// Collects ~`steps` transitions, returning (steps, seconds, digest of
    /// the collected batch bytes). The digest covers actions, rewards, and
    /// advantages of every round in order, so any cross-thread-count
    /// nondeterminism in collection or GAE shows up as a digest mismatch.
    fn run_rep(&mut self, steps: usize) -> (usize, f64, u64) {
        let rounds = steps.div_ceil(HORIZON);
        let mut collected = 0usize;
        let mut bytes: Vec<u8> = Vec::new();
        let start = Instant::now();
        for _ in 0..rounds {
            let batch = collect(
                &mut self.venv,
                &mut self.net,
                HORIZON,
                0.99,
                0.95,
                &mut self.rng,
            );
            collected += batch.actions.len();
            for &a in &batch.actions {
                bytes.extend((a as u64).to_le_bytes());
            }
            for &r in &batch.rewards {
                bytes.extend(r.to_le_bytes());
            }
            for &adv in &batch.advantages {
                bytes.extend(adv.to_le_bytes());
            }
        }
        let secs = start.elapsed().as_secs_f64();
        (collected, secs, fnv1a(bytes))
    }
}

struct Args {
    threads_list: Vec<usize>,
    child: bool,
    write: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        threads_list: vec![1, 2, 4, 8],
        child: false,
        write: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--child" => args.child = true,
            "--write" => args.write = true,
            "--threads-list" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--threads-list requires a value".to_string())?;
                args.threads_list = parse_threads_list(&value)?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// One full lane sweep in this process, best-of-REPS interleaved; prints
/// one `rollout-bench-result` line per lane configuration.
fn run_child() {
    let mut harnesses: Vec<Harness> = LANE_CONFIGS.iter().map(|&l| Harness::new(l)).collect();
    let mut best = vec![(0usize, f64::INFINITY); LANE_CONFIGS.len()];
    // The RNG stream advances across repetitions, so each rep collects
    // (deterministically) different data. The reported digest therefore
    // folds every rep's digest in order — it must not depend on which rep
    // happened to be fastest, or the cross-thread-count gate would compare
    // timing-selected samples instead of the full deterministic stream.
    let mut digests = vec![Vec::<u8>::new(); LANE_CONFIGS.len()];
    for _ in 0..REPS {
        for (i, h) in harnesses.iter_mut().enumerate() {
            let (steps, secs, digest) = h.run_rep(STEPS_PER_REP);
            digests[i].extend(digest.to_le_bytes());
            let (best_steps, best_secs) = best[i];
            if secs / (steps.max(1) as f64) < best_secs / (best_steps.max(1) as f64) {
                best[i] = (steps, secs);
            }
        }
    }
    for ((lanes, (steps, secs)), bytes) in LANE_CONFIGS.iter().zip(best).zip(digests) {
        let digest = fnv1a(bytes);
        println!(
            "rollout-bench-result lanes={lanes} steps={steps} secs={secs:.6} digest={digest:016x}"
        );
    }
}

/// Re-executes this binary once per thread count, prints the table, gates
/// the per-lane-count digests and, on `--write`, records
/// `BENCH_rollout.json`.
fn run_parent(args: &Args) -> Result<(), String> {
    println!(
        "rollout throughput (config 6, MLP 2x128, horizon {HORIZON}, best of {REPS} \
         interleaved reps per thread count)"
    );
    let children = run_per_thread(
        &args.threads_list,
        &["--child".to_string()],
        "rollout-bench-result",
    )?;

    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>14} {:>9}  digest",
        "threads", "lanes", "steps", "secs", "steps/sec", "speedup"
    );
    let mut digests = Vec::new();
    let mut results: Vec<JsonRow> = Vec::new();
    let mut base = None;
    for (threads, lines) in &children {
        for line in lines {
            let lanes: usize = line.num("lanes")?;
            let (steps, secs) = (line.num::<usize>("steps")?, line.num::<f64>("secs")?);
            let digest = line.hex("digest")?;
            let sps = steps as f64 / secs;
            let base = *base.get_or_insert(sps);
            println!(
                "{:>8} {:>6} {:>10} {:>10.3} {:>14.0} {:>8.2}x  {:016x}",
                threads,
                lanes,
                steps,
                secs,
                sps,
                sps / base,
                digest
            );
            digests.push((*threads, lanes, digest));
            results.push(vec![
                ("threads", Value::Int(*threads as i64)),
                ("lanes", Value::Int(lanes as i64)),
                ("steps", Value::Int(steps as i64)),
                ("secs", fixed(secs, 4)),
                ("steps_per_sec", fixed(sps, 1)),
                ("digest", Value::Str(format!("{digest:016x}"))),
            ]);
        }
    }
    // The determinism gate: for each lane count, every thread count must
    // have collected bit-identical batches.
    check_digests("lane count", digests).map_err(|e| format!("collected batches: {e}"))?;
    println!(
        "determinism: batch digests bit-identical across {} thread count(s) at every lane count",
        children.len()
    );

    if args.write {
        write_bench_json(
            "BENCH_rollout.json",
            &[
                ("benchmark", Value::Str("rollout_throughput".into())),
                ("env", Value::Str("flush_reload_fa4".into())),
                ("backbone", Value::Str("mlp_128x128".into())),
                ("horizon", Value::Int(HORIZON as i64)),
                ("reps", Value::Int(REPS as i64)),
            ],
            &[("results", &results)],
        )?;
    }
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: rollout-bench [--threads-list 1,2,4,8] [--write]");
        std::process::exit(2);
    });
    if args.child {
        run_child();
    } else if let Err(e) = run_parent(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
