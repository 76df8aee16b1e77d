//! End-to-end training throughput benchmark: PPO steps/second (rollout
//! collection **and** optimization) at several `RAYON_NUM_THREADS`
//! settings, on a registry scenario (default `table4-6`, the paper's
//! flush+reload row).
//!
//! ```text
//! train-bench                          # sweep 1/2/4/8 threads, print table
//! train-bench --write                  # also record BENCH_train.json
//! train-bench --steps 32768 --lanes 8 --shards 8 --threads-list 1,4
//! ```
//!
//! Each thread count is measured in a **child process** (see
//! [`autocat_bench::harness`]; `--child` is the internal
//! single-measurement mode, which the cross-thread-count determinism test
//! drives directly). The workload — scenario, steps, lanes, gradient
//! shards, seed — is identical across children; only the pool size varies.
//! The final-weight digests of all children must be bit-identical, and the
//! harness hard-fails if they are not.

use autocat::nn::state::params_digest;
use autocat::ppo::Trainer;
use autocat_bench::harness::{
    check_digests, fixed, parse_threads_list, run_per_thread, write_bench_json, JsonRow,
};
use autocat_scenario::run::TrainOverrides;
use autocat_scenario::value::Value;
use std::time::Instant;

struct Args {
    overrides: TrainOverrides,
    scenario: String,
    threads_list: Vec<usize>,
    child: bool,
    write: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        overrides: TrainOverrides::default(),
        scenario: "table4-6".to_string(),
        threads_list: vec![1, 2, 4, 8],
        child: false,
        write: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        if args.overrides.try_parse(&flag, &mut value)? {
            continue;
        }
        match flag.as_str() {
            "--child" => args.child = true,
            "--write" => args.write = true,
            "--scenario" => args.scenario = value("--scenario")?,
            "--threads-list" => args.threads_list = parse_threads_list(&value("--threads-list")?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // The thread count is this harness's sweep axis, one child process per
    // value; a single `--threads` override would be silently meaningless.
    if args.overrides.threads.is_some() {
        return Err("train-bench sweeps thread counts; use --threads-list, not --threads".into());
    }
    Ok(args)
}

fn usage() -> ! {
    eprintln!(
        "usage: train-bench [--scenario NAME] [--steps N] [--seed N] [--lanes N] \
         [--shards N] [--threads-list 1,2,4,8] [--write]"
    );
    std::process::exit(2);
}

/// Benchmark defaults when the shared override flags are absent: a
/// workload wide enough to occupy 8 workers in both phases.
fn apply_defaults(overrides: &mut TrainOverrides) {
    overrides.steps = overrides.steps.or(Some(16_384));
    overrides.lanes = overrides.lanes.or(Some(8));
    overrides.shards = overrides.shards.or(Some(8));
    overrides.seed = overrides.seed.or(Some(7));
}

/// One measurement in this process: train the scenario to its step budget
/// and print the `train-bench-result` line.
fn run_child(args: &Args) -> Result<(), String> {
    let mut scenario = autocat_scenario::lookup(&args.scenario).ok_or_else(|| {
        format!(
            "unknown scenario `{}` (try scenario-run --list)",
            args.scenario
        )
    })?;
    args.overrides.apply(&mut scenario);
    let env = scenario.build_env()?;
    let mut trainer = Trainer::new(
        env,
        scenario.train.backbone.clone(),
        scenario.train.ppo,
        scenario.train.seed,
    );
    let start = Instant::now();
    // Drive plain updates (no convergence early-exit): every child must
    // perform the identical amount of work.
    while trainer.total_steps() < scenario.train.max_steps {
        trainer.train_update().map_err(|e| e.to_string())?;
    }
    let secs = start.elapsed().as_secs_f64();
    let digest = params_digest(trainer.net_mut());
    let steps = trainer.total_steps();
    println!("train-bench-result steps={steps} secs={secs:.6} digest={digest:016x}");
    Ok(())
}

/// Re-executes this binary once per thread count, prints the table, gates
/// the digests and, on `--write`, records `BENCH_train.json`.
fn run_parent(args: &Args) -> Result<(), String> {
    let overrides = &args.overrides;
    println!(
        "end-to-end training throughput: {} (steps {}, lanes {}, shards {}, seed {})",
        args.scenario,
        overrides.steps.unwrap_or(0),
        overrides.lanes.unwrap_or(1),
        overrides.shards.unwrap_or(1),
        overrides.seed.unwrap_or(0),
    );
    let mut child_args = vec![
        "--child".to_string(),
        "--scenario".into(),
        args.scenario.clone(),
    ];
    for (flag, value) in [
        ("--steps", overrides.steps.map(|v| v as usize)),
        ("--seed", overrides.seed.map(|v| v as usize)),
        ("--lanes", overrides.lanes),
        ("--shards", overrides.shards),
    ] {
        if let Some(v) = value {
            child_args.extend([flag.to_string(), v.to_string()]);
        }
    }
    let children = run_per_thread(&args.threads_list, &child_args, "train-bench-result")?;

    println!(
        "{:>8} {:>10} {:>10} {:>14} {:>9}  digest",
        "threads", "steps", "secs", "steps/sec", "speedup"
    );
    let mut digests = Vec::new();
    let mut results: Vec<JsonRow> = Vec::new();
    let mut base = None;
    for (threads, lines) in &children {
        let (steps, secs) = (lines[0].num::<u64>("steps")?, lines[0].num::<f64>("secs")?);
        let digest = lines[0].hex("digest")?;
        let sps = steps as f64 / secs;
        let base = *base.get_or_insert(sps);
        println!(
            "{:>8} {:>10} {:>10.3} {:>14.0} {:>8.2}x  {:016x}",
            threads,
            steps,
            secs,
            sps,
            sps / base,
            digest
        );
        digests.push((*threads, &args.scenario, digest));
        results.push(vec![
            ("threads", Value::Int(*threads as i64)),
            ("steps", Value::Int(steps as i64)),
            ("secs", fixed(secs, 4)),
            ("steps_per_sec", fixed(sps, 1)),
            ("digest", Value::Str(format!("{digest:016x}"))),
        ]);
    }
    // The determinism gate: same workload, different pool sizes, same
    // final weights — bit for bit.
    check_digests("scenario", digests).map_err(|e| format!("final weights: {e}"))?;
    println!("determinism: all {} digests bit-identical", children.len());

    if args.write {
        write_bench_json(
            "BENCH_train.json",
            &[
                ("benchmark", Value::Str("train_throughput".into())),
                ("scenario", Value::Str(args.scenario.clone())),
                ("steps", Value::Int(overrides.steps.unwrap_or(0) as i64)),
                ("lanes", Value::Int(overrides.lanes.unwrap_or(1) as i64)),
                (
                    "grad_shards",
                    Value::Int(overrides.shards.unwrap_or(1) as i64),
                ),
            ],
            &[("results", &results)],
        )?;
    }
    Ok(())
}

fn main() {
    let mut args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage();
    });
    // The parent resolves the workload and hands it to every child; fill
    // the gaps here so a child invoked by hand gets the same defaults.
    apply_defaults(&mut args.overrides);
    let result = if args.child {
        run_child(&args)
    } else {
        run_parent(&args)
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
