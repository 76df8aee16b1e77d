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
//! The vendored rayon shim sizes its pool once per process from
//! `RAYON_NUM_THREADS`, so each thread count is measured in a **child
//! process** (`--child` is the internal single-measurement mode; the
//! cross-thread-count determinism test drives it directly). The workload —
//! scenario, steps, lanes, gradient shards, seed — is identical across
//! children; only the pool size varies. That makes the sweep double as a
//! determinism gate: the final-weight digests of all children must be
//! bit-identical, and the harness hard-fails if they are not.

use autocat::nn::state::params_digest;
use autocat::ppo::Trainer;
use autocat_scenario::run::TrainOverrides;
use std::process::Command;
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
            "--threads-list" => {
                args.threads_list = value("--threads-list")?
                    .split(',')
                    .map(|t| match t.trim().parse::<usize>() {
                        // The rayon shim treats 0 as "unset" and falls back
                        // to all cores; a row labeled 0 would be a lie.
                        Ok(0) | Err(_) => Err(format!("bad thread count `{t}`")),
                        Ok(n) => Ok(n),
                    })
                    .collect::<Result<_, _>>()?;
                if args.threads_list.is_empty() {
                    return Err("--threads-list needs at least one entry".into());
                }
            }
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

/// One measurement in this process: train the scenario to its step budget,
/// report `(steps, secs, final-weight digest)`.
fn run_child(args: &Args) -> Result<(u64, f64, u64), String> {
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
        trainer.train_update();
    }
    let secs = start.elapsed().as_secs_f64();
    let digest = params_digest(trainer.net_mut());
    Ok((trainer.total_steps(), secs, digest))
}

struct Row {
    threads: usize,
    steps: u64,
    secs: f64,
    digest: u64,
}

/// Re-executes this binary once per thread count and parses the child's
/// result line.
fn run_parent(args: &Args) -> Result<Vec<Row>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut rows = Vec::new();
    for &threads in &args.threads_list {
        let mut cmd = Command::new(&exe);
        cmd.arg("--child")
            .args(["--scenario", &args.scenario])
            .env("RAYON_NUM_THREADS", threads.to_string());
        for (flag, value) in [
            ("--steps", args.overrides.steps.map(|v| v as usize)),
            ("--seed", args.overrides.seed.map(|v| v as usize)),
            ("--lanes", args.overrides.lanes),
            ("--shards", args.overrides.shards),
        ] {
            if let Some(v) = value {
                cmd.args([flag, &v.to_string()]);
            }
        }
        let out = cmd
            .output()
            .map_err(|e| format!("spawning child for {threads} thread(s): {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "child for {threads} thread(s) failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("train-bench-result"))
            .ok_or_else(|| format!("child for {threads} thread(s) printed no result line"))?;
        let mut steps = None;
        let mut secs = None;
        let mut digest = None;
        for field in line.split_whitespace().skip(1) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("bad result field `{field}`"))?;
            match key {
                "steps" => steps = value.parse::<u64>().ok(),
                "secs" => secs = value.parse::<f64>().ok(),
                "digest" => digest = u64::from_str_radix(value, 16).ok(),
                _ => {}
            }
        }
        match (steps, secs, digest) {
            (Some(steps), Some(secs), Some(digest)) => rows.push(Row {
                threads,
                steps,
                secs,
                digest,
            }),
            _ => return Err(format!("unparseable child result `{line}`")),
        }
    }
    Ok(rows)
}

fn write_json(args: &Args, rows: &[Row]) -> std::io::Result<()> {
    let overrides = &args.overrides;
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"steps\": {}, \"secs\": {:.4}, \"steps_per_sec\": {:.1}, \"digest\": \"{:016x}\"}}",
                r.threads,
                r.steps,
                r.secs,
                r.steps as f64 / r.secs,
                r.digest
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"train_throughput\",\n  \"scenario\": \"{}\",\n  \"steps\": {},\n  \"lanes\": {},\n  \"grad_shards\": {},\n  \"available_cpus\": {cpus},\n  \"results\": [\n{}\n  ]\n}}\n",
        args.scenario,
        overrides.steps.unwrap_or(0),
        overrides.lanes.unwrap_or(1),
        overrides.shards.unwrap_or(1),
        entries.join(",\n")
    );
    std::fs::write("BENCH_train.json", json)
}

fn main() {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };

    if args.child {
        // Workload parameters come fully resolved from the parent (or the
        // test harness); only fill gaps when invoked by hand.
        apply_defaults(&mut args.overrides);
        match run_child(&args) {
            Ok((steps, secs, digest)) => {
                println!("train-bench-result steps={steps} secs={secs:.6} digest={digest:016x}");
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    apply_defaults(&mut args.overrides);
    println!(
        "end-to-end training throughput: {} (steps {}, lanes {}, shards {}, seed {})",
        args.scenario,
        args.overrides.steps.unwrap_or(0),
        args.overrides.lanes.unwrap_or(1),
        args.overrides.shards.unwrap_or(1),
        args.overrides.seed.unwrap_or(0),
    );
    let rows = match run_parent(&args) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{:>8} {:>10} {:>10} {:>14} {:>9}  digest",
        "threads", "steps", "secs", "steps/sec", "speedup"
    );
    let base = rows[0].steps as f64 / rows[0].secs;
    for r in &rows {
        let sps = r.steps as f64 / r.secs;
        println!(
            "{:>8} {:>10} {:>10.3} {:>14.0} {:>8.2}x  {:016x}",
            r.threads,
            r.steps,
            r.secs,
            sps,
            sps / base,
            r.digest
        );
    }

    // The determinism gate: same workload, different pool sizes, same
    // final weights — bit for bit.
    let digest0 = rows[0].digest;
    if let Some(bad) = rows.iter().find(|r| r.digest != digest0) {
        eprintln!(
            "error: training diverged across thread counts: {} thread(s) -> {:016x}, \
             {} thread(s) -> {:016x}",
            rows[0].threads, digest0, bad.threads, bad.digest
        );
        std::process::exit(1);
    }
    println!("determinism: all {} digests bit-identical", rows.len());

    if args.write {
        if let Err(e) = write_json(&args, &rows) {
            eprintln!("error: writing BENCH_train.json: {e}");
            std::process::exit(1);
        }
        println!("wrote BENCH_train.json");
    }
}
