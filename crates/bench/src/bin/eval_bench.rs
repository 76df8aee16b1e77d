//! Evaluation throughput + determinism benchmark over sweep artifacts.
//!
//! Loads every `<name>.scenario.json` / `<name>.ckpt.bin` pair (legacy
//! `.ckpt.json` artifacts are picked up as a fallback) under a sweep
//! directory and evaluates each checkpointed policy three ways from
//! the identical trainer state:
//!
//! 1. **serial** — the historical one-env `eval::evaluate` loop (timed),
//! 2. **batched, 1 lane** — `eval::evaluate_batched` in scalar-compat
//!    mode, which must be **bit-identical** to the serial stats (the
//!    harness hard-fails on any divergence: this is the CI smoke gate),
//! 3. **batched, N lanes** — the lane-batched engine (timed; the
//!    throughput headline), whose stats digest is printed per scenario so
//!    subprocess tests can assert bit-identical results across
//!    `RAYON_NUM_THREADS` settings.
//!
//! ```text
//! eval-bench --dir runs/sweep                     # bench every artifact
//! eval-bench --dir runs/sweep --write             # also record BENCH_eval.json
//! eval-bench --dir runs/fr --eval-episodes 200 --lanes 16 --filter table4
//! eval-bench --dir runs/sweep --threads-list 1,2,4,8
//! ```
//!
//! `--threads-list` adds the thread-scaling axis: the vendored rayon shim
//! sizes its pool once per process, so the harness re-executes itself once
//! per thread count (mirroring train-bench) and reports a scaling curve.
//! Per-scenario stat digests must be bit-identical across all thread
//! counts; the sweep hard-fails otherwise.
//!
//! Every run also times the checkpoint *codec* round trip — the same
//! `Value` tree serialized + written + read + parsed through the JSON
//! interchange codec and through the binary store codec — and records the
//! comparison under `"codec"` in `BENCH_eval.json` on `--write`.

use autocat::gym::CacheGuessingGame;
use autocat::ppo::{eval, EvalStats, Trainer};
use autocat_bench::sweep::{artifact_names, resolve_checkpoint_path, scenario_path};
use autocat_scenario::run::TrainOverrides;
use autocat_scenario::value;
use autocat_scenario::Scenario;
use std::path::Path;
use std::time::Instant;

struct Args {
    dir: String,
    filter: Option<String>,
    episodes: usize,
    lanes: usize,
    threads_list: Option<Vec<usize>>,
    write: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut overrides = TrainOverrides::default();
    let mut args = Args {
        dir: "runs/sweep".to_string(),
        filter: None,
        episodes: 100,
        lanes: 8,
        threads_list: None,
        write: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        if overrides.try_parse(&flag, &mut value)? {
            continue;
        }
        match flag.as_str() {
            "--dir" => args.dir = value("--dir")?,
            "--filter" => args.filter = Some(value("--filter")?),
            "--write" => args.write = true,
            "--threads-list" => {
                let list = value("--threads-list")?
                    .split(',')
                    .map(|t| match t.trim().parse::<usize>() {
                        // 0 means "unset" to the rayon shim (all cores); a
                        // row labeled 0 would be a lie.
                        Ok(0) | Err(_) => Err(format!("bad thread count `{t}`")),
                        Ok(n) => Ok(n),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if list.is_empty() {
                    return Err("--threads-list needs at least one entry".into());
                }
                args.threads_list = Some(list);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // The shared override set carries training knobs this harness cannot
    // honor — the checkpoints are already trained.
    if overrides.steps.is_some() || overrides.seed.is_some() || overrides.shards.is_some() {
        return Err(
            "eval-bench evaluates existing checkpoints; --steps/--seed/--shards do not apply"
                .into(),
        );
    }
    if let Some(episodes) = overrides.eval_episodes {
        args.episodes = episodes.max(1);
    }
    if let Some(lanes) = overrides.lanes {
        args.lanes = lanes.max(1);
    }
    if overrides.threads.is_some() && args.threads_list.is_some() {
        return Err("--threads fixes one pool size, --threads-list sweeps them; pick one".into());
    }
    if let Some(threads) = overrides.threads {
        // Before the first rayon use, so the lazily-built pool sees it.
        std::env::set_var("RAYON_NUM_THREADS", threads.max(1).to_string());
    }
    // The evaluator clamps lanes to the episode budget; clamp here too so
    // the printed header and BENCH_eval.json record the effective lane
    // count, not a requested-but-unused one.
    args.lanes = args.lanes.min(args.episodes);
    Ok(args)
}

fn usage() -> ! {
    eprintln!(
        "usage: eval-bench [--dir DIR] [--filter SUBSTR] [--eval-episodes N] [--lanes N] \
         [--threads N] [--threads-list 1,2,4,8] [--write]"
    );
    std::process::exit(2);
}

/// Loads a fresh checkpoint-state trainer for one artifact pair. Called
/// once per evaluation mode so every mode starts from the identical
/// trainer state (weights, env, RNG stream).
fn load_trainer(dir: &Path, name: &str) -> Result<Trainer<CacheGuessingGame>, String> {
    let err = |e: String| format!("{name}: {e}");
    let scenario = Scenario::load(scenario_path(dir, name)).map_err(err)?;
    let env = scenario.build_env().map_err(err)?;
    Trainer::load_checkpoint(resolve_checkpoint_path(dir, name), env).map_err(err)
}

/// Aggregate checkpoint-codec timings over every benched artifact: the
/// same [`Value`](autocat_scenario::value::Value) tree serialized, written,
/// read back and parsed through the JSON interchange codec and through the
/// binary store codec. Tree construction and trainer rebuild are common to
/// both paths and excluded — this times exactly what switching codecs
/// changes.
struct CodecBench {
    files: usize,
    reps: usize,
    json_save_secs: f64,
    json_load_secs: f64,
    bin_save_secs: f64,
    bin_load_secs: f64,
    json_bytes: u64,
    bin_bytes: u64,
}

impl CodecBench {
    fn roundtrip_speedup(&self) -> f64 {
        (self.json_save_secs + self.json_load_secs) / (self.bin_save_secs + self.bin_load_secs)
    }
}

fn bench_codec(dir: &Path, names: &[String]) -> Result<CodecBench, String> {
    const REPS: usize = 5;
    let tmp = std::env::temp_dir().join(format!("eval-bench-codec-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let mut bench = CodecBench {
        files: names.len(),
        reps: REPS,
        json_save_secs: 0.0,
        json_load_secs: 0.0,
        bin_save_secs: 0.0,
        bin_load_secs: 0.0,
        json_bytes: 0,
        bin_bytes: 0,
    };
    for name in names {
        let mut trainer = load_trainer(dir, name)?;
        let tree = trainer.to_checkpoint_value();
        let json_path = tmp.join(format!("{name}.ckpt.json"));
        let bin_path = tmp.join(format!("{name}.ckpt.bin"));
        for rep in 0..REPS {
            let start = Instant::now();
            let text = value::to_json(&tree);
            std::fs::write(&json_path, &text).map_err(|e| format!("{name}: {e}"))?;
            bench.json_save_secs += start.elapsed().as_secs_f64();
            if rep == 0 {
                bench.json_bytes += text.len() as u64;
            }

            let start = Instant::now();
            let text = std::fs::read_to_string(&json_path).map_err(|e| format!("{name}: {e}"))?;
            let parsed = value::from_json(&text).map_err(|e| format!("{name}: {e}"))?;
            bench.json_load_secs += start.elapsed().as_secs_f64();

            let start = Instant::now();
            let bytes = autocat_store::codec::encode(&tree);
            std::fs::write(&bin_path, &bytes).map_err(|e| format!("{name}: {e}"))?;
            bench.bin_save_secs += start.elapsed().as_secs_f64();
            if rep == 0 {
                bench.bin_bytes += bytes.len() as u64;
            }

            let start = Instant::now();
            let bytes = std::fs::read(&bin_path).map_err(|e| format!("{name}: {e}"))?;
            let decoded =
                autocat_store::codec::decode(&bytes).map_err(|e| format!("{name}: {e}"))?;
            bench.bin_load_secs += start.elapsed().as_secs_f64();

            // Both loaded trees must equal the source tree — a timing win
            // from a codec that drops bits would be worthless.
            if parsed != tree || decoded != tree {
                return Err(format!("{name}: codec round trip is not bit-exact"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(bench)
}

struct Row {
    scenario: String,
    serial_secs: f64,
    batched_secs: f64,
    stats: EvalStats,
    digest: u64,
}

fn bench_one(dir: &Path, name: &str, episodes: usize, lanes: usize) -> Result<Row, String> {
    // Serial reference (timed).
    let mut trainer = load_trainer(dir, name)?;
    let (env, net, rng) = trainer.parts_mut();
    let start = Instant::now();
    let serial = eval::evaluate(env, net, episodes, false, rng);
    let serial_secs = start.elapsed().as_secs_f64();

    // The bit-identity gate: one batched lane from the same start state.
    let mut trainer = load_trainer(dir, name)?;
    let (env, net, rng) = trainer.parts_mut();
    let one_lane = eval::evaluate_batched(&*env, net, episodes, 1, false, rng).stats;
    // Digest comparison, not PartialEq: f32 == would let a -0.0/+0.0
    // association regression through, and single-bit is the contract.
    if one_lane.digest() != serial.digest() {
        return Err(format!(
            "{name}: batched eval at 1 lane diverged from serial \
             (serial digest {:016x}, batched {:016x})",
            serial.digest(),
            one_lane.digest()
        ));
    }

    // The batched engine (timed), again from the same start state.
    let mut trainer = load_trainer(dir, name)?;
    let (env, net, rng) = trainer.parts_mut();
    let start = Instant::now();
    let stats = eval::evaluate_batched(&*env, net, episodes, lanes, false, rng).stats;
    let batched_secs = start.elapsed().as_secs_f64();

    Ok(Row {
        scenario: name.to_string(),
        serial_secs,
        batched_secs,
        digest: stats.digest(),
        stats,
    })
}

/// One scenario's results in the shape `BENCH_eval.json` records; produced
/// directly by in-process runs and reparsed from child result lines by the
/// `--threads-list` sweep.
struct JsonRow {
    scenario: String,
    serial_secs: f64,
    batched_secs: f64,
    accuracy: f64,
    detection_rate: f64,
    avg_length: f64,
    digest: u64,
}

impl Row {
    fn to_json_row(&self) -> JsonRow {
        JsonRow {
            scenario: self.scenario.clone(),
            serial_secs: self.serial_secs,
            batched_secs: self.batched_secs,
            accuracy: self.stats.accuracy(),
            detection_rate: self.stats.detection_rate(),
            avg_length: f64::from(self.stats.avg_length),
            digest: self.digest,
        }
    }
}

/// `(threads, total batched secs across scenarios)` per sweep point.
type ScalingPoint = (usize, f64);

fn write_json(
    args: &Args,
    rows: &[JsonRow],
    scaling: &[ScalingPoint],
    codec: &CodecBench,
) -> std::io::Result<()> {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            let serial = args.episodes as f64 / r.serial_secs;
            let batched = args.episodes as f64 / r.batched_secs;
            format!(
                "    {{\"scenario\": \"{}\", \"serial_eps_per_sec\": {:.1}, \
                 \"batched_eps_per_sec\": {:.1}, \"speedup\": {:.2}, \"accuracy\": {:.4}, \
                 \"detection_rate\": {:.4}, \"avg_length\": {:.2}, \"digest\": \"{:016x}\"}}",
                r.scenario,
                serial,
                batched,
                batched / serial,
                r.accuracy,
                r.detection_rate,
                r.avg_length,
                r.digest
            )
        })
        .collect();
    let total_episodes = (args.episodes * rows.len()) as f64;
    let scaling_entries: Vec<String> = scaling
        .iter()
        .map(|&(threads, secs)| {
            format!(
                "    {{\"threads\": {threads}, \"batched_eps_per_sec\": {:.1}, \
                 \"speedup\": {:.2}}}",
                total_episodes / secs,
                scaling[0].1 / secs
            )
        })
        .collect();
    let scaling_json = if scaling_entries.is_empty() {
        String::new()
    } else {
        format!(
            ",\n  \"thread_scaling\": [\n{}\n  ]",
            scaling_entries.join(",\n")
        )
    };
    let codec_json = format!(
        ",\n  \"codec\": {{\"files\": {}, \"reps\": {}, \
         \"json_save_ms\": {:.3}, \"json_load_ms\": {:.3}, \
         \"bin_save_ms\": {:.3}, \"bin_load_ms\": {:.3}, \
         \"json_bytes\": {}, \"bin_bytes\": {}, \"roundtrip_speedup\": {:.2}}}",
        codec.files,
        codec.reps,
        codec.json_save_secs * 1e3,
        codec.json_load_secs * 1e3,
        codec.bin_save_secs * 1e3,
        codec.bin_load_secs * 1e3,
        codec.json_bytes,
        codec.bin_bytes,
        codec.roundtrip_speedup()
    );
    let json = format!(
        "{{\n  \"benchmark\": \"eval_throughput\",\n  \"episodes\": {},\n  \"lanes\": {},\n  \
         \"available_cpus\": {cpus},\n  \"results\": [\n{}\n  ]{codec_json}{scaling_json}\n}}\n",
        args.episodes,
        args.lanes,
        entries.join(",\n")
    );
    std::fs::write("BENCH_eval.json", json)
}

/// Parses the `eval-bench-result` lines out of one child's stdout.
fn parse_child_rows(stdout: &str) -> Result<Vec<JsonRow>, String> {
    let mut rows = Vec::new();
    for line in stdout
        .lines()
        .filter(|l| l.starts_with("eval-bench-result"))
    {
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|f| f.strip_prefix(&format!("{key}=")))
                .ok_or_else(|| format!("missing `{key}` in `{line}`"))
        };
        let num = |key: &str| -> Result<f64, String> {
            field(key)?
                .parse::<f64>()
                .map_err(|e| format!("bad `{key}` in `{line}`: {e}"))
        };
        rows.push(JsonRow {
            scenario: field("scenario")?.to_string(),
            serial_secs: num("serial_secs")?,
            batched_secs: num("batched_secs")?,
            accuracy: num("accuracy")?,
            detection_rate: num("detection")?,
            avg_length: num("avg_length")?,
            digest: u64::from_str_radix(field("digest")?, 16)
                .map_err(|e| format!("bad `digest` in `{line}`: {e}"))?,
        });
    }
    if rows.is_empty() {
        return Err(format!("no eval-bench-result lines in:\n{stdout}"));
    }
    Ok(rows)
}

/// The `--threads-list` parent: one child process per thread count, a
/// digest gate across all of them, and a scaling table.
fn run_thread_sweep(args: &Args, threads_list: &[usize]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut per_thread: Vec<(usize, Vec<JsonRow>)> = Vec::new();
    for &threads in threads_list {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--dir", &args.dir])
            .args(["--eval-episodes", &args.episodes.to_string()])
            .args(["--lanes", &args.lanes.to_string()])
            .env("RAYON_NUM_THREADS", threads.to_string());
        if let Some(filter) = &args.filter {
            cmd.args(["--filter", filter]);
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
        let rows = parse_child_rows(&String::from_utf8_lossy(&out.stdout))?;
        per_thread.push((threads, rows));
    }

    println!(
        "{:>8} {:>10} {:>14} {:>9}",
        "threads", "secs", "batched eps/s", "speedup"
    );
    let total_episodes = (args.episodes * per_thread[0].1.len()) as f64;
    let mut scaling = Vec::new();
    for (threads, rows) in &per_thread {
        let secs: f64 = rows.iter().map(|r| r.batched_secs).sum();
        scaling.push((*threads, secs));
        println!(
            "{:>8} {:>10.3} {:>14.1} {:>8.2}x",
            threads,
            secs,
            total_episodes / secs,
            scaling[0].1 / secs
        );
    }

    // The determinism gate: per scenario, every thread count must produce
    // the same stats digest.
    let (threads0, rows0) = &per_thread[0];
    for (threads, rows) in &per_thread[1..] {
        for (a, b) in rows0.iter().zip(rows.iter()) {
            if a.scenario != b.scenario || a.digest != b.digest {
                return Err(format!(
                    "eval stats diverged across thread counts: {} ({} thread(s)) \
                     -> {:016x}, {} ({} thread(s)) -> {:016x}",
                    a.scenario, threads0, a.digest, b.scenario, threads, b.digest
                ));
            }
        }
    }
    println!(
        "determinism: per-scenario digests bit-identical across {} thread count(s)",
        per_thread.len()
    );

    if args.write {
        // The codec comparison is single-threaded and thread-count
        // independent; run it once in the parent.
        let names = artifact_names_filtered(args)?;
        let codec = bench_codec(Path::new(&args.dir), &names)?;
        print_codec(&codec);
        write_json(args, rows0, &scaling, &codec)
            .map_err(|e| format!("writing BENCH_eval.json: {e}"))?;
        println!("wrote BENCH_eval.json");
    }
    Ok(())
}

/// The artifact names this invocation benches (filter applied, report
/// order).
fn artifact_names_filtered(args: &Args) -> Result<Vec<String>, String> {
    let names: Vec<String> = artifact_names(Path::new(&args.dir))?
        .into_iter()
        .filter(|n| args.filter.as_ref().is_none_or(|f| n.contains(f.as_str())))
        .collect();
    if names.is_empty() {
        return Err(format!(
            "no scenario artifacts under {} (run a training sweep first)",
            args.dir
        ));
    }
    Ok(names)
}

fn print_codec(codec: &CodecBench) {
    println!(
        "codec: JSON save+load {:.1}ms, binary save+load {:.1}ms over {} file(s) x {} rep(s) \
         -> {:.2}x ({} -> {} bytes)",
        (codec.json_save_secs + codec.json_load_secs) * 1e3,
        (codec.bin_save_secs + codec.bin_load_secs) * 1e3,
        codec.files,
        codec.reps,
        codec.roundtrip_speedup(),
        codec.json_bytes,
        codec.bin_bytes
    );
    println!(
        "eval-bench-codec files={} reps={} json_save_secs={:.6} json_load_secs={:.6} \
         bin_save_secs={:.6} bin_load_secs={:.6} roundtrip_speedup={:.4}",
        codec.files,
        codec.reps,
        codec.json_save_secs,
        codec.json_load_secs,
        codec.bin_save_secs,
        codec.bin_load_secs,
        codec.roundtrip_speedup()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };

    if let Some(threads_list) = args.threads_list.clone() {
        if let Err(e) = run_thread_sweep(&args, &threads_list) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }

    let dir = Path::new(&args.dir);
    let names: Vec<String> = match artifact_names_filtered(&args) {
        Ok(names) => names,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "evaluation throughput: {} scenario(s) under {}, {} episodes, {} lanes",
        names.len(),
        dir.display(),
        args.episodes,
        args.lanes
    );
    println!(
        "{:<24} {:>12} {:>13} {:>8} {:>9} {:>7}  digest",
        "scenario", "serial eps/s", "batched eps/s", "speedup", "accuracy", "detect"
    );
    let mut rows = Vec::new();
    for name in &names {
        match bench_one(dir, name, args.episodes, args.lanes) {
            Ok(row) => {
                let serial = args.episodes as f64 / row.serial_secs;
                let batched = args.episodes as f64 / row.batched_secs;
                println!(
                    "{:<24} {:>12.1} {:>13.1} {:>7.2}x {:>9.3} {:>7.3}  {:016x}",
                    row.scenario,
                    serial,
                    batched,
                    batched / serial,
                    row.stats.accuracy(),
                    row.stats.detection_rate(),
                    row.digest
                );
                rows.push(row);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "serial vs batched(1 lane): bit-identical for all {} scenario(s)",
        rows.len()
    );

    // Greppable result lines for the cross-thread-count determinism test
    // and the `--threads-list` sweep parent (which rebuilds BENCH_eval.json
    // rows from these fields).
    for row in &rows {
        println!(
            "eval-bench-result scenario={} episodes={} serial_secs={:.6} \
             batched_secs={:.6} accuracy={:.6} detection={:.6} avg_length={:.4} \
             digest={:016x}",
            row.scenario,
            args.episodes,
            row.serial_secs,
            row.batched_secs,
            row.stats.accuracy(),
            row.stats.detection_rate(),
            row.stats.avg_length,
            row.digest
        );
    }

    // The codec save/load comparison (the binary-vs-JSON checkpoint
    // round trip) — always timed and printed; recorded on --write.
    let codec = match bench_codec(dir, &names) {
        Ok(codec) => codec,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    print_codec(&codec);

    if args.write {
        let json_rows: Vec<JsonRow> = rows.iter().map(Row::to_json_row).collect();
        if let Err(e) = write_json(&args, &json_rows, &[], &codec) {
            eprintln!("error: writing BENCH_eval.json: {e}");
            std::process::exit(1);
        }
        println!("wrote BENCH_eval.json");
    }
}
