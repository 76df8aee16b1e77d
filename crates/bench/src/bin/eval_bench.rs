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
//! 3. **batched, N lanes** — the lane-batched engine (timed, best of
//!    several runs from the same start state, which must all end on one
//!    digest; the throughput headline), whose stats digest is printed per
//!    scenario so subprocess tests can assert bit-identical results
//!    across `RAYON_NUM_THREADS` settings.
//!
//! ```text
//! eval-bench --dir runs/sweep                     # bench every artifact
//! eval-bench --dir runs/sweep --write             # also record BENCH_eval.json
//! eval-bench --dir runs/fr --eval-episodes 200 --lanes 16 --filter table4
//! eval-bench --dir runs/sweep --threads-list 1,2,4,8
//! ```
//!
//! `--threads-list` adds the thread-scaling axis: the harness re-executes
//! itself once per thread count (see [`autocat_bench::harness`]) and
//! reports a scaling curve.
//! Per-scenario stat digests must be bit-identical across all thread
//! counts; the sweep hard-fails otherwise.
//!
//! Every run also times the checkpoint *codec* round trip — the same
//! `Value` tree serialized + written + read + parsed through the JSON
//! interchange codec and through the binary store codec — and records the
//! comparison under `"codec"` in `BENCH_eval.json` on `--write`.

use autocat::gym::CacheGuessingGame;
use autocat::ppo::{eval, Trainer};
use autocat_bench::harness::{
    check_digests, fixed, parse_threads_list, run_per_thread, write_bench_json, JsonRow, ResultLine,
};
use autocat_bench::sweep::{artifact_names, resolve_checkpoint_path, scenario_path};
use autocat_scenario::run::TrainOverrides;
use autocat_scenario::value::{self, Value};
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
                args.threads_list = Some(parse_threads_list(&value("--threads-list")?)?);
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
/// same [`Value`] tree serialized, written, read back and parsed through
/// the JSON interchange codec and through the binary store codec. Tree construction and trainer rebuild are common to
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

/// One scenario's results: measured in this process by [`bench_one`], or
/// read back from a child's `eval-bench-result` line by the
/// `--threads-list` sweep.
struct Row {
    scenario: String,
    serial_secs: f64,
    batched_secs: f64,
    accuracy: f64,
    detection_rate: f64,
    avg_length: f64,
    digest: u64,
}

impl Row {
    fn from_line(line: &ResultLine) -> Result<Self, String> {
        Ok(Row {
            scenario: line.get("scenario")?.to_string(),
            serial_secs: line.num("serial_secs")?,
            batched_secs: line.num("batched_secs")?,
            accuracy: line.num("accuracy")?,
            detection_rate: line.num("detection")?,
            avg_length: line.num("avg_length")?,
            digest: line.hex("digest")?,
        })
    }

    fn json(&self, episodes: usize) -> JsonRow {
        let serial = episodes as f64 / self.serial_secs;
        let batched = episodes as f64 / self.batched_secs;
        vec![
            ("scenario", Value::Str(self.scenario.clone())),
            ("serial_eps_per_sec", fixed(serial, 1)),
            ("batched_eps_per_sec", fixed(batched, 1)),
            ("speedup", fixed(batched / serial, 2)),
            ("accuracy", fixed(self.accuracy, 4)),
            ("detection_rate", fixed(self.detection_rate, 4)),
            ("avg_length", fixed(self.avg_length, 2)),
            ("digest", Value::Str(format!("{:016x}", self.digest))),
        ]
    }
}

/// How many times [`bench_one`] times the batched evaluation; it reports
/// the fastest. One evaluation of ci.sh's 40 episodes takes about 0.4 ms,
/// so a single timing was host noise (and, at the first scenario, the
/// pool's start-up) more than evaluation speed.
const BATCHED_REPS: usize = 25;

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

    // The batched engine (timed, best of `BATCHED_REPS`), each time from
    // the same start state (the evaluation reads the environment and the
    // weights and draws only from its copy of the RNG), so every
    // repetition must end on one digest.
    let mut trainer = load_trainer(dir, name)?;
    let (env, net, rng) = trainer.parts_mut();
    let mut batched_secs = f64::INFINITY;
    let mut stats = None;
    for _ in 0..BATCHED_REPS {
        let mut rng = rng.clone();
        let start = Instant::now();
        let run = eval::evaluate_batched(&*env, net, episodes, lanes, false, &mut rng).stats;
        batched_secs = batched_secs.min(start.elapsed().as_secs_f64());
        let first = *stats.get_or_insert(run);
        if first.digest() != run.digest() {
            return Err(format!(
                "{name}: batched eval repeated from one state ended on digests {:016x} and {:016x}",
                first.digest(),
                run.digest()
            ));
        }
    }
    let stats = stats.expect("BATCHED_REPS is positive");

    Ok(Row {
        scenario: name.to_string(),
        serial_secs,
        batched_secs,
        accuracy: stats.accuracy(),
        detection_rate: stats.detection_rate(),
        avg_length: f64::from(stats.avg_length),
        digest: stats.digest(),
    })
}

fn write_json(
    args: &Args,
    rows: &[Row],
    scaling: &[(usize, f64)],
    codec: &CodecBench,
) -> Result<(), String> {
    let results: Vec<JsonRow> = rows.iter().map(|r| r.json(args.episodes)).collect();
    let total_episodes = (args.episodes * rows.len()) as f64;
    let thread_scaling: Vec<JsonRow> = scaling
        .iter()
        .map(|&(threads, secs)| {
            vec![
                ("threads", Value::Int(threads as i64)),
                ("batched_eps_per_sec", fixed(total_episodes / secs, 1)),
                ("speedup", fixed(scaling[0].1 / secs, 2)),
            ]
        })
        .collect();
    let codec_json = Value::Table(
        [
            ("files", Value::Int(codec.files as i64)),
            ("reps", Value::Int(codec.reps as i64)),
            ("json_save_ms", fixed(codec.json_save_secs * 1e3, 3)),
            ("json_load_ms", fixed(codec.json_load_secs * 1e3, 3)),
            ("bin_save_ms", fixed(codec.bin_save_secs * 1e3, 3)),
            ("bin_load_ms", fixed(codec.bin_load_secs * 1e3, 3)),
            ("json_bytes", Value::Int(codec.json_bytes as i64)),
            ("bin_bytes", Value::Int(codec.bin_bytes as i64)),
            ("roundtrip_speedup", fixed(codec.roundtrip_speedup(), 2)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    );
    let mut sections: Vec<(&str, &[JsonRow])> = vec![("results", &results)];
    if !thread_scaling.is_empty() {
        sections.push(("thread_scaling", &thread_scaling));
    }
    write_bench_json(
        "BENCH_eval.json",
        &[
            ("benchmark", Value::Str("eval_throughput".into())),
            ("episodes", Value::Int(args.episodes as i64)),
            ("lanes", Value::Int(args.lanes as i64)),
            ("codec", codec_json),
        ],
        &sections,
    )
}

/// The `--threads-list` parent: one child process per thread count, a
/// digest gate across all of them, and a scaling table.
fn run_thread_sweep(args: &Args, threads_list: &[usize]) -> Result<(), String> {
    let mut child_args = vec![
        "--dir".to_string(),
        args.dir.clone(),
        "--eval-episodes".into(),
        args.episodes.to_string(),
        "--lanes".into(),
        args.lanes.to_string(),
    ];
    if let Some(filter) = &args.filter {
        child_args.extend(["--filter".to_string(), filter.clone()]);
    }
    let mut per_thread: Vec<(usize, Vec<Row>)> = Vec::new();
    for (threads, lines) in run_per_thread(threads_list, &child_args, "eval-bench-result")? {
        let rows = lines.iter().map(Row::from_line).collect::<Result<_, _>>()?;
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
    check_digests(
        "scenario",
        per_thread.iter().flat_map(|(threads, rows)| {
            rows.iter()
                .map(move |r| (*threads, r.scenario.as_str(), r.digest))
        }),
    )
    .map_err(|e| format!("eval stats: {e}"))?;
    println!("{:>8} {:<24} digest", "threads", "scenario");
    for (threads, rows) in &per_thread {
        for row in rows {
            println!("{:>8} {:<24} {:016x}", threads, row.scenario, row.digest);
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
        write_json(args, &per_thread[0].1, &scaling, &codec)?;
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
}

/// Benches every artifact in this process: the serial-vs-batched gate,
/// the table, the `eval-bench-result` lines and the codec round trip.
fn run_in_process(args: &Args) -> Result<(), String> {
    let dir = Path::new(&args.dir);
    let names = artifact_names_filtered(args)?;
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
        let row = bench_one(dir, name, args.episodes, args.lanes)?;
        let serial = args.episodes as f64 / row.serial_secs;
        let batched = args.episodes as f64 / row.batched_secs;
        println!(
            "{:<24} {:>12.1} {:>13.1} {:>7.2}x {:>9.3} {:>7.3}  {:016x}",
            row.scenario,
            serial,
            batched,
            batched / serial,
            row.accuracy,
            row.detection_rate,
            row.digest
        );
        rows.push(row);
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
            row.accuracy,
            row.detection_rate,
            row.avg_length,
            row.digest
        );
    }

    // The codec save/load comparison (the binary-vs-JSON checkpoint
    // round trip) — always timed and printed; recorded on --write.
    let codec = bench_codec(dir, &names)?;
    print_codec(&codec);
    if args.write {
        write_json(args, &rows, &[], &codec)?;
    }
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage();
    });
    let result = match &args.threads_list {
        Some(threads_list) => run_thread_sweep(&args, threads_list),
        None => run_in_process(&args),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
