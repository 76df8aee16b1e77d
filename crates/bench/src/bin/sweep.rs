//! Train every registry scenario (or a `--filter` subset, or `--generate
//! N` seeded scenarios) across rayon-parallel lanes, checkpoint each
//! policy, and emit a Markdown + JSON Table IV reproduction report;
//! `--report-only` regenerates the identical report from the checkpoints
//! alone, and `--census` adds the bucketed scenario-space census.
//!
//! ```text
//! sweep --list                                  # scenarios a sweep would cover
//! sweep --filter table4 --steps 20000           # train all 17 Table IV rows
//! sweep --filter table4-6 --out runs/fr         # one scenario, custom dir
//! sweep --filter table4 --resume                # continue an interrupted sweep
//! sweep --report-only --out runs/fr             # report from artifacts alone
//! sweep --generate 64 --gen-seed 1 --census     # 64 seeded scenarios + census
//! ```
//!
//! `--generate N --gen-seed S` swaps the registry for N scenarios drawn
//! from `autocat_scenario::generate` — deterministic in S, so a re-run
//! (or `--resume`) regenerates byte-identical scenario files whose spec
//! digests match the manifest. The artifacts feed the same resumable
//! pipeline; `--census` buckets the report rows by scenario-space region
//! (`census.md`/`census.json`, see `autocat_bench::census`).
//!
//! `--resume` consults the per-run manifest (`manifest.json`): scenarios
//! whose recorded train-spec digest matches the current spec (after
//! overrides) and whose artifacts are on disk are skipped, and their
//! report rows are regenerated from the checkpoints instead — an
//! interrupted multi-scenario sweep continues in slices instead of
//! retraining from zero.
//!
//! The written report always covers **every** artifact under `--out`: a
//! filtered training run re-reads rows for previously-trained scenarios
//! from their checkpoints, so successive filtered sweeps into one
//! directory accumulate instead of truncating the report.
//!
//! Scenario-level parallelism uses the rayon worker pool; cap it with
//! `RAYON_NUM_THREADS=<n>`. Within a scenario, `--lanes` (or the
//! scenario's own `num_lanes`) controls VecEnv rollout width as usual.

use autocat_bench::sweep::{
    artifact_names, fill_missing_rows, resume_complete, row_from_artifacts, sort_rows, train_one,
    write_report, SweepRow,
};
use autocat_scenario::run::TrainOverrides;
use std::path::Path;

struct Args {
    filter: Option<String>,
    overrides: TrainOverrides,
    out: String,
    report_only: bool,
    resume: bool,
    list: bool,
    generate: Option<usize>,
    gen_seed: Option<u64>,
    census: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        filter: None,
        overrides: TrainOverrides::default(),
        out: "runs/sweep".to_string(),
        report_only: false,
        resume: false,
        list: false,
        generate: None,
        gen_seed: None,
        census: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        if args.overrides.try_parse(&flag, &mut value)? {
            continue;
        }
        match flag.as_str() {
            "--list" => args.list = true,
            "--report-only" => args.report_only = true,
            "--resume" => args.resume = true,
            "--census" => args.census = true,
            "--filter" => args.filter = Some(value("--filter")?),
            "--out" => args.out = value("--out")?,
            "--generate" => {
                let n = value("--generate")?;
                args.generate = Some(
                    n.parse()
                        .map_err(|_| format!("--generate: bad count `{n}`"))?,
                );
            }
            "--gen-seed" => {
                let s = value("--gen-seed")?;
                args.gen_seed = Some(
                    s.parse()
                        .map_err(|_| format!("--gen-seed: bad seed `{s}`"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // --list returns before any report is generated, so only the actual
    // report-only path needs its flags policed.
    if args.report_only
        && !args.list
        && (args.overrides.any() || args.filter.is_some() || args.generate.is_some())
    {
        return Err(
            "--report-only reads artifacts as-is; it cannot honor --filter/\
             --generate/--steps/--seed/--lanes/--eval-episodes/--shards/--threads"
                .into(),
        );
    }
    if args.report_only && args.resume {
        return Err("--resume is a training flag; --report-only never trains".into());
    }
    if args.gen_seed.is_some() && args.generate.is_none() {
        return Err("--gen-seed only applies with --generate N".into());
    }
    Ok(args)
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--list] [--filter SUBSTR] [--generate N] [--gen-seed S] [--steps N] \
         [--seed N] [--lanes N] [--eval-episodes N] [--shards N] [--threads N] [--out DIR] \
         [--resume] [--report-only] [--census]"
    );
    std::process::exit(2);
}

fn matches(name: &str, filter: &Option<String>) -> bool {
    filter.as_ref().is_none_or(|f| name.contains(f.as_str()))
}

/// The scenarios a run covers: the registry, or `--generate N` seeded
/// ones (deterministic in `--gen-seed`, default 0).
fn scenario_source(args: &Args) -> Vec<autocat_scenario::Scenario> {
    match args.generate {
        Some(n) => autocat_scenario::generate(args.gen_seed.unwrap_or(0), n),
        None => autocat_scenario::all(),
    }
}

fn train_all(args: &Args, out: &Path) -> Result<Vec<SweepRow>, String> {
    let mut scenarios: Vec<_> = scenario_source(args)
        .into_iter()
        .filter(|s| matches(&s.name, &args.filter))
        .collect();
    if scenarios.is_empty() {
        return Err("no scenario matches the filter (try --list)".into());
    }
    for scenario in &mut scenarios {
        args.overrides.apply(scenario);
    }
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;

    if args.resume {
        // Skip scenarios whose artifacts are already complete for this
        // exact spec (manifest digest match + files on disk). Their rows
        // come back through `fill_missing_rows`, so the report still
        // covers them.
        let before = scenarios.len();
        scenarios.retain(|scenario| {
            let done = resume_complete(out, scenario);
            if done {
                eprintln!(
                    "sweep: {:<24} already complete, skipping (--resume)",
                    scenario.name
                );
            }
            !done
        });
        if scenarios.is_empty() {
            eprintln!("sweep: all {before} scenario(s) already complete; regenerating report");
            let mut rows = Vec::new();
            fill_missing_rows(out, &mut rows)?;
            return Ok(rows);
        }
    }

    eprintln!(
        "sweep: training {} scenario(s) across up to {} rayon worker(s) -> {}",
        scenarios.len(),
        rayon::current_num_threads(),
        out.display()
    );
    let mut slots: Vec<Option<Result<SweepRow, String>>> = Vec::new();
    slots.resize_with(scenarios.len(), || None);
    rayon::scope(|scope| {
        for (scenario, slot) in scenarios.iter().zip(slots.iter_mut()) {
            scope.spawn(move |_| {
                let result = train_one(scenario, out);
                if let Ok(row) = &result {
                    eprintln!(
                        "sweep: {:<24} {} steps, reward {:.3}, {} (accuracy {:.3} over {} episodes)",
                        row.scenario,
                        row.steps,
                        row.final_return,
                        row.category,
                        row.accuracy(),
                        row.eval_episodes
                    );
                }
                *slot = Some(result);
            });
        }
    });

    let mut rows = Vec::with_capacity(slots.len());
    let mut failures = Vec::new();
    for slot in slots {
        match slot.expect("every scenario task must have run") {
            Ok(row) => rows.push(row),
            Err(e) => failures.push(e),
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    // A filtered run must not truncate the report: pull rows for any
    // other artifacts already in the directory.
    fill_missing_rows(out, &mut rows)?;
    Ok(rows)
}

fn report_only(out: &Path) -> Result<Vec<SweepRow>, String> {
    let names = artifact_names(out)?;
    if names.is_empty() {
        return Err(format!(
            "no scenario artifacts under {} (run a training sweep first)",
            out.display()
        ));
    }
    names
        .iter()
        .map(|name| row_from_artifacts(out, name))
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };

    if args.list {
        println!("scenarios a sweep would cover:");
        for s in scenario_source(&args) {
            if matches(&s.name, &args.filter) {
                println!("  {:<24} {}", s.name, s.summary);
            }
        }
        return;
    }

    let out = Path::new(&args.out);
    let result = if args.report_only {
        report_only(out)
    } else {
        train_all(&args, out)
    };
    let mut rows = match result {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    sort_rows(&mut rows);
    if let Err(e) = write_report(out, &rows) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    if args.census {
        if let Err(e) = autocat_bench::census::write_census(out, &rows) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "{}",
        autocat_bench::sweep::render_markdown(&rows).trim_end()
    );
    println!(
        "\nwrote {} row(s): {} and {}",
        rows.len(),
        out.join("report.md").display(),
        out.join("report.json").display()
    );
    if args.census {
        println!(
            "wrote census: {} and {}",
            out.join("census.md").display(),
            out.join("census.json").display()
        );
    }
}
