//! Train and evaluate any named or file-loaded scenario.
//!
//! ```text
//! scenario-run --list                      # all registry names
//! scenario-run --scenario table4-6         # run a built-in scenario
//! scenario-run --file my_scenario.toml     # run a scenario file
//! scenario-run --scenario table4-1 --steps 50000 --seed 3 --lanes 4
//! scenario-run --scenario table4-6 --shards 8 --threads 8   # data-parallel update
//! scenario-run --scenario table4-16 --export cfg16.toml   # write, don't run
//! scenario-run --scenario table4-3 --ckpt runs/t3.ckpt.bin  # train-or-load
//! ```
//!
//! Every run trains through the pipeline the sweep and the serving daemon
//! share (`autocat_scenario::run`), evaluates through the same report
//! path, and prints `params digest`/`eval digest` lines — which is what
//! lets ci.sh assert a daemon-trained checkpoint is bit-identical to this
//! one-shot equivalent. `--ckpt PATH` only adds persistence: when the file
//! exists the policy is loaded from it (binary fast path, JSON fallback —
//! the codec is sniffed from the bytes) and only evaluated; otherwise the
//! freshly trained checkpoint is written there.

use autocat::nn::state::params_digest;
use autocat::ppo::Trainer;
use autocat_scenario::run::{row_and_stats, train_trainer, TrainOverrides};
use autocat_scenario::Scenario;

struct Args {
    scenario: Option<String>,
    file: Option<String>,
    overrides: TrainOverrides,
    export: Option<String>,
    ckpt: Option<String>,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: None,
        file: None,
        overrides: TrainOverrides::default(),
        export: None,
        ckpt: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        if args.overrides.try_parse(&flag, &mut value)? {
            continue;
        }
        match flag.as_str() {
            "--list" => args.list = true,
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--file" => args.file = Some(value("--file")?),
            "--export" => args.export = Some(value("--export")?),
            "--ckpt" => args.ckpt = Some(value("--ckpt")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn usage() -> ! {
    eprintln!(
        "usage: scenario-run [--list] [--scenario <name> | --file <path>] \
         [--steps N] [--seed N] [--lanes N] [--eval-episodes N] [--shards N] [--threads N] \
         [--export <path>] [--ckpt <path>]"
    );
    std::process::exit(2);
}

/// Trains the scenario — or, with `--ckpt`, loads the checkpoint when it
/// exists and saves the trained one when it does not — then prints the
/// evaluated row plus the two bit-identity fingerprints.
fn run(scenario: &Scenario, ckpt: Option<&str>) -> Result<(), String> {
    let mut trainer = match ckpt {
        Some(path) if std::path::Path::new(path).exists() => {
            println!("loading  : {path}");
            Trainer::load_checkpoint(path, scenario.build_env()?)?
        }
        _ => {
            let mut trainer = train_trainer(scenario, |_, _| {})?;
            if let Some(path) = ckpt {
                trainer.save_checkpoint(path)?;
                println!("wrote    : {path}");
            }
            trainer
        }
    };
    let (row, stats) = row_and_stats(&mut trainer, scenario);
    println!("sequence : {}", row.sequence);
    println!("category : {}", row.category);
    println!(
        "accuracy : {:.3} over {} episodes (detection rate {:.3})",
        row.accuracy(),
        row.eval_episodes,
        row.detection_rate()
    );
    println!("steps    : {}", row.steps);
    println!(
        "converged: {}",
        if row.converged {
            "yes"
        } else {
            "no (raise --steps for a full run)"
        }
    );
    let (_, net, _) = trainer.parts_mut();
    println!("params digest : {:016x}", params_digest(net));
    println!("eval digest   : {:016x}", stats.digest());
    Ok(())
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
        println!("built-in scenarios:");
        for s in autocat_scenario::all() {
            println!("  {:<24} {}", s.name, s.summary);
        }
        return;
    }

    let mut scenario: Scenario = match (&args.scenario, &args.file) {
        (Some(name), None) => autocat_scenario::lookup(name).unwrap_or_else(|| {
            eprintln!("unknown scenario `{name}` (try --list)");
            std::process::exit(2);
        }),
        (None, Some(path)) => Scenario::load(path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        _ => usage(),
    };

    args.overrides.apply(&mut scenario);

    if let Some(path) = &args.export {
        if let Err(e) = scenario.save(path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!("wrote {} to {path}", scenario.name);
        return;
    }

    println!(
        "scenario : {} ({})\nbudget   : {} steps, seed {}, {} lane(s)",
        scenario.name,
        scenario.summary,
        scenario.train.max_steps,
        scenario.train.seed,
        scenario.train.ppo.num_lanes
    );
    if let Err(e) = run(&scenario, args.ckpt.as_deref()) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
