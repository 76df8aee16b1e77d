//! `autocat-serve`: the always-on exploration daemon and its client
//! subcommands in one binary (a flag parser over the `autocat_serve`
//! library — see `crate::cmd` for the behavior).
//!
//! ```text
//! autocat-serve daemon   [--addr 127.0.0.1:0] [--store DIR] [--workers N]
//! autocat-serve ping     --addr HOST:PORT
//! autocat-serve submit   --addr HOST:PORT (--scenario NAME | --file PATH)
//!                        [--wait] [--priority N] [--steps N] [--seed N]
//!                        [--lanes N] [--eval-episodes N] [--shards N]
//! autocat-serve watch    --addr HOST:PORT --job N
//! autocat-serve status   --addr HOST:PORT [--job N]
//! autocat-serve fetch    --addr HOST:PORT (--scenario NAME | --digest HEX)
//!                        --out PATH [--which best|latest]
//! autocat-serve gc       --addr HOST:PORT [--max-count N]
//!                        [--max-age-secs N] [--keep PATTERN]...
//! autocat-serve shutdown --addr HOST:PORT
//! ```
//!
//! The daemon prints `autocat-serve: listening on HOST:PORT` on startup
//! (port 0 resolves to a real free port in that line), which is how
//! ci.sh discovers where to point the client. `--workers 0` runs a
//! queue-only daemon: submissions are accepted and journaled but not
//! trained until a daemon with workers reopens the same store.

// See lib.rs: the compiler-level half of lint rule R1.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use autocat_scenario::run::TrainOverrides;
use autocat_serve::{cmd, server};

fn usage() -> ! {
    eprintln!(
        "usage: autocat-serve <daemon|ping|submit|watch|status|fetch|gc|shutdown> [flags]\n\
         run with a subcommand; see the crate docs for per-command flags"
    );
    std::process::exit(2);
}

fn run(command: &str, args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut store = "store".to_string();
    let mut workers = 1usize;
    let mut scenario: Option<String> = None;
    let mut file: Option<String> = None;
    let mut out: Option<String> = None;
    let mut which = "best".to_string();
    let mut digest: Option<String> = None;
    let mut job: Option<u64> = None;
    let mut wait = false;
    let mut priority = 0i64;
    let mut max_count: Option<u64> = None;
    let mut max_age_secs: Option<u64> = None;
    let mut keep: Vec<String> = Vec::new();
    let mut overrides = TrainOverrides::default();

    let mut it = args.iter().cloned();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--store" => store = value("--store")?,
            "--workers" => {
                workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--scenario" => scenario = Some(value("--scenario")?),
            "--file" => file = Some(value("--file")?),
            "--out" => out = Some(value("--out")?),
            "--which" => which = value("--which")?,
            "--digest" => digest = Some(value("--digest")?),
            "--job" => job = Some(value("--job")?.parse().map_err(|e| format!("--job: {e}"))?),
            "--wait" => wait = true,
            "--priority" => {
                priority = value("--priority")?
                    .parse()
                    .map_err(|e| format!("--priority: {e}"))?;
            }
            "--max-count" => {
                max_count = Some(
                    value("--max-count")?
                        .parse()
                        .map_err(|e| format!("--max-count: {e}"))?,
                );
            }
            "--max-age-secs" => {
                max_age_secs = Some(
                    value("--max-age-secs")?
                        .parse()
                        .map_err(|e| format!("--max-age-secs: {e}"))?,
                );
            }
            "--keep" => keep.push(value("--keep")?),
            other => {
                if !overrides.try_parse(other, &mut value)? {
                    return Err(format!("unknown flag `{other}` for `{command}`"));
                }
            }
        }
    }
    // Client commands need a daemon address; the daemon picks a default.
    let addr_for = |cmd: &str| {
        addr.clone()
            .ok_or_else(|| format!("{cmd} requires --addr HOST:PORT"))
    };

    match command {
        "daemon" => server::run(&server::DaemonConfig {
            addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_string()),
            store_dir: store,
            workers,
        }),
        "ping" => cmd::ping(&addr_for("ping")?),
        "submit" => cmd::submit(
            &addr_for("submit")?,
            scenario.as_deref(),
            file.as_deref(),
            &overrides,
            priority,
            wait,
        ),
        "watch" => cmd::watch(&addr_for("watch")?, job.ok_or("watch requires --job N")?),
        "status" => cmd::status(&addr_for("status")?, job),
        "fetch" => cmd::fetch(
            &addr_for("fetch")?,
            scenario.as_deref(),
            &which,
            digest.as_deref(),
            out.as_deref().ok_or("fetch requires --out")?,
        ),
        "gc" => cmd::gc(&addr_for("gc")?, max_count, max_age_secs, &keep),
        "shutdown" => cmd::shutdown(&addr_for("shutdown")?),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage();
    };
    if let Err(e) = run(command, rest) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
