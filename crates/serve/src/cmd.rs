//! CLI subcommands, all thin wrappers over the typed
//! [`Client`]/[`JobHandle`] library — parsing flags, calling the client,
//! and printing. The `submit --wait`/`watch` printers emit exactly
//! `scenario-run --ckpt`'s fingerprint lines (`params digest :`,
//! `eval digest   :`), the greppable surface ci.sh compares for the
//! daemon/one-shot bit-identity gate.

use crate::client::{Client, JobHandle};
use crate::proto::{Event, FetchKey, JobSource, JobStatus, Which};
use autocat_scenario::run::TrainOverrides;
use autocat_scenario::Scenario;
use autocat_store::digest_hex;

fn opt_hex(digest: Option<u64>) -> String {
    digest.map(digest_hex).unwrap_or_else(|| "-".into())
}

/// `ping`: round-trips one request (handshake included), proving the
/// daemon is up and speaks this client's protocol version.
///
/// # Errors
///
/// Returns transport and version-mismatch errors.
pub fn ping(addr: &str) -> Result<(), String> {
    Client::connect(addr)?.ping()?;
    println!("pong from {addr}");
    Ok(())
}

/// `shutdown`: asks the daemon to drain and exit.
///
/// # Errors
///
/// Returns transport errors.
pub fn shutdown(addr: &str) -> Result<(), String> {
    Client::connect(addr)?.shutdown()?;
    println!("daemon at {addr} shutting down");
    Ok(())
}

/// Streams a handle's events, printing progress to stderr and — on
/// success — the fingerprint block ci.sh greps (see the module docs).
fn follow(handle: &mut JobHandle) -> Result<(), String> {
    let job = handle.job;
    let status = handle.events(&mut |event| {
        if let Event::Progress {
            steps, avg_return, ..
        } = event
        {
            eprintln!("job {job}: {steps} steps, avg return {avg_return:.2}");
        }
    })?;
    println!("job {job} done");
    println!("digest   : {}", opt_hex(status.digest));
    println!("accuracy : {:.3}", status.accuracy.unwrap_or(0.0));
    // Exactly scenario-run's fingerprint lines (see module docs).
    println!("params digest : {}", opt_hex(status.params_digest));
    println!("eval digest   : {}", opt_hex(status.eval_digest));
    Ok(())
}

/// `submit`: queues a job (registry name or scenario file, with an
/// optional priority) or attaches to an equivalent one; with `wait`,
/// follows the job's event stream to its end.
///
/// # Errors
///
/// Returns submission errors, and with `wait` also the job's own failure.
pub fn submit(
    addr: &str,
    scenario: Option<&str>,
    file: Option<&str>,
    overrides: &TrainOverrides,
    priority: i64,
    wait: bool,
) -> Result<(), String> {
    if overrides.threads.is_some() {
        // The protocol deliberately doesn't carry --threads (see proto);
        // dropping it silently would lie to the caller.
        return Err("--threads does not apply to submitted jobs; \
                    set the daemon's worker pool with `daemon --workers`"
            .into());
    }
    let source = match (scenario, file) {
        (Some(name), None) => JobSource::Registry(name.to_string()),
        // Ship the file's scenario inline so the daemon needs no
        // filesystem agreement with the client.
        (None, Some(path)) => JobSource::Inline(Box::new(Scenario::load(path)?)),
        _ => return Err("submit needs exactly one of --scenario or --file".into()),
    };
    let mut handle = Client::connect(addr)?.submit(source, *overrides, priority)?;
    if handle.attached {
        println!(
            "attached to job {} (spec digest {})",
            handle.job,
            digest_hex(handle.spec_digest)
        );
    } else {
        println!(
            "submitted job {} (spec digest {})",
            handle.job,
            digest_hex(handle.spec_digest)
        );
    }
    if wait {
        follow(&mut handle)?;
    }
    Ok(())
}

/// `watch`: attaches to a job by id and follows its event stream — the
/// full progress history (identical for every watcher), then the
/// terminal event.
///
/// # Errors
///
/// Returns unknown-job faults and the job's own failure.
pub fn watch(addr: &str, job: u64) -> Result<(), String> {
    let status = Client::connect(addr)?.status(Some(job))?;
    let spec = status
        .first()
        .map(|s| s.spec_digest)
        .ok_or_else(|| format!("no job {job}"))?;
    follow(&mut Client::connect(addr)?.handle(job, spec))
}

/// `status`: prints the job table (or one job with `job`).
///
/// # Errors
///
/// Returns transport errors and unknown-job faults.
pub fn status(addr: &str, job: Option<u64>) -> Result<(), String> {
    let jobs = Client::connect(addr)?.status(job)?;
    if jobs.is_empty() {
        println!("no jobs");
    }
    for status in &jobs {
        print_status(status);
    }
    Ok(())
}

fn print_status(status: &JobStatus) {
    let JobStatus {
        job,
        scenario,
        state,
        steps,
        priority,
        ..
    } = status;
    let state = state.as_str();
    let prio = if *priority != 0 {
        format!(" prio {priority}")
    } else {
        String::new()
    };
    match status.digest {
        Some(digest) => println!(
            "job {job}: {scenario} [{state}]{prio} {steps} steps, digest {}",
            digest_hex(digest)
        ),
        None => match &status.error {
            Some(error) => println!("job {job}: {scenario} [{state}]{prio} {error}"),
            None => println!("job {job}: {scenario} [{state}]{prio} {steps} steps"),
        },
    }
}

/// `fetch`: streams a stored checkpoint — a scenario's best/latest or an
/// exact object by digest — through the connection, re-verifies the
/// bytes' content digest locally, and writes them to `out`. Prints the
/// digest and byte count; no server-local path is involved anywhere.
///
/// # Errors
///
/// Returns lookup, transport, digest-mismatch, and local-write errors.
pub fn fetch(
    addr: &str,
    scenario: Option<&str>,
    which: &str,
    digest: Option<&str>,
    out: &str,
) -> Result<(), String> {
    let key = match (scenario, digest) {
        (Some(name), None) => FetchKey::Scenario {
            name: name.to_string(),
            which: Which::parse(which)?,
        },
        (None, Some(hex)) => FetchKey::Digest(autocat_store::digest_from_hex(hex)?),
        _ => return Err("fetch needs exactly one of --scenario or --digest".into()),
    };
    let (entry, bytes) = Client::connect(addr)?.fetch(&key)?;
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    let described = match &key {
        FetchKey::Scenario { name, which } => format!("{name} ({})", which.as_str()),
        FetchKey::Digest(digest) => format!("object {}", digest_hex(*digest)),
    };
    println!(
        "fetched {described} -> {out} ({} bytes, digest {}, params digest {})",
        bytes.len(),
        digest_hex(entry.digest),
        digest_hex(entry.params_digest)
    );
    Ok(())
}

/// `gc`: applies a retention policy on the daemon's store.
///
/// # Errors
///
/// Returns transport and store errors.
pub fn gc(
    addr: &str,
    max_count: Option<u64>,
    max_age_secs: Option<u64>,
    keep: &[String],
) -> Result<(), String> {
    let (removed_entries, removed_objects, kept_entries) =
        Client::connect(addr)?.gc(max_count, max_age_secs, keep.to_vec())?;
    println!(
        "gc: removed {removed_entries} entries, {removed_objects} objects; \
         kept {kept_entries} entries"
    );
    Ok(())
}
