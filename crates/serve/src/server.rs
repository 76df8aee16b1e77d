//! The daemon: a TCP accept loop, a thread-per-connection protocol
//! handler, a journal-backed job table, and a `std::thread` worker pool
//! draining it by priority.
//!
//! # Job lifecycle
//!
//! `submit` validates the scenario (registry name or inline JSON),
//! applies the per-job overrides, and either **attaches** the submission
//! to an equivalent job (see the dedup contract below) or appends a
//! **queued** job — durably: the submit record hits the journal before
//! the client hears an id, so an acknowledged job survives `kill -9`. A
//! worker claims the highest-priority queued job (FIFO within a
//! priority), marks it **running**, and trains it through the *same*
//! shared code path as one-shot `scenario-run`/`sweep`
//! (`autocat_scenario::run::train_trainer` + `row_and_stats`), appending
//! `(steps, avg return)` to the job's progress log after every PPO
//! update. On success the canonical binary checkpoint bytes go into the
//! content-addressed store and the job becomes **done**, carrying the
//! object digest plus the two bit-identity fingerprints (params digest,
//! eval stats digest); on error it becomes **failed** with the message.
//!
//! # Durable job table
//!
//! Every lifecycle transition is journaled (`jobs.jsonl` next to the
//! store index, an [`autocat_store::Journal`]): `submit` with the full
//! post-override scenario, `running`, and the terminal `done`/`failed`
//! status. On startup the journal replays into the job table — finished
//! jobs keep serving `status`/`watch` history, queued jobs wait for
//! workers again, and **running** jobs (interrupted by whatever killed
//! the last daemon) are re-enqueued: the deterministic trainer guarantees
//! the rerun produces bit-identical artifacts.
//!
//! # Dedup by spec digest
//!
//! The queue is keyed by train-spec digest (FNV-1a over the post-override
//! scenario JSON). A submission whose digest matches a queued or running
//! job attaches to it — both watchers replay the *same* progress log and
//! terminal event, so concurrent identical submissions share one training
//! run. A digest matching a **done** job resolves instantly (attached,
//! terminal event on watch) as long as its object is still in the store;
//! a gc'd object or a failed job means a fresh training run.
//!
//! # Determinism contract
//!
//! A daemon job is bit-identical to its one-shot equivalent: same
//! training loop (the progress callback is observation-only), same
//! save-then-evaluate order as `sweep::train_one`, same evaluation plan
//! (`row_and_stats` → `EVAL_LANES` lanes, the scenario's episode budget).
//! ci.sh holds this gate by comparing the streamed object's bytes and
//! both digests against a `scenario-run --ckpt` of the same scenario +
//! seed — including across a `kill -9` + restart. Worker-pool width and
//! priorities schedule *which* jobs run concurrently; they cannot change
//! any job's result.

use crate::proto::{
    self, fault, ErrorKind, Event, Fault, FetchKey, JobSource, JobState, JobStatus, Request,
    Response, Which, PROTOCOL_VERSION,
};
use autocat_nn::state::params_digest;
use autocat_scenario::run::{row_and_stats, spec_digest, train_trainer, TrainOverrides};
use autocat_scenario::value::{self, req, u64_from, u64_value, Value};
use autocat_scenario::Scenario;
use autocat_store::{codec, EntryMeta, Journal, RetentionPolicy, Store, StoreEntry};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Journal kind tag for the job table.
pub const JOURNAL_KIND: &str = "autocat-jobs";
/// Job-journal format version.
pub const JOURNAL_VERSION: i64 = 1;

/// Daemon settings parsed from the `daemon` subcommand's flags.
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free port (printed on startup).
    pub addr: String,
    /// Store root directory (the job journal lives next to its index).
    pub store_dir: String,
    /// Worker threads training jobs concurrently. `0` is a queue-only
    /// front end: jobs are accepted and journaled but never trained —
    /// until a daemon with workers opens the same store.
    pub workers: usize,
}

/// The job journal's path under a store root.
pub fn journal_path(store_dir: impl AsRef<Path>) -> std::path::PathBuf {
    store_dir.as_ref().join("jobs.jsonl")
}

#[derive(Debug)]
struct Job {
    status: JobStatus,
    scenario: Scenario,
    /// Full `(steps, avg return)` history, one entry per PPO update —
    /// watch streams replay it from the start so every watcher of a job
    /// sees the identical event sequence.
    progress: Vec<(u64, f32)>,
}

struct Shared {
    jobs: Mutex<Vec<Job>>,
    /// Signals workers (new queued job / shutdown) and watchers (any job
    /// update).
    signal: Condvar,
    store: Mutex<Store>,
    journal: Mutex<Journal>,
    shutdown: AtomicBool,
}

// Lock order: `jobs` may be held while taking `store` or `journal`;
// never the reverse.

/// Locks a mutex, recovering from poisoning. Every transition the guarded
/// state can make is journaled first, so the inner value is consistent
/// even if a panicking thread poisoned the lock — continuing beats
/// cascading the panic through every request handler (lint rule R1: no
/// panics in the daemon request path).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock`].
fn wait<'a, T>(signal: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    signal.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

fn now_unix() -> u64 {
    // lint: allow(D2) -- store-entry `created_unix` is gc metadata, never digested
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------------

fn submit_record(status: &JobStatus, scenario: &Scenario) -> Value {
    let mut record = Value::table();
    record.set("op", Value::Str("submit".into()));
    record.set("status", status.to_value());
    record.set("scenario", scenario.to_value());
    record
}

fn running_record(job: u64) -> Value {
    let mut record = Value::table();
    record.set("op", Value::Str("running".into()));
    record.set("job", u64_value(job));
    record
}

/// Builds the terminal journal record. `op` is `"done"` or `"failed"`,
/// passed explicitly by the caller that just set the matching state —
/// deriving it from `status.state` would need a panicking arm for live
/// states (lint rule R1).
fn terminal_record(op: &'static str, status: &JobStatus) -> Value {
    let mut record = Value::table();
    record.set("op", Value::Str(op.into()));
    record.set("status", status.to_value());
    record
}

/// Folds journal records into a job table. Returns the jobs and how many
/// interrupted (journaled `running`, no terminal) jobs were re-enqueued.
fn replay(records: &[Value]) -> Result<(Vec<Job>, usize), String> {
    let mut jobs: Vec<Job> = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let err = |e: String| format!("journal record {}: {e}", i + 1);
        let table = record.as_table().map_err(err)?;
        let find = |jobs: &mut Vec<Job>, id: u64| -> Result<usize, String> {
            jobs.iter()
                .position(|j| j.status.job == id)
                .ok_or_else(|| format!("journal record {}: unknown job {id}", i + 1))
        };
        match req(table, "op").and_then(Value::as_str).map_err(err)? {
            "submit" => {
                let status =
                    JobStatus::from_value(req(table, "status").map_err(err)?).map_err(err)?;
                let scenario =
                    Scenario::from_json(&value::to_json(req(table, "scenario").map_err(err)?))
                        .map_err(err)?;
                jobs.push(Job {
                    status,
                    scenario,
                    progress: Vec::new(),
                });
            }
            "running" => {
                let id = u64_from(req(table, "job").map_err(err)?).map_err(err)?;
                let at = find(&mut jobs, id)?;
                jobs[at].status.state = JobState::Running;
            }
            "done" | "failed" => {
                let status =
                    JobStatus::from_value(req(table, "status").map_err(err)?).map_err(err)?;
                let at = find(&mut jobs, status.job)?;
                jobs[at].status = status;
            }
            other => return Err(format!("journal record {}: unknown op `{other}`", i + 1)),
        }
    }
    // A job journaled `running` with no terminal record was interrupted
    // mid-training; re-enqueue it — the deterministic trainer makes the
    // rerun's artifact bit-identical to what the lost run would have made.
    let mut interrupted = 0;
    for job in &mut jobs {
        if job.status.state == JobState::Running {
            job.status.state = JobState::Queued;
            interrupted += 1;
        }
    }
    Ok((jobs, interrupted))
}

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

/// Runs the daemon until a `shutdown` request arrives.
///
/// # Errors
///
/// Returns an error if the store or journal cannot open or the listener
/// cannot bind.
pub fn run(config: &DaemonConfig) -> Result<(), String> {
    let store = Store::open(&config.store_dir)?;
    let (journal, records) = Journal::open(
        journal_path(&config.store_dir),
        JOURNAL_KIND,
        JOURNAL_VERSION,
    )?;
    let (jobs, interrupted) = replay(&records)?;
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // The startup contract ci.sh greps for: one line, actual port filled in.
    println!("autocat-serve: listening on {local}");
    println!(
        "autocat-serve: store at {}, {} worker(s), protocol v{PROTOCOL_VERSION}",
        config.store_dir, config.workers
    );
    if !jobs.is_empty() {
        let queued = jobs
            .iter()
            .filter(|j| j.status.state == JobState::Queued)
            .count();
        println!(
            "autocat-serve: journal replayed {} job(s): {} queued ({} interrupted mid-run)",
            jobs.len(),
            queued,
            interrupted
        );
    }

    let shared = Arc::new(Shared {
        jobs: Mutex::new(jobs),
        signal: Condvar::new(),
        store: Mutex::new(store),
        journal: Mutex::new(journal),
        shutdown: AtomicBool::new(false),
    });

    let workers: Vec<_> = (0..config.workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(&shared);
        let local = local.to_string();
        std::thread::spawn(move || {
            // A vanished client is that client's problem, not the daemon's.
            let _ = serve_connection(&shared, stream, &local);
        });
    }

    for worker in workers {
        let _ = worker.join();
    }
    println!("autocat-serve: shut down");
    Ok(())
}

fn worker_loop(shared: &Shared) {
    loop {
        // Claim the highest-priority queued job (FIFO within a priority),
        // or sleep until signaled.
        let claimed = {
            let mut jobs = lock(&shared.jobs);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let next = jobs
                    .iter_mut()
                    .filter(|j| j.status.state == JobState::Queued)
                    .max_by_key(|j| (j.status.priority, std::cmp::Reverse(j.status.job)));
                if let Some(job) = next {
                    job.status.state = JobState::Running;
                    let claim = (job.status.job, job.scenario.clone());
                    // jobs → journal is the sanctioned lock order.
                    if let Err(e) = lock(&shared.journal).append(&running_record(claim.0)) {
                        eprintln!("autocat-serve: journal: {e}");
                    }
                    break claim;
                }
                jobs = wait(&shared.signal, jobs);
            }
        };
        let (id, scenario) = claimed;
        let result = run_job(shared, id, &scenario);
        {
            let mut jobs = lock(&shared.jobs);
            match jobs.iter_mut().find(|j| j.status.job == id) {
                // Jobs are never removed from the table, so a vanished
                // claim means corruption elsewhere; log and keep serving
                // the remaining jobs rather than killing the worker.
                None => eprintln!("autocat-serve: claimed job {id} vanished from the table"),
                Some(job) => {
                    if let Err(e) = result {
                        job.status.state = JobState::Failed;
                        job.status.error = Some(e);
                        if let Err(e) =
                            lock(&shared.journal).append(&terminal_record("failed", &job.status))
                        {
                            eprintln!("autocat-serve: journal: {e}");
                        }
                    }
                }
            }
        }
        shared.signal.notify_all();
    }
}

/// Trains one job through the shared one-shot code path and stores the
/// checkpoint. See the module docs for the determinism contract.
fn run_job(shared: &Shared, id: u64, scenario: &Scenario) -> Result<(), String> {
    let spec = spec_digest(scenario);
    let mut trainer = train_trainer(scenario, |steps, avg_return| {
        if let Ok(mut jobs) = shared.jobs.lock() {
            if let Some(job) = jobs.iter_mut().find(|j| j.status.job == id) {
                job.status.steps = steps;
                job.status.avg_return = avg_return;
                job.progress.push((steps, avg_return));
            }
        }
        shared.signal.notify_all();
    })?;
    // Capture the canonical bytes *before* evaluation — the exact order
    // `sweep::train_one` and `scenario-run --ckpt` save in, which is what
    // makes the stored object byte-identical to theirs.
    let bytes = codec::encode(&trainer.to_checkpoint_value());
    let (row, stats) = row_and_stats(&mut trainer, scenario);
    let (_, net, _) = trainer.parts_mut();
    let params = params_digest(net);

    let digest = lock(&shared.store).put_bytes(
        EntryMeta {
            scenario: scenario.name.clone(),
            spec_digest: spec,
            params_digest: params,
            steps: row.steps,
            accuracy: row.accuracy(),
            created_unix: now_unix(),
        },
        &bytes,
    )?;

    let mut jobs = lock(&shared.jobs);
    let job = jobs
        .iter_mut()
        .find(|j| j.status.job == id)
        .ok_or_else(|| format!("job {id} vanished"))?;
    job.status.state = JobState::Done;
    job.status.steps = row.steps;
    job.status.avg_return = row.final_return;
    job.status.digest = Some(digest);
    job.status.params_digest = Some(params);
    job.status.eval_digest = Some(stats.digest());
    job.status.accuracy = Some(row.accuracy());
    if let Err(e) = lock(&shared.journal).append(&terminal_record("done", &job.status)) {
        eprintln!("autocat-serve: journal: {e}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

fn serve_connection(shared: &Shared, stream: TcpStream, local: &str) -> Result<(), String> {
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut greeted = false;
    while let Some(line) = proto::read_line(&mut reader)? {
        let request = match Request::from_value(&line) {
            Ok(request) => request,
            Err(e) => {
                write_error(&mut writer, ErrorKind::BadRequest, &e)?;
                continue;
            }
        };
        if let Request::Hello { version } = request {
            if version != PROTOCOL_VERSION {
                write_error(
                    &mut writer,
                    ErrorKind::VersionMismatch,
                    &format!("client speaks v{version}, this daemon speaks v{PROTOCOL_VERSION}"),
                )?;
                return Ok(());
            }
            greeted = true;
            proto::write_line(
                &mut writer,
                &Response::Hello {
                    version: PROTOCOL_VERSION,
                }
                .to_value(),
            )
            .map_err(|e| e.to_string())?;
            continue;
        }
        if !greeted {
            write_error(
                &mut writer,
                ErrorKind::BadRequest,
                "expected the `hello` handshake before any other request",
            )?;
            return Ok(());
        }
        match handle(shared, &request, &mut writer) {
            Ok(Some(response)) => {
                proto::write_line(&mut writer, &response.to_value()).map_err(|e| e.to_string())?;
            }
            Ok(None) => {} // watch/fetch wrote their own lines
            Err((kind, message)) => write_error(&mut writer, kind, &message)?,
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Wake the accept loop so `run` can join the workers and exit.
            let _ = TcpStream::connect(local);
            break;
        }
    }
    Ok(())
}

fn write_error(writer: &mut TcpStream, kind: ErrorKind, message: &str) -> Result<(), String> {
    proto::write_line(
        writer,
        &Response::Error {
            kind,
            message: message.to_string(),
        }
        .to_value(),
    )
    .map_err(|e| e.to_string())
}

/// Dispatches one request — an exhaustive match over the typed protocol.
/// `Ok(None)` means the handler wrote its own lines (the `watch` event
/// stream, the `fetch` chunk body); a [`Fault`] becomes an error response.
fn handle(
    shared: &Shared,
    request: &Request,
    writer: &mut TcpStream,
) -> Result<Option<Response>, Fault> {
    match request {
        // Handled by the connection loop before dispatch; answering again
        // keeps re-handshakes harmless.
        Request::Hello { .. } => Ok(Some(Response::Hello {
            version: PROTOCOL_VERSION,
        })),
        Request::Ping => Ok(Some(Response::Pong)),
        Request::Submit {
            source,
            overrides,
            priority,
        } => submit(shared, source, overrides, *priority).map(Some),
        Request::Status { job } => status(shared, *job).map(Some),
        Request::Watch { job } => watch(shared, *job, writer).map(|()| None),
        Request::Fetch { key } => fetch(shared, key, writer).map(|()| None),
        Request::Gc {
            max_count,
            max_age_secs,
            keep,
        } => gc(shared, *max_count, *max_age_secs, keep).map(Some),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.signal.notify_all();
            Ok(Some(Response::ShuttingDown))
        }
    }
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

fn submit(
    shared: &Shared,
    source: &JobSource,
    overrides: &TrainOverrides,
    priority: i64,
) -> Result<Response, Fault> {
    let mut scenario = match source {
        JobSource::Registry(name) => autocat_scenario::lookup(name).ok_or_else(|| {
            fault(
                ErrorKind::UnknownScenario,
                format!("unknown scenario `{name}` (not in the registry)"),
            )
        })?,
        JobSource::Inline(scenario) => (**scenario).clone(),
    };
    overrides.apply(&mut scenario);
    scenario
        .validate()
        .map_err(|e| fault(ErrorKind::BadRequest, e))?;
    let spec = spec_digest(&scenario);

    let mut jobs = lock(&shared.jobs);
    // Dedup: attach to a live (queued/running) job with the same spec...
    if let Some(job) = jobs.iter().rev().find(|j| {
        j.status.spec_digest == spec
            && matches!(j.status.state, JobState::Queued | JobState::Running)
    }) {
        return Ok(Response::Submitted {
            job: job.status.job,
            spec_digest: spec,
            attached: true,
        });
    }
    // ...or to a done job whose object the store still holds (a gc'd
    // object or a failed job means a fresh run).
    if let Some(job) = jobs
        .iter()
        .rev()
        .find(|j| j.status.spec_digest == spec && j.status.state == JobState::Done)
    {
        let alive = job
            .status
            .digest
            .is_some_and(|digest| lock(&shared.store).find(digest).is_some());
        if alive {
            return Ok(Response::Submitted {
                job: job.status.job,
                spec_digest: spec,
                attached: true,
            });
        }
    }

    let id = jobs.iter().map(|j| j.status.job).max().unwrap_or(0) + 1;
    let status = JobStatus {
        job: id,
        scenario: scenario.name.clone(),
        spec_digest: spec,
        priority,
        state: JobState::Queued,
        steps: 0,
        avg_return: 0.0,
        digest: None,
        params_digest: None,
        eval_digest: None,
        accuracy: None,
        error: None,
    };
    // Journal before acknowledging: once the client hears an id, the job
    // must survive any crash.
    lock(&shared.journal)
        .append(&submit_record(&status, &scenario))
        .map_err(|e| fault(ErrorKind::Internal, e))?;
    jobs.push(Job {
        status,
        scenario,
        progress: Vec::new(),
    });
    drop(jobs);
    shared.signal.notify_all();

    Ok(Response::Submitted {
        job: id,
        spec_digest: spec,
        attached: false,
    })
}

fn status(shared: &Shared, job: Option<u64>) -> Result<Response, Fault> {
    let jobs = lock(&shared.jobs);
    let selected = match job {
        Some(id) => {
            let job = jobs
                .iter()
                .find(|j| j.status.job == id)
                .ok_or_else(|| fault(ErrorKind::UnknownJob, format!("no job {id}")))?;
            vec![job.status.clone()]
        }
        None => jobs.iter().map(|j| j.status.clone()).collect(),
    };
    Ok(Response::Status { jobs: selected })
}

/// Streams a job's full progress log (every watcher sees the identical
/// sequence, regardless of when it attached), then one terminal
/// `done`/`failed` event.
fn watch(shared: &Shared, id: u64, writer: &mut TcpStream) -> Result<(), Fault> {
    let mut sent = 0usize;
    loop {
        let (events, terminal) = {
            let mut jobs = lock(&shared.jobs);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Err(fault(ErrorKind::Shutdown, "daemon shutting down"));
                }
                let job = jobs
                    .iter()
                    .find(|j| j.status.job == id)
                    .ok_or_else(|| fault(ErrorKind::UnknownJob, format!("no job {id}")))?;
                let events: Vec<Event> = job.progress[sent.min(job.progress.len())..]
                    .iter()
                    .map(|&(steps, avg_return)| Event::Progress {
                        job: id,
                        steps,
                        avg_return,
                    })
                    .collect();
                let terminal = match job.status.state {
                    JobState::Done => Some(Event::Done {
                        status: job.status.clone(),
                    }),
                    JobState::Failed => Some(Event::Failed {
                        job: id,
                        error: job
                            .status
                            .error
                            .clone()
                            .unwrap_or_else(|| "unknown error".into()),
                    }),
                    _ => None,
                };
                if !events.is_empty() || terminal.is_some() {
                    break (events, terminal);
                }
                jobs = wait(&shared.signal, jobs);
            }
        };
        sent += events.len();
        for event in &events {
            proto::write_line(writer, &event.to_value())
                .map_err(|e| fault(ErrorKind::Internal, e.to_string()))?;
        }
        if let Some(event) = terminal {
            proto::write_line(writer, &event.to_value())
                .map_err(|e| fault(ErrorKind::Internal, e.to_string()))?;
            return Ok(());
        }
    }
}

/// Resolves the fetch key, reads and digest-verifies the object, and
/// streams its bytes: the `Response::Fetch` line, then length-prefixed
/// chunks (see the protocol docs). No server-local path crosses the wire.
fn fetch(shared: &Shared, key: &FetchKey, writer: &mut TcpStream) -> Result<(), Fault> {
    let (entry, bytes): (StoreEntry, Vec<u8>) = {
        let store = lock(&shared.store);
        let entry = match key {
            FetchKey::Scenario { name, which } => match which {
                Which::Best => store.best(name),
                Which::Latest => store.latest(name),
            }
            .ok_or_else(|| {
                fault(
                    ErrorKind::NotFound,
                    format!("no stored checkpoint for `{name}`"),
                )
            })?,
            FetchKey::Digest(digest) => store.find(*digest).ok_or_else(|| {
                fault(
                    ErrorKind::NotFound,
                    format!("no stored object {}", autocat_store::digest_hex(*digest)),
                )
            })?,
        };
        // fetch_bytes digest-verifies: a corrupt object fails the fetch
        // here, it never surfaces as silently-wrong weights on a client.
        let bytes = store
            .fetch_bytes(entry.digest)
            .map_err(|e| fault(ErrorKind::Internal, e))?;
        (entry.clone(), bytes)
    };
    let response = Response::Fetch {
        entry,
        len: bytes.len() as u64,
    };
    proto::write_line(writer, &response.to_value())
        .map_err(|e| fault(ErrorKind::Internal, e.to_string()))?;
    proto::write_chunks(writer, &bytes).map_err(|e| fault(ErrorKind::Internal, e.to_string()))
}

fn gc(
    shared: &Shared,
    max_count: Option<u64>,
    max_age_secs: Option<u64>,
    keep: &[String],
) -> Result<Response, Fault> {
    let mut policy = RetentionPolicy::default();
    if let Some(count) = max_count {
        policy.max_count = count as usize;
    }
    if let Some(age) = max_age_secs {
        policy.max_age_secs = age;
    }
    policy.keep_patterns.extend(keep.iter().cloned());
    let stats = lock(&shared.store)
        .gc(&policy, now_unix())
        .map_err(|e| fault(ErrorKind::Internal, e))?;
    Ok(Response::Gc {
        removed_entries: stats.removed_entries as u64,
        removed_objects: stats.removed_objects as u64,
        kept_entries: stats.kept_entries as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued_status(id: u64, spec: u64, priority: i64) -> JobStatus {
        JobStatus {
            job: id,
            scenario: "table4-6".into(),
            spec_digest: spec,
            priority,
            state: JobState::Queued,
            steps: 0,
            avg_return: 0.0,
            digest: None,
            params_digest: None,
            eval_digest: None,
            accuracy: None,
            error: None,
        }
    }

    #[test]
    fn replay_reconstructs_states_and_reenqueues_interrupted_jobs() {
        let scenario = autocat_scenario::lookup("table4-6").unwrap();
        let a = queued_status(1, 0x11, 0);
        let b = queued_status(2, 0x22, 5);
        let c = queued_status(3, 0x33, 0);
        let mut done = a.clone();
        done.state = JobState::Done;
        done.steps = 512;
        done.digest = Some(0xaa);
        done.params_digest = Some(0xbb);
        done.eval_digest = Some(0xcc);
        done.accuracy = Some(1.0);
        let records = vec![
            submit_record(&a, &scenario),
            submit_record(&b, &scenario),
            running_record(1),
            terminal_record("done", &done),
            running_record(2), // interrupted: no terminal record
            submit_record(&c, &scenario),
        ];
        let (jobs, interrupted) = replay(&records).unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(interrupted, 1);
        assert_eq!(jobs[0].status, done, "terminal status replayed whole");
        assert_eq!(jobs[1].status.state, JobState::Queued, "re-enqueued");
        assert_eq!(jobs[1].status.priority, 5, "priority survives replay");
        assert_eq!(jobs[2].status.state, JobState::Queued);
        assert_eq!(jobs[2].scenario.name, "table4-6");
    }

    #[test]
    fn replay_rejects_unknown_ops_and_dangling_ids() {
        let mut bogus = Value::table();
        bogus.set("op", Value::Str("explode".into()));
        let err = replay(&[bogus]).unwrap_err();
        assert!(err.contains("unknown op"), "{err}");

        let err = replay(&[running_record(7)]).unwrap_err();
        assert!(err.contains("unknown job 7"), "{err}");
    }
}
