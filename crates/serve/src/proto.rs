//! The wire protocol: a typed, versioned request/response/event contract
//! carried as newline-delimited JSON over TCP.
//!
//! Every message is a [`Request`], [`Response`] or [`Event`] enum value
//! that round-trips through the workspace's own [`Value`]/JSON codec —
//! `to_json` emits no raw newlines, so one message is always exactly one
//! line. There is no async runtime: a `std::net` socket per client, a
//! `std::thread` per connection, and a worker pool draining the job
//! queue (the vendored dependency shims are offline stand-ins, so the
//! daemon is plain threads by design).
//!
//! # Handshake
//!
//! A connection opens with a version handshake: the client sends
//! `Request::Hello` carrying [`PROTOCOL_VERSION`], the server answers
//! `Response::Hello` with its own version, and any mismatch is a
//! [`ErrorKind::VersionMismatch`] error that closes the connection.
//! Every other request before the handshake is a `BadRequest`.
//!
//! # Message shapes
//!
//! Requests carry a `req` discriminator, responses `resp`, events
//! `event` (the tables below are pinned byte-for-byte by the golden
//! fixture test in `tests/proto_golden.rs`):
//!
//! ```text
//! {"req": "hello", "version": 2}
//! {"req": "submit", "scenario": "table4-3", "overrides": {"steps": 512}, "priority": 5}
//! {"req": "submit", "inline": { ...Scenario JSON... }}
//! {"req": "status", "job": 1}            # omit "job" for all jobs
//! {"req": "watch", "job": 1}             # answered by an event stream
//! {"req": "fetch", "scenario": "table4-3", "which": "best"}
//! {"req": "fetch", "digest": "16-hex"}   # host-independent object fetch
//! {"req": "gc", "max_count": 2, "keep": ["defense-*"]}
//!
//! {"resp": "submitted", "job": 1, "spec_digest": "16-hex", "attached": false}
//! {"resp": "error", "kind": "unknown-job", "message": "no job 7"}
//!
//! {"event": "progress", "job": 1, "steps": 4096, "avg_return": 0.5}
//! {"event": "done", "status": { ...JobStatus... }}
//! ```
//!
//! # Streamed fetch
//!
//! `fetch` is the one response followed by non-JSON bytes: after the
//! `Response::Fetch` line (which announces the byte length), the object's
//! canonical bytes follow in length-prefixed chunks — a 4-byte big-endian
//! length then that many bytes, terminated by a zero-length frame
//! ([`write_chunks`]/[`read_chunks`]). The client re-verifies the
//! assembled bytes against the entry's content digest, so the transfer is
//! host-independent *and* corruption-evident: no server-local paths cross
//! the wire.
//!
//! Digests travel as 16-hex strings (the store's object-name form).

use autocat_scenario::run::TrainOverrides;
use autocat_scenario::value::{self, req, u64_from, u64_value, Value};
use autocat_scenario::Scenario;
use autocat_store::StoreEntry;
use std::io::{BufRead, Read, Write};

/// Protocol version spoken by this build. Version 1 was the untyped
/// `{"cmd": ...}` map protocol (PR 7); version 2 is the typed enum
/// contract with the `hello` handshake, durable jobs and streamed fetch.
pub const PROTOCOL_VERSION: u32 = 2;

/// Chunk size for streamed fetch frames.
pub const FETCH_CHUNK: usize = 64 * 1024;

/// Hard cap on a single fetch frame — anything larger is a corrupt or
/// hostile stream, refused before allocation.
const MAX_FRAME: u32 = 4 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Line transport
// ---------------------------------------------------------------------------

/// Writes one [`Value`] as one protocol line.
///
/// # Errors
///
/// Returns the underlying I/O error (a vanished client, usually).
pub fn write_line(stream: &mut impl Write, payload: &Value) -> std::io::Result<()> {
    let mut line = value::to_json(payload);
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Reads one protocol line; `Ok(None)` is a clean EOF.
///
/// # Errors
///
/// Returns an error on unreadable input or malformed JSON.
pub fn read_line(reader: &mut impl BufRead) -> Result<Option<Value>, String> {
    let mut line = String::new();
    // Tolerate blank keep-alive lines between requests. A loop, not
    // recursion: a client streaming blank lines must not grow the stack.
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading protocol line: {e}"))?;
        if n == 0 {
            return Ok(None);
        }
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            return value::from_json(trimmed).map(Some);
        }
    }
}

/// Writes `bytes` as length-prefixed chunks plus the zero-length
/// terminator frame (the streamed-fetch body; see the module docs).
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_chunks(stream: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    for chunk in bytes.chunks(FETCH_CHUNK) {
        stream.write_all(&(chunk.len() as u32).to_be_bytes())?;
        stream.write_all(chunk)?;
    }
    stream.write_all(&0u32.to_be_bytes())
}

/// Reads a [`write_chunks`] stream, expecting exactly `expect_len` total
/// bytes (announced by the `Response::Fetch` line).
///
/// # Errors
///
/// Returns an error on I/O failure, an oversized frame, or a total that
/// disagrees with `expect_len` in either direction.
pub fn read_chunks(stream: &mut impl Read, expect_len: u64) -> Result<Vec<u8>, String> {
    // Preallocate bounded by the frame cap, not the announced length — a
    // hostile announcement must not reserve memory it never sends.
    let mut out = Vec::with_capacity(expect_len.min(u64::from(MAX_FRAME)) as usize);
    loop {
        let mut len = [0u8; 4];
        stream
            .read_exact(&mut len)
            .map_err(|e| format!("reading chunk header: {e}"))?;
        let len = u32::from_be_bytes(len);
        if len == 0 {
            break;
        }
        if len > MAX_FRAME {
            return Err(format!(
                "chunk frame of {len} bytes exceeds the {MAX_FRAME} cap"
            ));
        }
        if out.len() as u64 + u64::from(len) > expect_len {
            return Err(format!(
                "chunk stream exceeds the announced {expect_len} bytes"
            ));
        }
        let start = out.len();
        out.resize(start + len as usize, 0);
        stream
            .read_exact(&mut out[start..])
            .map_err(|e| format!("reading {len}-byte chunk: {e}"))?;
    }
    if out.len() as u64 != expect_len {
        return Err(format!(
            "chunk stream ended at {} of the announced {expect_len} bytes",
            out.len()
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Shared encoding helpers (private: the enum codecs are the public API)
// ---------------------------------------------------------------------------

fn digest_str(digest: u64) -> Value {
    Value::Str(autocat_store::digest_hex(digest))
}

fn digest_from(value: &Value) -> Result<u64, String> {
    autocat_store::digest_from_hex(value.as_str()?)
}

fn f32_value(x: f32) -> Value {
    // Widening is exact, so the f32 bit pattern survives the round trip.
    Value::Float(f64::from(x))
}

fn discriminator<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    req(value.as_table()?, key)?.as_str()
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Structured error category carried by [`Response::Error`] — clients
/// branch on the kind, humans read the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed or out-of-order request (including a missing handshake).
    BadRequest,
    /// The two ends speak different protocol versions.
    VersionMismatch,
    /// `submit` named a scenario the registry does not know.
    UnknownScenario,
    /// `status`/`watch` named a job id the table does not hold.
    UnknownJob,
    /// `fetch` found no matching checkpoint.
    NotFound,
    /// A server-side failure (store I/O, journal I/O, training errors
    /// surface as job `failed` events instead).
    Internal,
    /// The daemon is shutting down and cannot serve the request.
    Shutdown,
}

impl ErrorKind {
    /// The wire slug for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::VersionMismatch => "version-mismatch",
            ErrorKind::UnknownScenario => "unknown-scenario",
            ErrorKind::UnknownJob => "unknown-job",
            ErrorKind::NotFound => "not-found",
            ErrorKind::Internal => "internal",
            ErrorKind::Shutdown => "shutdown",
        }
    }

    fn parse(slug: &str) -> Result<ErrorKind, String> {
        Ok(match slug {
            "bad-request" => ErrorKind::BadRequest,
            "version-mismatch" => ErrorKind::VersionMismatch,
            "unknown-scenario" => ErrorKind::UnknownScenario,
            "unknown-job" => ErrorKind::UnknownJob,
            "not-found" => ErrorKind::NotFound,
            "internal" => ErrorKind::Internal,
            "shutdown" => ErrorKind::Shutdown,
            other => return Err(format!("unknown error kind `{other}`")),
        })
    }
}

/// A structured daemon-side failure: the [`ErrorKind`] plus a
/// human-readable message. Handlers return `Result<_, Fault>`; the
/// connection loop renders the `Err` arm as a [`Response::Error`] line.
pub type Fault = (ErrorKind, String);

/// Builds a [`Fault`] (ergonomics for `ok_or_else`/`map_err` chains).
pub fn fault(kind: ErrorKind, message: impl Into<String>) -> Fault {
    (kind, message.into())
}

// ---------------------------------------------------------------------------
// Job table entries
// ---------------------------------------------------------------------------

/// A job's lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting for a worker (or re-enqueued by journal replay).
    Queued,
    /// A worker is training it.
    Running,
    /// Trained, evaluated and stored; the digest fields are populated.
    Done,
    /// Training failed; the error field says why.
    Failed,
}

impl JobState {
    /// The wire slug for this state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    fn parse(slug: &str) -> Result<JobState, String> {
        Ok(match slug {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            other => return Err(format!("unknown job state `{other}`")),
        })
    }
}

/// Everything the protocol reports about one job — the payload of
/// `status` responses and terminal `done` events.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    /// Job id (dense, 1-based, stable across daemon restarts).
    pub job: u64,
    /// Scenario name the job trains.
    pub scenario: String,
    /// Train-spec digest (the dedup key).
    pub spec_digest: u64,
    /// Scheduling priority (higher runs first; FIFO within a priority).
    pub priority: i64,
    /// Lifecycle state.
    pub state: JobState,
    /// Environment steps trained so far (final count once done).
    pub steps: u64,
    /// Trailing average episode return.
    pub avg_return: f32,
    /// Content digest of the stored checkpoint (done jobs).
    pub digest: Option<u64>,
    /// Weight digest of the checkpoint (done jobs).
    pub params_digest: Option<u64>,
    /// Evaluation stats digest (done jobs).
    pub eval_digest: Option<u64>,
    /// Evaluation accuracy (done jobs).
    pub accuracy: Option<f64>,
    /// Failure message (failed jobs).
    pub error: Option<String>,
}

impl JobStatus {
    /// Encodes the status as a [`Value`] table (optional fields omitted
    /// when absent).
    pub fn to_value(&self) -> Value {
        let mut table = Value::table();
        table.set("job", u64_value(self.job));
        table.set("scenario", Value::Str(self.scenario.clone()));
        table.set("spec_digest", digest_str(self.spec_digest));
        table.set("priority", Value::Int(self.priority));
        table.set("state", Value::Str(self.state.as_str().to_string()));
        table.set("steps", u64_value(self.steps));
        table.set("avg_return", f32_value(self.avg_return));
        if let Some(digest) = self.digest {
            table.set("digest", digest_str(digest));
        }
        if let Some(digest) = self.params_digest {
            table.set("params_digest", digest_str(digest));
        }
        if let Some(digest) = self.eval_digest {
            table.set("eval_digest", digest_str(digest));
        }
        if let Some(accuracy) = self.accuracy {
            table.set("accuracy", Value::Float(accuracy));
        }
        if let Some(error) = &self.error {
            table.set("error", Value::Str(error.clone()));
        }
        table
    }

    /// Decodes a status written by [`JobStatus::to_value`].
    ///
    /// # Errors
    ///
    /// Returns an error on missing keys or mistyped values.
    pub fn from_value(value: &Value) -> Result<JobStatus, String> {
        let table = value.as_table()?;
        let opt_digest = |key: &str| table.get(key).map(digest_from).transpose();
        Ok(JobStatus {
            job: u64_from(req(table, "job")?)?,
            scenario: req(table, "scenario")?.as_str()?.to_string(),
            spec_digest: digest_from(req(table, "spec_digest")?)?,
            priority: req(table, "priority")?.as_i64()?,
            state: JobState::parse(req(table, "state")?.as_str()?)?,
            steps: u64_from(req(table, "steps")?)?,
            avg_return: req(table, "avg_return")?.as_f32()?,
            digest: opt_digest("digest")?,
            params_digest: opt_digest("params_digest")?,
            eval_digest: opt_digest("eval_digest")?,
            accuracy: table.get("accuracy").map(Value::as_f64).transpose()?,
            error: table
                .get("error")
                .map(|e| e.as_str().map(str::to_string))
                .transpose()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// What a `submit` request trains: a registry name or a full inline
/// scenario (shipped by `submit --file`, so the daemon needs no
/// filesystem agreement with the client).
#[derive(Clone, Debug, PartialEq)]
pub enum JobSource {
    /// A scenario name resolved against the daemon's registry.
    Registry(String),
    /// A complete scenario carried in the request.
    Inline(Box<Scenario>),
}

/// Which stored checkpoint a scenario-keyed fetch resolves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Which {
    /// Highest recorded accuracy, ties toward the newest.
    Best,
    /// Most recently stored.
    Latest,
}

impl Which {
    /// The wire slug.
    pub fn as_str(self) -> &'static str {
        match self {
            Which::Best => "best",
            Which::Latest => "latest",
        }
    }

    /// Parses a wire/CLI slug.
    ///
    /// # Errors
    ///
    /// Returns an error on anything but `best`/`latest`.
    pub fn parse(slug: &str) -> Result<Which, String> {
        Ok(match slug {
            "best" => Which::Best,
            "latest" => Which::Latest,
            other => return Err(format!("unknown fetch mode `{other}` (best|latest)")),
        })
    }
}

/// How a `fetch` request names its object.
#[derive(Clone, Debug, PartialEq)]
pub enum FetchKey {
    /// A scenario's best/latest checkpoint.
    Scenario {
        /// Scenario name.
        name: String,
        /// Selection rule.
        which: Which,
    },
    /// An exact object by content digest (the key a `done` event or a
    /// prior `status` reported — how [`crate::client::JobHandle`] fetches
    /// its own artifact).
    Digest(u64),
}

/// One client request. The server's dispatch is an exhaustive match on
/// this enum — adding a variant without handling it is a compile error.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// The version handshake; must be the first request on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Liveness probe.
    Ping,
    /// Queue a training job (or attach to an equivalent one — see the
    /// dedup contract in the server docs).
    Submit {
        /// What to train.
        source: JobSource,
        /// Per-job training overrides (`--threads` never travels).
        overrides: TrainOverrides,
        /// Scheduling priority; higher runs first, default 0.
        priority: i64,
    },
    /// Report one job (`job: Some`) or the whole table.
    Status {
        /// Job id, or `None` for all jobs.
        job: Option<u64>,
    },
    /// Stream a job's progress events, then its terminal event.
    Watch {
        /// Job id.
        job: u64,
    },
    /// Stream a stored checkpoint's bytes (see the module docs).
    Fetch {
        /// Which object.
        key: FetchKey,
    },
    /// Apply a retention policy to the store.
    Gc {
        /// Keep at most N entries per scenario (`None` = unlimited).
        max_count: Option<u64>,
        /// Drop entries older than this many seconds (`None` = unlimited).
        max_age_secs: Option<u64>,
        /// Glob patterns of scenario names exempt from removal.
        keep: Vec<String>,
    },
    /// Drain and exit.
    Shutdown,
}

impl Request {
    /// Encodes the request as its wire [`Value`].
    pub fn to_value(&self) -> Value {
        let mut table = Value::table();
        match self {
            Request::Hello { version } => {
                table.set("req", Value::Str("hello".into()));
                table.set("version", Value::Int(i64::from(*version)));
            }
            Request::Ping => table.set("req", Value::Str("ping".into())),
            Request::Submit {
                source,
                overrides,
                priority,
            } => {
                table.set("req", Value::Str("submit".into()));
                match source {
                    JobSource::Registry(name) => {
                        table.set("scenario", Value::Str(name.clone()));
                    }
                    JobSource::Inline(scenario) => {
                        table.set("inline", scenario.to_value());
                    }
                }
                let overrides = overrides.to_value();
                if overrides != Value::table() {
                    table.set("overrides", overrides);
                }
                if *priority != 0 {
                    table.set("priority", Value::Int(*priority));
                }
            }
            Request::Status { job } => {
                table.set("req", Value::Str("status".into()));
                if let Some(job) = job {
                    table.set("job", u64_value(*job));
                }
            }
            Request::Watch { job } => {
                table.set("req", Value::Str("watch".into()));
                table.set("job", u64_value(*job));
            }
            Request::Fetch { key } => {
                table.set("req", Value::Str("fetch".into()));
                match key {
                    FetchKey::Scenario { name, which } => {
                        table.set("scenario", Value::Str(name.clone()));
                        table.set("which", Value::Str(which.as_str().to_string()));
                    }
                    FetchKey::Digest(digest) => table.set("digest", digest_str(*digest)),
                }
            }
            Request::Gc {
                max_count,
                max_age_secs,
                keep,
            } => {
                table.set("req", Value::Str("gc".into()));
                if let Some(count) = max_count {
                    table.set("max_count", u64_value(*count));
                }
                if let Some(age) = max_age_secs {
                    table.set("max_age_secs", u64_value(*age));
                }
                if !keep.is_empty() {
                    table.set(
                        "keep",
                        Value::Array(keep.iter().map(|p| Value::Str(p.clone())).collect()),
                    );
                }
            }
            Request::Shutdown => table.set("req", Value::Str("shutdown".into())),
        }
        table
    }

    /// Decodes a wire [`Value`] into a request.
    ///
    /// # Errors
    ///
    /// Returns an error on an unknown discriminator, missing keys or
    /// mistyped values.
    pub fn from_value(value: &Value) -> Result<Request, String> {
        let table = value.as_table()?;
        Ok(match discriminator(value, "req")? {
            "hello" => Request::Hello {
                version: req(table, "version")?.as_u32()?,
            },
            "ping" => Request::Ping,
            "submit" => {
                let source =
                    match (table.get("scenario"), table.get("inline")) {
                        (Some(name), None) => JobSource::Registry(name.as_str()?.to_string()),
                        (None, Some(inline)) => JobSource::Inline(Box::new(Scenario::from_json(
                            &value::to_json(inline),
                        )?)),
                        _ => return Err(
                            "submit needs exactly one of `scenario` (registry name) or `inline`"
                                .into(),
                        ),
                    };
                Request::Submit {
                    source,
                    overrides: match table.get("overrides") {
                        Some(overrides) => TrainOverrides::from_value(overrides)?,
                        None => TrainOverrides::default(),
                    },
                    priority: match table.get("priority") {
                        Some(priority) => priority.as_i64()?,
                        None => 0,
                    },
                }
            }
            "status" => Request::Status {
                job: table.get("job").map(u64_from).transpose()?,
            },
            "watch" => Request::Watch {
                job: u64_from(req(table, "job")?)?,
            },
            "fetch" => {
                let key = match (table.get("scenario"), table.get("digest")) {
                    (Some(name), None) => FetchKey::Scenario {
                        name: name.as_str()?.to_string(),
                        which: match table.get("which") {
                            Some(which) => Which::parse(which.as_str()?)?,
                            None => Which::Best,
                        },
                    },
                    (None, Some(digest)) => FetchKey::Digest(digest_from(digest)?),
                    _ => return Err("fetch needs exactly one of `scenario` or `digest`".into()),
                };
                Request::Fetch { key }
            }
            "gc" => Request::Gc {
                max_count: table.get("max_count").map(u64_from).transpose()?,
                max_age_secs: table.get("max_age_secs").map(u64_from).transpose()?,
                keep: match table.get("keep") {
                    Some(patterns) => patterns
                        .as_array()?
                        .iter()
                        .map(|p| p.as_str().map(str::to_string))
                        .collect::<Result<_, _>>()?,
                    None => Vec::new(),
                },
            },
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown request `{other}`")),
        })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One server response. Every request gets exactly one (plus, for
/// `watch`, an event stream, and for `fetch`, the chunked byte body).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement carrying the server's version.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Answer to `ping`.
    Pong,
    /// Answer to `submit`: the job the submission resolved to.
    Submitted {
        /// Job id (a fresh job, or the equivalent job attached to).
        job: u64,
        /// The submission's train-spec digest (the dedup key).
        spec_digest: u64,
        /// Whether the submission attached to an existing equivalent job
        /// instead of queuing a new training run.
        attached: bool,
    },
    /// Answer to `status`.
    Status {
        /// One entry per requested job (the whole table when the request
        /// named none).
        jobs: Vec<JobStatus>,
    },
    /// Answer to `fetch`; the chunked byte body follows this line.
    Fetch {
        /// The store's metadata for the object.
        entry: StoreEntry,
        /// Exact byte length of the body.
        len: u64,
    },
    /// Answer to `gc`.
    Gc {
        /// Index entries removed.
        removed_entries: u64,
        /// Object files deleted.
        removed_objects: u64,
        /// Index entries surviving.
        kept_entries: u64,
    },
    /// Answer to `shutdown`.
    ShuttingDown,
    /// Any request's failure.
    Error {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes the response as its wire [`Value`].
    pub fn to_value(&self) -> Value {
        let mut table = Value::table();
        match self {
            Response::Hello { version } => {
                table.set("resp", Value::Str("hello".into()));
                table.set("version", Value::Int(i64::from(*version)));
            }
            Response::Pong => table.set("resp", Value::Str("pong".into())),
            Response::Submitted {
                job,
                spec_digest,
                attached,
            } => {
                table.set("resp", Value::Str("submitted".into()));
                table.set("job", u64_value(*job));
                table.set("spec_digest", digest_str(*spec_digest));
                table.set("attached", Value::Bool(*attached));
            }
            Response::Status { jobs } => {
                table.set("resp", Value::Str("status".into()));
                table.set(
                    "jobs",
                    Value::Array(jobs.iter().map(JobStatus::to_value).collect()),
                );
            }
            Response::Fetch { entry, len } => {
                table.set("resp", Value::Str("fetch".into()));
                table.set("entry", entry.to_value());
                table.set("len", u64_value(*len));
            }
            Response::Gc {
                removed_entries,
                removed_objects,
                kept_entries,
            } => {
                table.set("resp", Value::Str("gc".into()));
                table.set("removed_entries", u64_value(*removed_entries));
                table.set("removed_objects", u64_value(*removed_objects));
                table.set("kept_entries", u64_value(*kept_entries));
            }
            Response::ShuttingDown => table.set("resp", Value::Str("shutting-down".into())),
            Response::Error { kind, message } => {
                table.set("resp", Value::Str("error".into()));
                table.set("kind", Value::Str(kind.as_str().to_string()));
                table.set("message", Value::Str(message.clone()));
            }
        }
        table
    }

    /// Decodes a wire [`Value`] into a response.
    ///
    /// # Errors
    ///
    /// Returns an error on an unknown discriminator, missing keys or
    /// mistyped values.
    pub fn from_value(value: &Value) -> Result<Response, String> {
        let table = value.as_table()?;
        Ok(match discriminator(value, "resp")? {
            "hello" => Response::Hello {
                version: req(table, "version")?.as_u32()?,
            },
            "pong" => Response::Pong,
            "submitted" => Response::Submitted {
                job: u64_from(req(table, "job")?)?,
                spec_digest: digest_from(req(table, "spec_digest")?)?,
                attached: req(table, "attached")?.as_bool()?,
            },
            "status" => Response::Status {
                jobs: req(table, "jobs")?
                    .as_array()?
                    .iter()
                    .map(JobStatus::from_value)
                    .collect::<Result<_, _>>()?,
            },
            "fetch" => Response::Fetch {
                entry: StoreEntry::from_value(req(table, "entry")?)?,
                len: u64_from(req(table, "len")?)?,
            },
            "gc" => Response::Gc {
                removed_entries: u64_from(req(table, "removed_entries")?)?,
                removed_objects: u64_from(req(table, "removed_objects")?)?,
                kept_entries: u64_from(req(table, "kept_entries")?)?,
            },
            "shutting-down" => Response::ShuttingDown,
            "error" => Response::Error {
                kind: ErrorKind::parse(req(table, "kind")?.as_str()?)?,
                message: req(table, "message")?.as_str()?.to_string(),
            },
            other => return Err(format!("unknown response `{other}`")),
        })
    }
}

// ---------------------------------------------------------------------------
// Events (watch streams)
// ---------------------------------------------------------------------------

/// One line of a `watch` stream: progress while the job trains, then
/// exactly one terminal `Done`/`Failed` event. Every watcher of a job
/// receives the *same* stream — progress events are replayed from the
/// job's full progress log, not sampled at attach time.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// One PPO update's worth of progress.
    Progress {
        /// Job id.
        job: u64,
        /// Environment steps trained so far.
        steps: u64,
        /// Trailing average episode return.
        avg_return: f32,
    },
    /// The job finished; the status carries every digest fingerprint.
    Done {
        /// Final job status.
        status: JobStatus,
    },
    /// The job failed.
    Failed {
        /// Job id.
        job: u64,
        /// Failure message.
        error: String,
    },
}

impl Event {
    /// Encodes the event as its wire [`Value`].
    pub fn to_value(&self) -> Value {
        let mut table = Value::table();
        match self {
            Event::Progress {
                job,
                steps,
                avg_return,
            } => {
                table.set("event", Value::Str("progress".into()));
                table.set("job", u64_value(*job));
                table.set("steps", u64_value(*steps));
                table.set("avg_return", f32_value(*avg_return));
            }
            Event::Done { status } => {
                table.set("event", Value::Str("done".into()));
                table.set("status", status.to_value());
            }
            Event::Failed { job, error } => {
                table.set("event", Value::Str("failed".into()));
                table.set("job", u64_value(*job));
                table.set("error", Value::Str(error.clone()));
            }
        }
        table
    }

    /// Decodes a wire [`Value`] into an event.
    ///
    /// # Errors
    ///
    /// Returns an error on an unknown discriminator, missing keys or
    /// mistyped values.
    pub fn from_value(value: &Value) -> Result<Event, String> {
        let table = value.as_table()?;
        Ok(match discriminator(value, "event")? {
            "progress" => Event::Progress {
                job: u64_from(req(table, "job")?)?,
                steps: u64_from(req(table, "steps")?)?,
                avg_return: req(table, "avg_return")?.as_f32()?,
            },
            "done" => Event::Done {
                status: JobStatus::from_value(req(table, "status")?)?,
            },
            "failed" => Event::Failed {
                job: u64_from(req(table, "job")?)?,
                error: req(table, "error")?.as_str()?.to_string(),
            },
            other => return Err(format!("unknown event `{other}`")),
        })
    }
}

/// Whether a watch-stream line is an [`Event`] (as opposed to an error
/// [`Response`] aborting the stream).
pub fn is_event(value: &Value) -> bool {
    value
        .as_table()
        .map(|table| table.contains_key("event"))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_status(state: JobState) -> JobStatus {
        JobStatus {
            job: 3,
            scenario: "table4-6".into(),
            spec_digest: 0x0123_4567_89ab_cdef,
            priority: 2,
            state,
            steps: 4096,
            avg_return: 0.625,
            digest: (state == JobState::Done).then_some(0xaaaa),
            params_digest: (state == JobState::Done).then_some(0xbbbb),
            eval_digest: (state == JobState::Done).then_some(0xcccc),
            accuracy: (state == JobState::Done).then_some(0.97),
            error: (state == JobState::Failed).then(|| "boom".to_string()),
        }
    }

    fn sample_entry() -> StoreEntry {
        StoreEntry {
            scenario: "table4-6".into(),
            spec_digest: 0x1111,
            digest: 0x2222,
            params_digest: 0x3333,
            steps: 512,
            accuracy: 0.5,
            created_unix: 1_700_000_000,
        }
    }

    #[test]
    fn requests_round_trip_through_the_value_codec() {
        let overrides = TrainOverrides {
            steps: Some(512),
            seed: Some(9),
            ..TrainOverrides::default()
        };
        let requests = vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Ping,
            Request::Submit {
                source: JobSource::Registry("table4-6".into()),
                overrides,
                priority: 5,
            },
            Request::Submit {
                source: JobSource::Inline(Box::new(autocat_scenario::lookup("table4-3").unwrap())),
                overrides: TrainOverrides::default(),
                priority: 0,
            },
            Request::Status { job: None },
            Request::Status { job: Some(7) },
            Request::Watch { job: 7 },
            Request::Fetch {
                key: FetchKey::Scenario {
                    name: "table4-6".into(),
                    which: Which::Latest,
                },
            },
            Request::Fetch {
                key: FetchKey::Digest(0xdead_beef),
            },
            Request::Gc {
                max_count: Some(2),
                max_age_secs: None,
                keep: vec!["defense-*".into()],
            },
            Request::Shutdown,
        ];
        for request in requests {
            let back = Request::from_value(&request.to_value()).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn responses_round_trip_through_the_value_codec() {
        let responses = vec![
            Response::Hello {
                version: PROTOCOL_VERSION,
            },
            Response::Pong,
            Response::Submitted {
                job: 1,
                spec_digest: 0xfeed,
                attached: true,
            },
            Response::Status {
                jobs: vec![
                    sample_status(JobState::Queued),
                    sample_status(JobState::Running),
                    sample_status(JobState::Done),
                    sample_status(JobState::Failed),
                ],
            },
            Response::Fetch {
                entry: sample_entry(),
                len: 12_345,
            },
            Response::Gc {
                removed_entries: 1,
                removed_objects: 1,
                kept_entries: 3,
            },
            Response::ShuttingDown,
            Response::Error {
                kind: ErrorKind::UnknownJob,
                message: "no job 7".into(),
            },
        ];
        for response in responses {
            let back = Response::from_value(&response.to_value()).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn events_round_trip_and_sniff_as_events() {
        let events = vec![
            Event::Progress {
                job: 1,
                steps: 2048,
                avg_return: 0.123_456_7,
            },
            Event::Done {
                status: sample_status(JobState::Done),
            },
            Event::Failed {
                job: 1,
                error: "env exploded".into(),
            },
        ];
        for event in events {
            let value = event.to_value();
            assert!(is_event(&value));
            assert_eq!(Event::from_value(&value).unwrap(), event);
        }
        assert!(!is_event(&Response::Pong.to_value()));
    }

    #[test]
    fn unknown_discriminators_and_kinds_are_errors() {
        let mut bogus = Value::table();
        bogus.set("req", Value::Str("frobnicate".into()));
        assert!(Request::from_value(&bogus).unwrap_err().contains("unknown"));
        let mut bogus = Value::table();
        bogus.set("resp", Value::Str("frobnicate".into()));
        assert!(Response::from_value(&bogus)
            .unwrap_err()
            .contains("unknown"));
        let mut bogus = Value::table();
        bogus.set("event", Value::Str("frobnicate".into()));
        assert!(Event::from_value(&bogus).unwrap_err().contains("unknown"));
        assert!(ErrorKind::parse("nope").is_err());
        assert!(JobState::parse("nope").is_err());
        assert!(Which::parse("nope").is_err());
    }

    #[test]
    fn submit_requires_exactly_one_source_and_fetch_one_key() {
        let mut both = Value::table();
        both.set("req", Value::Str("submit".into()));
        assert!(Request::from_value(&both)
            .unwrap_err()
            .contains("exactly one"));
        let mut neither = Value::table();
        neither.set("req", Value::Str("fetch".into()));
        assert!(Request::from_value(&neither)
            .unwrap_err()
            .contains("exactly one"));
    }

    #[test]
    fn lines_round_trip_through_a_buffer() {
        let mut wire = Vec::new();
        write_line(&mut wire, &Request::Ping.to_value()).unwrap();
        write_line(&mut wire, &Response::Pong.to_value()).unwrap();

        let mut reader = std::io::BufReader::new(wire.as_slice());
        let first = read_line(&mut reader).unwrap().unwrap();
        assert_eq!(Request::from_value(&first).unwrap(), Request::Ping);
        let second = read_line(&mut reader).unwrap().unwrap();
        assert_eq!(Response::from_value(&second).unwrap(), Response::Pong);
        assert!(read_line(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn blank_line_floods_do_not_grow_the_stack() {
        // A connection thread has the default stack; a client sending a
        // long run of keep-alive blank lines must not overflow it.
        let mut wire = vec![b'\n'; 200_000];
        write_line(&mut wire, &Request::Ping.to_value()).unwrap();
        let request = std::thread::spawn(move || {
            let mut reader = std::io::BufReader::new(wire.as_slice());
            let value = read_line(&mut reader).unwrap().unwrap();
            assert!(read_line(&mut reader).unwrap().is_none(), "clean EOF");
            Request::from_value(&value).unwrap()
        })
        .join()
        .unwrap();
        assert_eq!(request, Request::Ping);
    }

    #[test]
    fn chunk_streams_round_trip_and_validate_length() {
        for len in [
            0usize,
            1,
            FETCH_CHUNK - 1,
            FETCH_CHUNK,
            FETCH_CHUNK * 2 + 17,
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut wire = Vec::new();
            write_chunks(&mut wire, &bytes).unwrap();
            let back = read_chunks(&mut wire.as_slice(), len as u64).unwrap();
            assert_eq!(back, bytes, "len {len}");
        }

        // Announced length disagreements fail in both directions.
        let mut wire = Vec::new();
        write_chunks(&mut wire, &[1, 2, 3]).unwrap();
        assert!(read_chunks(&mut wire.as_slice(), 2)
            .unwrap_err()
            .contains("exceeds"));
        let mut wire = Vec::new();
        write_chunks(&mut wire, &[1, 2, 3]).unwrap();
        assert!(read_chunks(&mut wire.as_slice(), 4)
            .unwrap_err()
            .contains("ended"));

        // A hostile frame length is refused before allocation.
        let mut wire = Vec::from(u32::MAX.to_be_bytes());
        wire.extend_from_slice(&[0; 8]);
        assert!(read_chunks(&mut wire.as_slice(), u64::MAX)
            .unwrap_err()
            .contains("cap"));
    }
}
