//! The typed client library: one [`Client`] per connection speaking the
//! versioned protocol (handshake included), and a [`JobHandle`] wrapping
//! a submitted job — `wait`/`events` for the watch stream, `artifact`
//! for a digest-verified fetch of the job's stored checkpoint. The CLI
//! subcommands (`crate::cmd`) and the integration tests are both built
//! on this, so there is exactly one implementation of the wire contract
//! on the client side.

use crate::proto::{self, Event, FetchKey, JobStatus, Request, Response, PROTOCOL_VERSION};
use autocat_store::{codec, StoreEntry};
use std::io::BufReader;
use std::net::TcpStream;

fn unexpected(response: &Response) -> String {
    format!(
        "unexpected response: {}",
        autocat_scenario::value::to_json(&response.to_value())
    )
}

/// One open, handshaken client connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running daemon and performs the `hello` version
    /// handshake.
    ///
    /// # Errors
    ///
    /// Returns an error when the daemon is unreachable or speaks a
    /// different protocol version.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| format!("connecting to {addr}: {e} (is the daemon running?)"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut client = Client {
            writer,
            reader: BufReader::new(stream),
        };
        match client.request(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::Hello { version } if version == PROTOCOL_VERSION => Ok(client),
            Response::Hello { version } => Err(format!(
                "daemon at {addr} speaks protocol v{version}, this client v{PROTOCOL_VERSION}"
            )),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends one request and returns the daemon's response; a
    /// [`Response::Error`] becomes this function's `Err`.
    ///
    /// # Errors
    ///
    /// Returns transport errors and daemon-reported faults alike.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        proto::write_line(&mut self.writer, &request.to_value()).map_err(|e| e.to_string())?;
        let line = proto::read_line(&mut self.reader)?
            .ok_or("daemon closed the connection mid-request")?;
        match Response::from_value(&line)? {
            Response::Error { kind, message } => {
                Err(format!("daemon: {}: {message}", kind.as_str()))
            }
            response => Ok(response),
        }
    }

    /// `ping` round trip.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn ping(&mut self) -> Result<(), String> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits a job and upgrades this connection into its [`JobHandle`].
    ///
    /// # Errors
    ///
    /// Returns submission errors (unknown scenario, invalid overrides).
    pub fn submit(
        mut self,
        source: proto::JobSource,
        overrides: autocat_scenario::run::TrainOverrides,
        priority: i64,
    ) -> Result<JobHandle, String> {
        match self.request(&Request::Submit {
            source,
            overrides,
            priority,
        })? {
            Response::Submitted {
                job,
                spec_digest,
                attached,
            } => Ok(JobHandle {
                client: self,
                job,
                spec_digest,
                attached,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the job table (or one job's entry).
    ///
    /// # Errors
    ///
    /// Returns transport errors and unknown-job faults.
    pub fn status(&mut self, job: Option<u64>) -> Result<Vec<JobStatus>, String> {
        match self.request(&Request::Status { job })? {
            Response::Status { jobs } => Ok(jobs),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches a stored checkpoint's metadata and bytes through the
    /// connection (length-prefixed chunks; see the protocol docs) and
    /// re-verifies the assembled bytes against the entry's content
    /// digest — host-independent and corruption-evident.
    ///
    /// # Errors
    ///
    /// Returns lookup faults, transport errors, and digest mismatches.
    pub fn fetch(&mut self, key: &FetchKey) -> Result<(StoreEntry, Vec<u8>), String> {
        let (entry, len) = match self.request(&Request::Fetch { key: key.clone() })? {
            Response::Fetch { entry, len } => (entry, len),
            other => return Err(unexpected(&other)),
        };
        let bytes = proto::read_chunks(&mut self.reader, len)?;
        let actual = codec::content_digest(&bytes);
        if actual != entry.digest {
            return Err(format!(
                "digest mismatch on fetched object: daemon says {}, bytes hash to {}",
                autocat_store::digest_hex(entry.digest),
                autocat_store::digest_hex(actual)
            ));
        }
        Ok((entry, bytes))
    }

    /// Applies a retention policy on the daemon's store; returns
    /// `(removed entries, removed objects, kept entries)`.
    ///
    /// # Errors
    ///
    /// Returns transport and store errors.
    pub fn gc(
        &mut self,
        max_count: Option<u64>,
        max_age_secs: Option<u64>,
        keep: Vec<String>,
    ) -> Result<(u64, u64, u64), String> {
        match self.request(&Request::Gc {
            max_count,
            max_age_secs,
            keep,
        })? {
            Response::Gc {
                removed_entries,
                removed_objects,
                kept_entries,
            } => Ok((removed_entries, removed_objects, kept_entries)),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Attaches to an existing job by id as a [`JobHandle`] (the watch
    /// side of dedup: any number of handles can follow one run).
    pub fn handle(self, job: u64, spec_digest: u64) -> JobHandle {
        JobHandle {
            client: self,
            job,
            spec_digest,
            attached: true,
        }
    }
}

/// A submitted (or attached-to) job: the connection plus the identifiers
/// `submit` answered with.
pub struct JobHandle {
    client: Client,
    /// The job id the submission resolved to.
    pub job: u64,
    /// The submission's train-spec digest (the dedup key).
    pub spec_digest: u64,
    /// Whether the submission attached to an existing equivalent job
    /// instead of queuing a fresh run.
    pub attached: bool,
}

impl JobHandle {
    /// Streams the job's watch events into `on_event` — the full progress
    /// log from the first update (identical for every watcher), then the
    /// terminal event — and returns the final status of a `done` job.
    ///
    /// # Errors
    ///
    /// Returns transport errors, daemon faults aborting the stream, and
    /// the job's own failure.
    pub fn events(&mut self, on_event: &mut dyn FnMut(&Event)) -> Result<JobStatus, String> {
        proto::write_line(
            &mut self.client.writer,
            &Request::Watch { job: self.job }.to_value(),
        )
        .map_err(|e| e.to_string())?;
        loop {
            let line = proto::read_line(&mut self.client.reader)?
                .ok_or("daemon closed the watch stream")?;
            if !proto::is_event(&line) {
                // A response line inside the stream is the daemon
                // aborting the watch (unknown job, shutdown).
                return match Response::from_value(&line)? {
                    Response::Error { kind, message } => {
                        Err(format!("daemon: {}: {message}", kind.as_str()))
                    }
                    other => Err(unexpected(&other)),
                };
            }
            let event = Event::from_value(&line)?;
            on_event(&event);
            match event {
                Event::Progress { .. } => {}
                Event::Done { status } => return Ok(status),
                Event::Failed { job, error } => return Err(format!("job {job} failed: {error}")),
            }
        }
    }

    /// Blocks until the job finishes, discarding progress events.
    ///
    /// # Errors
    ///
    /// See [`JobHandle::events`].
    pub fn wait(&mut self) -> Result<JobStatus, String> {
        self.events(&mut |_| {})
    }

    /// The job's current status.
    ///
    /// # Errors
    ///
    /// Returns transport errors and unknown-job faults.
    pub fn status(&mut self) -> Result<JobStatus, String> {
        self.client
            .status(Some(self.job))?
            .into_iter()
            .next()
            .ok_or_else(|| format!("daemon answered no status for job {}", self.job))
    }

    /// Fetches the finished job's stored checkpoint by content digest —
    /// digest-verified bytes through the connection, independent of any
    /// server-local path.
    ///
    /// # Errors
    ///
    /// Returns an error while the job is unfinished, plus every
    /// [`Client::fetch`] failure mode.
    pub fn artifact(&mut self) -> Result<(StoreEntry, Vec<u8>), String> {
        let status = self.status()?;
        let digest = status.digest.ok_or_else(|| {
            format!(
                "job {} has no artifact yet (state {})",
                self.job,
                status.state.as_str()
            )
        })?;
        self.client.fetch(&FetchKey::Digest(digest))
    }

    /// Gives the underlying connection back (e.g. to issue a `shutdown`
    /// after waiting a job out).
    pub fn into_client(self) -> Client {
        self.client
    }
}
