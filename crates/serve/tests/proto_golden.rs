//! Golden-file test for protocol v2: every request, response and event
//! variant pinned on disk as JSON lines. The committed fixture must be
//! exactly what `to_value` + `to_json` emit today (byte stability — any
//! wire drift breaks loudly), and decoding each committed line must
//! reproduce the typed message (decode identity). Together they pin the
//! wire contract in both directions.
//!
//! Regenerate after an *intentional* protocol bump with:
//! `SERVE_BLESS=1 cargo test -p autocat-serve --test proto_golden`
//! (and bump `PROTOCOL_VERSION` — old clients must fail the handshake,
//! not misparse).

use autocat_scenario::run::TrainOverrides;
use autocat_scenario::value::to_json;
use autocat_serve::proto::{
    ErrorKind, Event, FetchKey, JobSource, JobState, JobStatus, Request, Response, Which,
    PROTOCOL_VERSION,
};
use autocat_store::StoreEntry;

fn fixture_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/proto_v2.jsonl")
}

fn status(state: JobState) -> JobStatus {
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

/// The message under each pinned line, in fixture order. The `kind` tag
/// names which decoder owns the line.
enum Message {
    Req(Request),
    Resp(Response),
    Event(Event),
}

fn messages() -> Vec<Message> {
    use Message::{Event as Ev, Req, Resp};
    let overrides = TrainOverrides {
        steps: Some(512),
        seed: Some(9),
        lanes: Some(2),
        eval_episodes: Some(20),
        shards: Some(4),
        threads: None, // never travels
    };
    vec![
        // --- every Request variant ---
        Req(Request::Hello {
            version: PROTOCOL_VERSION,
        }),
        Req(Request::Ping),
        Req(Request::Submit {
            source: JobSource::Registry("table4-6".into()),
            overrides,
            priority: 5,
        }),
        Req(Request::Submit {
            source: JobSource::Inline(Box::new(
                autocat_scenario::lookup("table4-3").expect("registry scenario"),
            )),
            overrides: TrainOverrides::default(),
            priority: 0,
        }),
        Req(Request::Status { job: None }),
        Req(Request::Status { job: Some(7) }),
        Req(Request::Watch { job: 7 }),
        Req(Request::Fetch {
            key: FetchKey::Scenario {
                name: "table4-6".into(),
                which: Which::Best,
            },
        }),
        Req(Request::Fetch {
            key: FetchKey::Scenario {
                name: "table4-6".into(),
                which: Which::Latest,
            },
        }),
        Req(Request::Fetch {
            key: FetchKey::Digest(0xdead_beef),
        }),
        Req(Request::Gc {
            max_count: Some(2),
            max_age_secs: Some(86_400),
            keep: vec!["defense-*".into(), "table4-6".into()],
        }),
        Req(Request::Gc {
            max_count: None,
            max_age_secs: None,
            keep: Vec::new(),
        }),
        Req(Request::Shutdown),
        // --- every Response variant ---
        Resp(Response::Hello {
            version: PROTOCOL_VERSION,
        }),
        Resp(Response::Pong),
        Resp(Response::Submitted {
            job: 1,
            spec_digest: 0xfeed,
            attached: false,
        }),
        Resp(Response::Submitted {
            job: 1,
            spec_digest: 0xfeed,
            attached: true,
        }),
        Resp(Response::Status {
            jobs: vec![
                status(JobState::Queued),
                status(JobState::Running),
                status(JobState::Done),
                status(JobState::Failed),
            ],
        }),
        Resp(Response::Fetch {
            entry: StoreEntry {
                scenario: "table4-6".into(),
                spec_digest: 0x1111,
                digest: 0x2222,
                params_digest: 0x3333,
                steps: 512,
                accuracy: 0.5,
                created_unix: 1_700_000_000,
            },
            len: 12_345,
        }),
        Resp(Response::Gc {
            removed_entries: 1,
            removed_objects: 1,
            kept_entries: 3,
        }),
        Resp(Response::ShuttingDown),
        // One Error line per ErrorKind: the slugs are wire contract too.
        Resp(Response::Error {
            kind: ErrorKind::BadRequest,
            message: "expected the `hello` handshake before any other request".into(),
        }),
        Resp(Response::Error {
            kind: ErrorKind::VersionMismatch,
            message: "client speaks v1, this daemon speaks v2".into(),
        }),
        Resp(Response::Error {
            kind: ErrorKind::UnknownScenario,
            message: "unknown scenario `nope`".into(),
        }),
        Resp(Response::Error {
            kind: ErrorKind::UnknownJob,
            message: "no job 7".into(),
        }),
        Resp(Response::Error {
            kind: ErrorKind::NotFound,
            message: "no stored checkpoint for `table4-6`".into(),
        }),
        Resp(Response::Error {
            kind: ErrorKind::Internal,
            message: "store I/O failed".into(),
        }),
        Resp(Response::Error {
            kind: ErrorKind::Shutdown,
            message: "daemon shutting down".into(),
        }),
        // --- every Event variant ---
        Ev(Event::Progress {
            job: 1,
            steps: 2048,
            avg_return: 0.125,
        }),
        Ev(Event::Done {
            status: status(JobState::Done),
        }),
        Ev(Event::Failed {
            job: 1,
            error: "env exploded".into(),
        }),
    ]
}

impl Message {
    fn encode(&self) -> String {
        match self {
            Message::Req(m) => to_json(&m.to_value()),
            Message::Resp(m) => to_json(&m.to_value()),
            Message::Event(m) => to_json(&m.to_value()),
        }
    }

    /// Decodes `line` with this message's own decoder and asserts
    /// equality with the typed value.
    fn assert_decodes(&self, line: &str) {
        let value = autocat_scenario::value::from_json(line).expect("fixture line parses");
        match self {
            Message::Req(m) => assert_eq!(&Request::from_value(&value).unwrap(), m, "{line}"),
            Message::Resp(m) => assert_eq!(&Response::from_value(&value).unwrap(), m, "{line}"),
            Message::Event(m) => {
                assert!(autocat_serve::proto::is_event(&value), "{line}");
                assert_eq!(&Event::from_value(&value).unwrap(), m, "{line}");
            }
        }
    }
}

#[test]
fn protocol_v2_wire_format_is_pinned() {
    let messages = messages();
    let encoded: Vec<String> = messages.iter().map(Message::encode).collect();
    if std::env::var_os("SERVE_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data")).unwrap();
        let mut text = encoded.join("\n");
        text.push('\n');
        std::fs::write(fixture_path(), text).unwrap();
    }
    let committed = std::fs::read_to_string(fixture_path()).expect("committed proto_v2.jsonl");
    let lines: Vec<&str> = committed.lines().collect();
    assert_eq!(
        lines.len(),
        messages.len(),
        "fixture line count drifted; if intentional, bump PROTOCOL_VERSION and re-bless"
    );
    for ((message, line), expect) in messages.iter().zip(&lines).zip(&encoded) {
        // Encode identity: today's encoder reproduces the pinned bytes.
        assert_eq!(
            expect, *line,
            "wire encoding drifted from the committed fixture; \
             if intentional, bump PROTOCOL_VERSION and re-bless"
        );
        // Decode identity: the pinned bytes reproduce the typed message.
        message.assert_decodes(line);
    }
}
