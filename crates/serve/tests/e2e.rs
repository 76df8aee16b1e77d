//! End-to-end daemon test: boot `autocat-serve daemon` as a subprocess,
//! drive it with the client subcommands (also subprocesses — the exact
//! surface ci.sh uses), and assert the daemon-trained checkpoint is
//! bit-identical to an in-process one-shot run through the shared
//! `autocat_scenario::run::train_trainer`/`row_and_stats` path.

use autocat_nn::state::params_digest;
use autocat_scenario::run::{row_and_stats, train_trainer, TrainOverrides};
use autocat_store::{codec, digest_hex};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};

const SCENARIO: &str = "table4-6";
const STEPS: u64 = 1;

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Boots the daemon on a free loopback port and parses the port from
    /// its startup line.
    fn spawn(store: &std::path::Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_autocat-serve"))
            .args([
                "daemon",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--store",
            ])
            .arg(store)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawning daemon");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("daemon printed nothing")
            .expect("reading daemon banner");
        let addr = banner
            .strip_prefix("autocat-serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        // Drain the rest of stdout so the pipe never blocks the daemon.
        std::thread::spawn(move || for _ in lines {});
        Daemon { child, addr }
    }

    /// Runs one client subcommand against this daemon, asserting success,
    /// and returns its stdout.
    fn client(&self, args: &[&str]) -> String {
        let output = self.client_raw(args);
        assert!(
            output.status.success(),
            "client {args:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("client stdout is UTF-8")
    }

    fn client_raw(&self, args: &[&str]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_autocat-serve"))
            .args(args)
            .args(["--addr", &self.addr])
            .output()
            .expect("running client")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt and braces: the test shuts down cleanly, but a panic
        // mid-test must not leak a live daemon.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pulls `label : value` out of the client's printed key-value lines.
fn field<'a>(output: &'a str, label: &str) -> &'a str {
    output
        .lines()
        .find_map(|line| line.strip_prefix(label))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{output}"))
        .trim()
}

#[test]
fn daemon_round_trip_is_bit_identical_to_one_shot() {
    let dir = std::env::temp_dir().join(format!("autocat-serve-e2e-{}", std::process::id()));
    let store = dir.join("store");
    std::fs::create_dir_all(&store).expect("creating store dir");
    let mut daemon = Daemon::spawn(&store);

    // The one-shot equivalent, computed in-process through the exact code
    // path `scenario-run --ckpt` uses: train, capture canonical bytes,
    // evaluate.
    let mut scenario = autocat_scenario::lookup(SCENARIO).expect("registry scenario");
    TrainOverrides {
        steps: Some(STEPS),
        ..TrainOverrides::default()
    }
    .apply(&mut scenario);
    let mut trainer = train_trainer(&scenario, |_, _| {}).expect("one-shot training");
    let bytes = codec::encode(&trainer.to_checkpoint_value());
    let (_, stats) = row_and_stats(&mut trainer, &scenario);
    let (_, net, _) = trainer.parts_mut();
    let expect_params = digest_hex(params_digest(net));
    let expect_eval = digest_hex(stats.digest());
    let expect_content = digest_hex(codec::content_digest(&bytes));

    // Daemon side: ping, submit --wait, and compare every fingerprint.
    daemon.client(&["ping"]);
    let steps = STEPS.to_string();
    let submit = daemon.client(&[
        "submit",
        "--scenario",
        SCENARIO,
        "--steps",
        &steps,
        "--wait",
    ]);
    assert_eq!(field(&submit, "params digest :"), expect_params, "{submit}");
    assert_eq!(field(&submit, "eval digest   :"), expect_eval, "{submit}");
    assert_eq!(field(&submit, "digest   :"), expect_content, "{submit}");

    let status = daemon.client(&["status", "--job", "1"]);
    assert!(status.contains("[done]"), "{status}");
    assert!(status.contains(&expect_content), "{status}");

    // fetch: the object's bytes must equal the one-shot encoding exactly.
    let out = dir.join("fetched.ckpt.bin");
    let fetched = daemon.client(&[
        "fetch",
        "--scenario",
        SCENARIO,
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    assert!(fetched.contains(&expect_content), "{fetched}");
    assert_eq!(std::fs::read(&out).expect("fetched file"), bytes);

    // A second run with another seed makes a second entry; gc --max-count 1
    // must then drop exactly one entry and its (unshared) object.
    daemon.client(&[
        "submit",
        "--scenario",
        SCENARIO,
        "--steps",
        &steps,
        "--seed",
        "99",
        "--wait",
    ]);
    let gc = daemon.client(&["gc", "--max-count", "1"]);
    assert!(
        gc.contains("removed 1 entries, 1 objects; kept 1 entries"),
        "{gc}"
    );

    // Error paths surface as clean failures, not hangs or panics.
    let unknown = daemon.client_raw(&["submit", "--scenario", "no-such-scenario"]);
    assert!(!unknown.status.success());
    assert!(
        String::from_utf8_lossy(&unknown.stderr).contains("unknown scenario"),
        "{}",
        String::from_utf8_lossy(&unknown.stderr)
    );
    let missing =
        daemon.client_raw(&["fetch", "--scenario", "never-trained", "--out", "/dev/null"]);
    assert!(!missing.status.success());

    daemon.client(&["shutdown"]);
    let status = daemon.child.wait().expect("daemon exit status");
    assert!(status.success(), "daemon exited {status}");
    std::fs::remove_dir_all(&dir).ok();
}
