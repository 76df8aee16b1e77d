//! The scenario-sweep artifacts behind the `sweep` binary: train every
//! registry scenario, checkpoint each policy, evaluate each over its
//! scenario's episode budget, and render a Table IV reproduction report.
//! Training and evaluation go through the shared pipeline in
//! [`autocat_scenario::run`] ([`train_trainer`], [`row_and_stats`]); this
//! module owns the artifact files, the resume manifest and the report.
//!
//! A report row is a **per-policy statistic**, not a single replay (see
//! [`SweepRow`]): N-episode accuracy, detection rate, average length and
//! an attack-category census, with a *representative replay* of the
//! majority category so rows on stochastic backends (random-replacement
//! caches, `SimulatedProcessor`) stop flapping between runs.
//!
//! The pipeline is deliberately split from the CLI so the
//! train-→-artifacts-→-report round trip is testable: a report generated
//! right after training and a report regenerated later from the artifacts
//! alone ([`row_from_artifacts`]) are **identical**, because a row is
//! always produced from a checkpoint-equivalent trainer state (training
//! saves first, then evaluates; report-only loads, then evaluates — the
//! checkpoint resume guarantee in `autocat_ppo::checkpoint` plus the
//! batched evaluator's determinism contract make both evaluations
//! bit-identical).
//!
//! # Artifact layout
//!
//! Everything lives under one output directory (`--out`, default
//! `runs/sweep`):
//!
//! ```text
//! runs/sweep/
//!   table4-1.scenario.json    # the exact scenario trained (with overrides)
//!   table4-1.ckpt.bin         # its policy/optimizer/RNG checkpoint (binary)
//!   ...
//!   manifest.json             # scenario name -> train-spec digest (resume key)
//!   report.md                 # the Table IV reproduction report
//!   report.json               # the same rows, machine-readable
//! ```
//!
//! Checkpoints are written in the compact binary codec (`.ckpt.bin`, the
//! hot path); directories from older runs holding `.ckpt.json` artifacts
//! keep working — [`resolve_checkpoint_path`] falls back to the JSON
//! file, and the trainer's loader sniffs the codec from the bytes either
//! way. The manifest records the exact train spec each checkpoint came
//! from, so `sweep --resume` can skip scenarios that are already done
//! (same name, same spec) and an interrupted multi-scenario sweep
//! continues in slices instead of retraining from zero.

use autocat::ppo::Trainer;
use autocat_scenario::value::{self, req, u64_from, u64_value, Value};
use autocat_scenario::Scenario;
use std::path::{Path, PathBuf};

// The shared train → evaluate pipeline lives in `autocat_scenario::run`;
// re-exported here so existing `autocat_bench::sweep::*` paths resolve.
pub use autocat_scenario::run::{row_and_stats, spec_digest, train_trainer, SweepRow};

/// Checkpoint file a sweep **writes** for a scenario name under `out`:
/// the binary fast path.
pub fn checkpoint_path(out: &Path, name: &str) -> PathBuf {
    out.join(format!("{name}.ckpt.bin"))
}

/// Checkpoint file to **load** for a scenario name under `out`: the
/// binary artifact when present, otherwise the legacy `.ckpt.json` from
/// pre-binary-codec runs (the loader sniffs the codec from the bytes, so
/// either decodes). Falls back to the binary path when neither exists so
/// error messages name the file a fresh run would have written.
pub fn resolve_checkpoint_path(out: &Path, name: &str) -> PathBuf {
    let binary = checkpoint_path(out, name);
    if binary.exists() {
        return binary;
    }
    let json = out.join(format!("{name}.ckpt.json"));
    if json.exists() {
        json
    } else {
        binary
    }
}

/// Scenario sidecar file for a scenario name under `out`.
pub fn scenario_path(out: &Path, name: &str) -> PathBuf {
    out.join(format!("{name}.scenario.json"))
}

/// Trains one scenario to its budget, writes its artifacts (scenario
/// sidecar + checkpoint) under `out`, and returns its report row.
///
/// # Errors
///
/// Returns an error if the scenario is invalid or an artifact cannot be
/// written.
pub fn train_one(scenario: &Scenario, out: &Path) -> Result<SweepRow, String> {
    let err = |e: String| format!("{}: {e}", scenario.name);
    let mut trainer = train_trainer(scenario, |_, _| {}).map_err(err)?;
    // Checkpoint first, sidecar last: the sidecar is the discovery key
    // (`artifact_names`), so a run killed between the two writes leaves
    // an invisible checkpoint rather than an orphan sidecar that poisons
    // every later report in this directory.
    trainer
        .save_checkpoint(checkpoint_path(out, &scenario.name))
        .map_err(err)?;
    scenario
        .save(scenario_path(out, &scenario.name))
        .map_err(err)?;
    // The manifest entry last of all: it asserts "this scenario's
    // artifacts are complete for this exact spec", which is only true
    // once both files above exist.
    manifest::record(out, &scenario.name, spec_digest(scenario)).map_err(err)?;
    // Decode *after* saving: the in-memory state now equals the artifact,
    // so `row_from_artifacts` reproduces this row exactly.
    Ok(row_and_stats(&mut trainer, scenario).0)
}

/// Whether `--resume` may skip a scenario under `out`: its manifest entry
/// matches the scenario's current [`spec_digest`] *and* its artifacts are
/// on disk. A spec change (different seed/budget/lanes via overrides)
/// misses the manifest and retrains; a deleted checkpoint retrains.
pub fn resume_complete(out: &Path, scenario: &Scenario) -> bool {
    manifest::load(out).ok().is_some_and(|manifest| {
        manifest.get(&scenario.name) == Some(&spec_digest(scenario))
            && resolve_checkpoint_path(out, &scenario.name).exists()
            && scenario_path(out, &scenario.name).exists()
    })
}

/// The per-run resume manifest: `manifest.json` under the sweep output
/// directory, mapping scenario name → train-spec digest at the moment the
/// scenario's artifacts were completely written. [`train_one`] appends to
/// it (thread-safely — sweeps train scenarios on parallel rayon tasks)
/// and `sweep --resume` consults it via [`resume_complete`].
pub mod manifest {
    use super::{Path, PathBuf};
    use autocat_scenario::value::{self, Value};
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// Manifest file under a sweep output directory.
    pub fn path(out: &Path) -> PathBuf {
        out.join("manifest.json")
    }

    /// Loads the manifest; a missing file is an empty manifest.
    ///
    /// # Errors
    ///
    /// Returns an error on unreadable or malformed contents.
    pub fn load(out: &Path) -> Result<BTreeMap<String, u64>, String> {
        let file = path(out);
        if !file.exists() {
            return Ok(BTreeMap::new());
        }
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("reading {}: {e}", file.display()))?;
        let root = value::from_json(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        root.as_table()?
            .iter()
            .map(|(name, digest)| {
                let digest = u64::from_str_radix(digest.as_str()?, 16)
                    .map_err(|_| format!("{}: bad digest for `{name}`", file.display()))?;
                Ok((name.clone(), digest))
            })
            .collect()
    }

    /// Records (or refreshes) one scenario's spec digest. Guarded by a
    /// process-wide lock and written via rename, so concurrent rayon
    /// training tasks cannot tear the file.
    ///
    /// # Errors
    ///
    /// Returns an error if the manifest cannot be read back or written.
    pub fn record(out: &Path, name: &str, digest: u64) -> Result<(), String> {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK
            .lock()
            .map_err(|_| "manifest lock poisoned".to_string())?;
        let mut entries = load(out)?;
        entries.insert(name.to_string(), digest);
        let mut root = Value::table();
        for (name, digest) in &entries {
            root.set(name, Value::Str(format!("{digest:016x}")));
        }
        let file = path(out);
        let tmp = out.join("manifest.json.tmp");
        std::fs::write(&tmp, value::to_json(&root))
            .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &file)
            .map_err(|e| format!("renaming {} -> {}: {e}", tmp.display(), file.display()))
    }
}

/// Regenerates one report row from artifacts alone: loads the scenario
/// sidecar, rebuilds its environment, loads the checkpoint and decodes.
///
/// # Errors
///
/// Returns an error if either artifact is missing, unparsable or
/// inconsistent with the other.
pub fn row_from_artifacts(out: &Path, name: &str) -> Result<SweepRow, String> {
    let err = |e: String| format!("{name}: {e}");
    let scenario = Scenario::load(scenario_path(out, name)).map_err(err)?;
    let env = scenario.build_env().map_err(err)?;
    let mut trainer =
        Trainer::load_checkpoint(resolve_checkpoint_path(out, name), env).map_err(err)?;
    Ok(row_and_stats(&mut trainer, &scenario).0)
}

/// Lists the scenario names with artifacts under `out` (every
/// `<name>.scenario.json`), sorted in report order.
///
/// # Errors
///
/// Returns an error if the directory cannot be read.
pub fn artifact_names(out: &Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(out).map_err(|e| format!("reading {}: {e}", out.display()))?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", out.display()))?;
        let file = entry.file_name();
        let file = file.to_string_lossy();
        if let Some(name) = file.strip_suffix(".scenario.json") {
            names.push(name.to_string());
        }
    }
    names.sort_by_key(|n| name_sort_key(n));
    Ok(names)
}

/// Natural sort key so `table4-2` precedes `table4-10` the way Table IV
/// orders its rows.
fn name_sort_key(name: &str) -> (String, u64, String) {
    let digits = name.len() - name.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    let (prefix, number) = name.split_at(name.len() - digits);
    (
        prefix.to_string(),
        number.parse().unwrap_or(0),
        name.to_string(),
    )
}

/// Sorts rows into report order (natural order on scenario names).
pub fn sort_rows(rows: &mut [SweepRow]) {
    rows.sort_by_key(|r| name_sort_key(&r.scenario));
}

/// Extends `rows` with a regenerated row for every artifact under `out`
/// not already covered, so a written report always reflects the *whole*
/// artifact directory — a filtered training run must not silently drop
/// previously-trained scenarios from `report.md`.
///
/// # Errors
///
/// Returns an error if the directory cannot be read or an uncovered
/// artifact fails to load.
pub fn fill_missing_rows(out: &Path, rows: &mut Vec<SweepRow>) -> Result<(), String> {
    let covered: std::collections::BTreeSet<String> =
        rows.iter().map(|r| r.scenario.clone()).collect();
    for name in artifact_names(out)? {
        if !covered.contains(&name) {
            rows.push(row_from_artifacts(out, &name)?);
        }
    }
    Ok(())
}

/// Renders the Markdown reproduction report.
pub fn render_markdown(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "# Table IV reproduction report\n\n\
         Generated by the `sweep` harness from per-scenario checkpoints; regenerate this\n\
         exact report from the artifacts alone with `sweep --report-only --out <dir>`.\n\n\
         Accuracy, detection rate and average length are per-policy statistics over\n\
         `eval N` sampled evaluation episodes (the scenario's `eval_episodes`), not a\n\
         single replay; `category` is the majority of the per-episode census and the\n\
         sequence column shows a representative episode of that category.\n\n\
         | scenario | steps | final reward | converged | category | accuracy | detect | avg len | eval N | census | representative sequence |\n\
         |----------|------:|-------------:|-----------|----------|---------:|-------:|--------:|-------:|--------|-------------------------|\n",
    );
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {:.3} | {} | {} | {:.3} | {:.3} | {:.1} | {} | {} | `{}` |\n",
            row.scenario,
            row.steps,
            row.final_return,
            if row.converged { "yes" } else { "no" },
            row.category,
            row.accuracy(),
            row.detection_rate(),
            row.avg_length,
            row.eval_episodes,
            row.census,
            row.sequence,
        ));
    }
    out
}

/// Renders the machine-readable JSON report.
pub fn render_json(rows: &[SweepRow]) -> String {
    let mut root = Value::table();
    root.set("version", Value::Int(1));
    root.set(
        "rows",
        Value::Array(
            rows.iter()
                .map(|row| {
                    let mut table = Value::table();
                    table.set("scenario", Value::Str(row.scenario.clone()));
                    table.set("summary", Value::Str(row.summary.clone()));
                    table.set("steps", u64_value(row.steps));
                    table.set("final_return", Value::Float(f64::from(row.final_return)));
                    table.set("converged", Value::Bool(row.converged));
                    table.set("eval_episodes", u64_value(row.eval_episodes));
                    table.set("correct", u64_value(row.correct));
                    table.set("guessed", u64_value(row.guessed));
                    table.set("detected", u64_value(row.detected));
                    // Derived ratios, for machine readers; the counts above
                    // are authoritative and exact.
                    table.set("accuracy", Value::Float(row.accuracy()));
                    table.set("detection_rate", Value::Float(row.detection_rate()));
                    table.set("avg_length", Value::Float(f64::from(row.avg_length)));
                    table.set("category", Value::Str(row.category.clone()));
                    table.set("census", Value::Str(row.census.clone()));
                    table.set("sequence", Value::Str(row.sequence.clone()));
                    table
                })
                .collect(),
        ),
    );
    value::to_json(&root)
}

/// Parses rows back out of a [`render_json`] report.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn rows_from_json(text: &str) -> Result<Vec<SweepRow>, String> {
    let root = value::from_json(text)?;
    let table = root.as_table()?;
    req(table, "rows")?
        .as_array()?
        .iter()
        .map(|item| {
            let row = item.as_table()?;
            Ok(SweepRow {
                scenario: req(row, "scenario")?.as_str()?.to_string(),
                summary: req(row, "summary")?.as_str()?.to_string(),
                steps: u64_from(req(row, "steps")?)?,
                final_return: req(row, "final_return")?.as_f32()?,
                converged: req(row, "converged")?.as_bool()?,
                eval_episodes: u64_from(req(row, "eval_episodes")?)?,
                correct: u64_from(req(row, "correct")?)?,
                guessed: u64_from(req(row, "guessed")?)?,
                detected: u64_from(req(row, "detected")?)?,
                avg_length: req(row, "avg_length")?.as_f32()?,
                category: req(row, "category")?.as_str()?.to_string(),
                census: req(row, "census")?.as_str()?.to_string(),
                sequence: req(row, "sequence")?.as_str()?.to_string(),
            })
        })
        .collect()
}

/// Writes `report.md` and `report.json` for sorted `rows` under `out`.
///
/// # Errors
///
/// Returns an error if a file cannot be written.
pub fn write_report(out: &Path, rows: &[SweepRow]) -> Result<(), String> {
    let write = |file: &str, text: String| {
        let path = out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write("report.md", render_markdown(rows))?;
    write("report.json", render_json(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocat_scenario::table4;

    /// A scenario cut down to test size (a handful of updates).
    fn tiny_scenario() -> Scenario {
        let mut scenario = table4(3).unwrap(); // flush+reload: learns fast
        scenario.train.max_steps = 512;
        scenario.train.ppo.horizon = 256;
        scenario.train.ppo.minibatch = 64;
        scenario.train.ppo.epochs_per_update = 2;
        scenario.train.eval_episodes = 10;
        scenario
    }

    fn temp_out(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("autocat-sweep-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn report_only_regenerates_the_identical_report() {
        // The acceptance criterion: train → report, then regenerate the
        // report from the artifacts alone, and demand equality down to the
        // rendered bytes.
        let out = temp_out("identical-report");
        let scenario = tiny_scenario();
        let trained_row = train_one(&scenario, &out).unwrap();
        write_report(&out, std::slice::from_ref(&trained_row)).unwrap();

        let names = artifact_names(&out).unwrap();
        assert_eq!(names, vec![scenario.name.clone()]);
        let regenerated = row_from_artifacts(&out, &scenario.name).unwrap();
        assert_eq!(regenerated, trained_row, "rows must match field-for-field");
        let rows = std::slice::from_ref(&regenerated);
        assert_eq!(
            render_markdown(rows),
            std::fs::read_to_string(out.join("report.md")).unwrap()
        );
        assert_eq!(
            render_json(rows),
            std::fs::read_to_string(out.join("report.json")).unwrap()
        );
    }

    #[test]
    fn filtered_runs_keep_earlier_scenarios_in_the_report() {
        // Two sweeps into one directory with disjoint filters: the report
        // written by the second must still cover the first's scenario.
        let out = temp_out("incremental");
        let first = tiny_scenario();
        let first_row = train_one(&first, &out).unwrap();

        let mut second = tiny_scenario();
        second.name = "tiny-second".into();
        let mut rows = vec![train_one(&second, &out).unwrap()];

        fill_missing_rows(&out, &mut rows).unwrap();
        sort_rows(&mut rows);
        let names: Vec<&str> = rows.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(names, [first.name.as_str(), "tiny-second"]);
        assert!(rows.contains(&first_row), "regenerated row must be exact");
    }

    #[test]
    fn json_report_round_trips() {
        let rows = vec![SweepRow {
            scenario: "table4-3".into(),
            summary: "FR".into(),
            steps: 512,
            final_return: 0.123_456_7,
            converged: false,
            eval_episodes: 100,
            correct: 97,
            guessed: 99,
            detected: 2,
            avg_length: 4.25,
            category: "flush+reload".into(),
            census: "flush+reload:93, other:7".into(),
            sequence: "f0 -> v -> 0 -> g".into(),
        }];
        let back = rows_from_json(&render_json(&rows)).unwrap();
        assert_eq!(back, rows);
        assert!((back[0].accuracy() - 0.97).abs() < 1e-12);
        assert!((back[0].detection_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn trained_row_carries_episode_statistics() {
        // A sweep row is an N-episode statistic: counts bounded by the
        // episode budget, a census that names the majority category, and a
        // representative sequence drawn from the evaluated episodes.
        let out = temp_out("row-stats");
        let scenario = tiny_scenario();
        let row = train_one(&scenario, &out).unwrap();
        assert_eq!(row.eval_episodes, scenario.train.eval_episodes as u64);
        assert!(row.correct <= row.guessed);
        assert!(row.guessed <= row.eval_episodes);
        assert!(row.accuracy() <= 1.0);
        assert!(row.avg_length >= 1.0);
        assert!(!row.category.is_empty());
        assert!(
            row.census.contains(&format!("{}:", row.category)),
            "census `{}` must cover the majority category `{}`",
            row.census,
            row.category
        );
        assert!(!row.sequence.is_empty(), "representative replay required");
        let total: u64 = row
            .census
            .split(", ")
            .map(|pair| pair.rsplit(':').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, row.eval_episodes, "census must cover every episode");
    }

    #[test]
    fn rows_sort_in_table_order() {
        let row = |name: &str| SweepRow {
            scenario: name.into(),
            summary: String::new(),
            steps: 0,
            final_return: 0.0,
            converged: false,
            eval_episodes: 0,
            correct: 0,
            guessed: 0,
            detected: 0,
            avg_length: 0.0,
            category: String::new(),
            census: String::new(),
            sequence: String::new(),
        };
        let mut rows = vec![row("table4-10"), row("defense-misscount"), row("table4-2")];
        sort_rows(&mut rows);
        let names: Vec<&str> = rows.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(names, ["defense-misscount", "table4-2", "table4-10"]);
    }

    #[test]
    fn missing_artifacts_are_reported_with_the_scenario_name() {
        let out = temp_out("missing");
        let err = row_from_artifacts(&out, "table4-1").err().unwrap();
        assert!(err.contains("table4-1"), "{err}");
    }

    #[test]
    fn checkpoints_are_binary_with_a_json_fallback() {
        let out = temp_out("binary-artifacts");
        let scenario = tiny_scenario();
        let row = train_one(&scenario, &out).unwrap();

        // The written artifact is the binary fast path...
        let binary = checkpoint_path(&out, &scenario.name);
        assert!(binary.to_string_lossy().ends_with(".ckpt.bin"));
        assert!(binary.exists());
        assert_eq!(resolve_checkpoint_path(&out, &scenario.name), binary);

        // ...and a directory from a pre-binary run (JSON checkpoint only)
        // still reports identically: same tree, either codec.
        let json = out.join(format!("{}.ckpt.json", scenario.name));
        let bytes = std::fs::read(&binary).unwrap();
        let tree = autocat_store::codec::decode(&bytes).unwrap();
        std::fs::write(&json, autocat_scenario::value::to_json(&tree)).unwrap();
        std::fs::remove_file(&binary).unwrap();
        assert_eq!(resolve_checkpoint_path(&out, &scenario.name), json);
        let regenerated = row_from_artifacts(&out, &scenario.name).unwrap();
        assert_eq!(regenerated, row, "JSON fallback must reproduce the row");
    }

    #[test]
    fn resume_skips_only_matching_complete_artifacts() {
        let out = temp_out("resume");
        let scenario = tiny_scenario();
        assert!(!resume_complete(&out, &scenario), "nothing trained yet");

        train_one(&scenario, &out).unwrap();
        assert!(resume_complete(&out, &scenario), "trained + manifest match");
        assert_eq!(
            manifest::load(&out).unwrap().get(&scenario.name),
            Some(&spec_digest(&scenario))
        );

        // A different train spec (seed bump) must retrain.
        let mut reseeded = scenario.clone();
        reseeded.train.seed += 1;
        assert!(!resume_complete(&out, &reseeded), "spec changed");

        // A deleted checkpoint must retrain even with a manifest entry.
        std::fs::remove_file(checkpoint_path(&out, &scenario.name)).unwrap();
        assert!(!resume_complete(&out, &scenario), "checkpoint gone");
    }

    #[test]
    fn spec_digest_tracks_the_exact_train_spec() {
        let a = tiny_scenario();
        let mut b = tiny_scenario();
        assert_eq!(spec_digest(&a), spec_digest(&b), "identical scenarios");
        b.train.max_steps += 1;
        assert_ne!(spec_digest(&a), spec_digest(&b), "budget change re-keys");
    }
}
