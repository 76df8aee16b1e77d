//! The one train → evaluate → classify pipeline every scenario front end
//! shares: `scenario-run`, the `sweep` harness, the serving daemon, the
//! table bins and [`Scenario::run`] all train through [`train_trainer`]
//! and report through [`row_and_stats`],
//! which is what makes a daemon job bit-identical to its one-shot
//! equivalent and a sweep report reproducible from its artifacts.
//!
//! [`TrainOverrides`] is the common `--steps`/`--seed`/... flag set,
//! parsed, applied and wire-encoded one way so the front ends cannot
//! drift; [`spec_digest`] is the train-spec key the sweep manifest and the
//! daemon's store index by.

use crate::value::{self, u64_from, Value};
use crate::Scenario;
use autocat::attacks::classify::classify_sequence;
use autocat_gym::{Action, CacheGuessingGame};
use autocat_ppo::{eval, Trainer};

/// The `--steps` / `--seed` / `--lanes` / `--shards` / `--threads` /
/// `--eval-episodes` override set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrainOverrides {
    /// `--steps N`: replaces the scenario's `train.max_steps`.
    pub steps: Option<u64>,
    /// `--seed N`: replaces the scenario's `train.seed`.
    pub seed: Option<u64>,
    /// `--lanes N`: replaces the scenario's VecEnv width (clamped to 1).
    pub lanes: Option<usize>,
    /// `--eval-episodes N`: replaces the scenario's post-training
    /// evaluation episode budget (`train.eval_episodes`, clamped to 1) —
    /// the N behind every per-policy accuracy/detection statistic.
    pub eval_episodes: Option<usize>,
    /// `--shards N`: replaces the scenario's data-parallel gradient shard
    /// count (`ppo.grad_shards`, clamped to 1). Part of the training math:
    /// different shard counts give different (all valid) float reductions.
    pub shards: Option<usize>,
    /// `--threads N`: caps the rayon worker pool via `RAYON_NUM_THREADS`.
    /// Scheduling only — never changes results (see the determinism
    /// contract in `autocat-ppo`'s sharded module).
    pub threads: Option<usize>,
}

impl TrainOverrides {
    /// Consumes `flag` if it is one of the override flags, pulling its
    /// value from `next_value`. Returns `Ok(true)` when consumed,
    /// `Ok(false)` when the flag is not an override flag.
    ///
    /// # Errors
    ///
    /// Returns an error if the flag's value is missing or not an integer.
    pub fn try_parse(
        &mut self,
        flag: &str,
        next_value: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        fn parse<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag} expects an integer"))
        }
        match flag {
            "--steps" => self.steps = Some(parse(flag, &next_value(flag)?)?),
            "--seed" => self.seed = Some(parse(flag, &next_value(flag)?)?),
            "--lanes" => self.lanes = Some(parse(flag, &next_value(flag)?)?),
            "--eval-episodes" => self.eval_episodes = Some(parse(flag, &next_value(flag)?)?),
            "--shards" => self.shards = Some(parse(flag, &next_value(flag)?)?),
            "--threads" => self.threads = Some(parse(flag, &next_value(flag)?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether any override was given.
    pub fn any(&self) -> bool {
        self.steps.is_some()
            || self.seed.is_some()
            || self.lanes.is_some()
            || self.eval_episodes.is_some()
            || self.shards.is_some()
            || self.threads.is_some()
    }

    /// Applies the overrides to a scenario's training spec, and — for
    /// `--threads` — exports `RAYON_NUM_THREADS` so the lazily-started
    /// worker pool is sized accordingly. Call before the first parallel
    /// region (the binaries apply overrides before any training starts);
    /// once the pool exists the thread override has no effect.
    pub fn apply(&self, scenario: &mut Scenario) {
        if let Some(steps) = self.steps {
            scenario.train.max_steps = steps;
        }
        if let Some(seed) = self.seed {
            scenario.train.seed = seed;
        }
        if let Some(lanes) = self.lanes {
            scenario.train.ppo.num_lanes = lanes.max(1);
        }
        if let Some(episodes) = self.eval_episodes {
            scenario.train.eval_episodes = episodes.max(1);
        }
        if let Some(shards) = self.shards {
            scenario.train.ppo.grad_shards = shards.max(1);
        }
        if let Some(threads) = self.threads {
            std::env::set_var("RAYON_NUM_THREADS", threads.max(1).to_string());
        }
    }

    /// Encodes the job-relevant override subset as a [`Value`] table
    /// (empty table when nothing is overridden) — the form the serve
    /// protocol's `submit` request carries. `--threads` deliberately does
    /// not travel: the daemon's worker pool is daemon-global, and the
    /// determinism contract makes thread count a scheduling knob with no
    /// effect on results anyway.
    pub fn to_value(&self) -> Value {
        let mut table = Value::table();
        if let Some(steps) = self.steps {
            table.set("steps", value::u64_value(steps));
        }
        if let Some(seed) = self.seed {
            table.set("seed", value::u64_value(seed));
        }
        if let Some(lanes) = self.lanes {
            table.set("lanes", Value::Int(lanes as i64));
        }
        if let Some(episodes) = self.eval_episodes {
            table.set("eval_episodes", Value::Int(episodes as i64));
        }
        if let Some(shards) = self.shards {
            table.set("shards", Value::Int(shards as i64));
        }
        table
    }

    /// Decodes a table written by [`TrainOverrides::to_value`]. Unknown
    /// keys are an error — a client asking for an override the receiver
    /// would silently drop must hear about it.
    ///
    /// # Errors
    ///
    /// Returns an error on unknown keys or mistyped values.
    pub fn from_value(value: &Value) -> Result<TrainOverrides, String> {
        let table = value.as_table()?;
        let mut overrides = TrainOverrides::default();
        for (key, item) in table {
            match key.as_str() {
                "steps" => overrides.steps = Some(u64_from(item)?),
                "seed" => overrides.seed = Some(u64_from(item)?),
                "lanes" => overrides.lanes = Some(item.as_usize()?),
                "eval_episodes" => overrides.eval_episodes = Some(item.as_usize()?),
                "shards" => overrides.shards = Some(item.as_usize()?),
                other => return Err(format!("unknown override `{other}`")),
            }
        }
        Ok(overrides)
    }
}

/// The train-spec digest of a scenario: FNV-1a over its canonical JSON
/// (after any CLI overrides). This is the second half of the store/
/// manifest index key — two submissions of one scenario name with
/// different seeds, budgets or lane counts index separately.
pub fn spec_digest(scenario: &Scenario) -> u64 {
    autocat_nn::state::fnv1a(scenario.to_json().into_bytes())
}

/// Builds and trains a scenario's trainer to its budget — the one
/// training path of every scenario front end. `on_update` observes
/// `(total steps, trailing average return)` after every PPO update (pass
/// a no-op for silence; observation cannot perturb training).
///
/// # Errors
///
/// Returns an error if the scenario fails [`Scenario::validate`], or,
/// naming the step, if training diverges (a non-finite gradient norm; see
/// [`autocat_ppo::Divergence`]).
pub fn train_trainer(
    scenario: &Scenario,
    on_update: impl FnMut(u64, f32),
) -> Result<Trainer<CacheGuessingGame>, String> {
    scenario.validate()?;
    let env = scenario.build_env()?;
    let mut trainer = Trainer::new(
        env,
        scenario.train.backbone.clone(),
        scenario.train.ppo,
        scenario.train.seed,
    );
    let result = trainer.train_until_with(
        scenario.train.return_threshold,
        scenario.train.max_steps,
        on_update,
    );
    match result.diverged {
        Some(divergence) => Err(format!("{}: {divergence}", scenario.name)),
        None => Ok(trainer),
    }
}

/// One evaluated scenario (one sweep report row), carrying N-episode
/// evaluation statistics rather than a single-replay coin flip.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Scenario name (registry or file-derived).
    pub scenario: String,
    /// The scenario's human-readable summary (for Table IV rows, the
    /// attack the paper's agent found).
    pub summary: String,
    /// Environment steps trained.
    pub steps: u64,
    /// Trailing average episode return when training stopped.
    pub final_return: f32,
    /// Whether the trailing return reached the scenario's threshold.
    pub converged: bool,
    /// Episodes evaluated for this row (the scenario's
    /// `train.eval_episodes`).
    pub eval_episodes: u64,
    /// Evaluation episodes ending in a correct guess.
    pub correct: u64,
    /// Evaluation episodes ending in any guess.
    pub guessed: u64,
    /// Evaluation episodes terminated by a detector.
    pub detected: u64,
    /// Mean evaluation episode length.
    pub avg_length: f32,
    /// Majority attack category across the census (the paper's analysis).
    pub category: String,
    /// Attack-category census over every evaluated episode, rendered as
    /// `category:count` pairs sorted by descending count.
    pub census: String,
    /// A representative replay in the paper's notation: the first
    /// (preferring correct) evaluated episode of the majority category.
    pub sequence: String,
}

impl SweepRow {
    /// Correct guesses over **all** evaluation episodes (the paper's
    /// accuracy column).
    pub fn accuracy(&self) -> f64 {
        if self.eval_episodes == 0 {
            0.0
        } else {
            self.correct as f64 / self.eval_episodes as f64
        }
    }

    /// Detector-terminated episodes over all evaluation episodes (the
    /// Sec. V-D defense metric).
    pub fn detection_rate(&self) -> f64 {
        if self.eval_episodes == 0 {
            0.0
        } else {
            self.detected as f64 / self.eval_episodes as f64
        }
    }
}

/// Evaluates a trained (or checkpoint-loaded) trainer into a [`SweepRow`]
/// plus the raw [`eval::EvalStats`] it was decoded from. Every front end
/// evaluates through this one path, so the same checkpoint always yields
/// the same stats digest (the daemon/one-shot bit-identity gate in ci.sh
/// compares exactly this).
///
/// Evaluates the policy over `scenario.train.eval_episodes` sampled
/// episodes (sampling, not argmax: the honest statistic on stochastic
/// backends) on the canonical [`eval::EVAL_LANES`] batched width. The
/// width is fixed, not a knob, because the lane split is part of the
/// sampling plan: the same checkpoint must yield the same row on every
/// machine. The classified attack categories of every
/// episode form the census; the row's sequence is the first (preferring
/// correct) episode of the majority category.
pub fn row_and_stats(
    trainer: &mut Trainer<CacheGuessingGame>,
    scenario: &Scenario,
) -> (SweepRow, eval::EvalStats) {
    let steps = trainer.total_steps();
    let final_return = trainer.avg_return();
    let converged = final_return >= scenario.train.return_threshold;
    let episodes = scenario.train.eval_episodes.max(1);
    let (env, net, rng) = trainer.parts_mut();
    let report = eval::evaluate_batched(&*env, net, episodes, eval::EVAL_LANES, false, rng);

    let decode = |ep: &eval::EpisodeRecord| -> Vec<Action> {
        ep.actions
            .iter()
            .map(|&i| env.action_space().decode(i))
            .collect()
    };
    let categories: Vec<String> = report
        .episodes
        .iter()
        .map(|ep| classify_sequence(&decode(ep), env.config()).to_string())
        .collect();
    let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for category in &categories {
        *counts.entry(category).or_default() += 1;
    }
    // Majority category; ties break to the lexicographically first name
    // (BTreeMap order) so the winner never depends on episode order.
    let category = counts
        .iter()
        .max_by_key(|(name, count)| (*count, std::cmp::Reverse(*name)))
        .map(|(name, _)| (*name).to_string())
        .unwrap_or_default();
    let mut census_pairs: Vec<(&str, u64)> = counts.iter().map(|(n, c)| (*n, *c)).collect();
    census_pairs.sort_by_key(|&(name, count)| (std::cmp::Reverse(count), name));
    let census = census_pairs
        .iter()
        .map(|(name, count)| format!("{name}:{count}"))
        .collect::<Vec<_>>()
        .join(", ");
    // Representative replay: first correct episode of the majority
    // category, else the first episode of that category.
    let mut first_match = None;
    let mut first_correct = None;
    for (ep, cat) in report.episodes.iter().zip(&categories) {
        if *cat != category {
            continue;
        }
        if first_match.is_none() {
            first_match = Some(ep);
        }
        if ep.correct {
            first_correct = Some(ep);
            break;
        }
    }
    let representative = first_correct.or(first_match);
    let sequence = representative
        .map(|ep| {
            decode(ep)
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" -> ")
        })
        .unwrap_or_default();

    let row = SweepRow {
        scenario: scenario.name.clone(),
        summary: scenario.summary.clone(),
        steps,
        final_return,
        converged,
        eval_episodes: report.stats.episodes as u64,
        correct: report.stats.correct as u64,
        guessed: report.stats.guessed as u64,
        detected: report.stats.detected as u64,
        avg_length: report.stats.avg_length,
        category,
        census,
        sequence,
    };
    (row, report.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A learning rate of 1e30 blows the weights up on the first
    /// optimizer step, so a later minibatch's gradient norm overflows:
    /// training stops with an error that names the scenario and the step.
    #[test]
    fn a_diverging_run_is_an_error_naming_the_step() {
        let mut scenario = crate::table4(1).unwrap();
        scenario.train.ppo.lr = 1e30;
        scenario.train.max_steps = 1 << 20;
        let err = train_trainer(&scenario, |_, _| {})
            .err()
            .expect("divergence");
        assert!(
            err.starts_with(&format!("{}: training diverged at step ", scenario.name)),
            "{err}"
        );
    }

    fn parse_all(args: &[&str]) -> Result<TrainOverrides, String> {
        let mut overrides = TrainOverrides::default();
        let mut it = args.iter().map(|s| s.to_string());
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            if !overrides.try_parse(&flag, &mut value)? {
                return Err(format!("unknown flag `{flag}`"));
            }
        }
        Ok(overrides)
    }

    #[test]
    fn parses_and_applies_the_trio() {
        let overrides = parse_all(&["--steps", "5000", "--seed", "7", "--lanes", "0"]).unwrap();
        assert!(overrides.any());
        let mut scenario = crate::table4(1).unwrap();
        overrides.apply(&mut scenario);
        assert_eq!(scenario.train.max_steps, 5000);
        assert_eq!(scenario.train.seed, 7);
        assert_eq!(scenario.train.ppo.num_lanes, 1, "lanes clamp to 1");
    }

    #[test]
    fn parses_and_applies_shards() {
        let overrides = parse_all(&["--shards", "8"]).unwrap();
        assert!(overrides.any());
        let mut scenario = crate::table4(1).unwrap();
        assert_eq!(scenario.train.ppo.grad_shards, 1);
        overrides.apply(&mut scenario);
        assert_eq!(scenario.train.ppo.grad_shards, 8);

        let zero = parse_all(&["--shards", "0"]).unwrap();
        zero.apply(&mut scenario);
        assert_eq!(scenario.train.ppo.grad_shards, 1, "shards clamp to 1");
    }

    #[test]
    fn parses_and_applies_eval_episodes() {
        let overrides = parse_all(&["--eval-episodes", "500"]).unwrap();
        assert!(overrides.any());
        let mut scenario = crate::table4(1).unwrap();
        overrides.apply(&mut scenario);
        assert_eq!(scenario.train.eval_episodes, 500);

        let zero = parse_all(&["--eval-episodes", "0"]).unwrap();
        zero.apply(&mut scenario);
        assert_eq!(scenario.train.eval_episodes, 1, "episodes clamp to 1");
    }

    #[test]
    fn threads_override_parses_and_counts_as_an_override() {
        // `apply` exports RAYON_NUM_THREADS; don't call it here (the test
        // process shares one pool), just check the parse and `any`.
        let overrides = parse_all(&["--threads", "4"]).unwrap();
        assert!(overrides.any());
        assert_eq!(overrides.threads, Some(4));
    }

    #[test]
    fn value_codec_round_trips_and_rejects_unknown_keys() {
        let overrides = TrainOverrides {
            steps: Some(512),
            seed: Some(9),
            lanes: None,
            eval_episodes: Some(20),
            shards: None,
            threads: None,
        };
        let back = TrainOverrides::from_value(&overrides.to_value()).unwrap();
        assert_eq!(back, overrides);
        assert_eq!(
            TrainOverrides::from_value(&Value::table()).unwrap(),
            TrainOverrides::default()
        );

        // `--threads` never travels; a table carrying it is rejected, not
        // silently dropped.
        let mut bad = Value::table();
        bad.set("threads", Value::Int(4));
        let err = TrainOverrides::from_value(&bad).unwrap_err();
        assert!(err.contains("threads"), "{err}");
        let on_wire = TrainOverrides {
            threads: Some(4),
            ..TrainOverrides::default()
        };
        assert_eq!(on_wire.to_value(), Value::table(), "threads stays local");
    }

    #[test]
    fn rejects_bad_values_and_leaves_unknown_flags() {
        assert!(parse_all(&["--steps", "many"])
            .unwrap_err()
            .contains("--steps"));
        assert!(parse_all(&["--steps"]).unwrap_err().contains("--steps"));
        assert!(parse_all(&["--shards", "x"])
            .unwrap_err()
            .contains("--shards"));
        assert!(parse_all(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown"));
        assert!(!parse_all(&[]).unwrap().any());
    }
}
