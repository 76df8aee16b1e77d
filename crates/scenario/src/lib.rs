//! Declarative scenarios for the AutoCAT reproduction.
//!
//! A [`Scenario`] unifies everything one exploration run needs — the cache
//! specification, the environment knobs, the in-loop detection monitor,
//! the victim behavior and the PPO training recipe — in one value that is
//! round-trippable to TOML and JSON files. The built-in [`registry`]
//! carries the paper's Table IV configurations 1–17 ([`table4`]), the
//! Sec. V-D protection schemes ([`defenses`]), the Table V replacement
//! case studies ([`replacement`]) and the Table III hardware profiles
//! ([`hardware`]), so scenario diversity is data, not code edits.
//!
//! The [`run`] module is the one train → evaluate → classify pipeline
//! every scenario front end shares (`scenario-run`, the `sweep` harness,
//! the serving daemon): [`run::train_trainer`], [`run::row_and_stats`],
//! the [`run::TrainOverrides`] flag set and the [`run::spec_digest`]
//! index key.
//!
//! # Example: load a scenario file and run it
//!
//! ```no_run
//! use autocat_scenario::Scenario;
//!
//! // Either resolve a built-in by name...
//! let mut scenario = autocat_scenario::lookup("table4-6").unwrap();
//! // ...or load a hand-written TOML/JSON file.
//! // let mut scenario = Scenario::load("my_scenario.toml").unwrap();
//! scenario.train.max_steps = 300_000;
//! let row = scenario.run().expect("valid scenario");
//! println!(
//!     "{}: found {} ({}), accuracy {:.3}",
//!     scenario.name,
//!     row.sequence,
//!     row.category,
//!     row.accuracy()
//! );
//! ```
//!
//! # Example: round-trip a scenario through TOML or JSON
//!
//! Both codecs are first-class: [`Scenario::load`] / [`Scenario::save`]
//! pick by file extension (`.json` is JSON, everything else TOML), and
//! every registry entry round-trips through either.
//!
//! ```
//! let scenario = autocat_scenario::table4(1).unwrap();
//! let toml = scenario.to_toml();
//! let back = autocat_scenario::Scenario::from_toml(&toml).unwrap();
//! assert_eq!(scenario, back);
//!
//! // The JSON path — the format the `sweep` harness uses for scenario
//! // sidecars and checkpoints — round-trips identically.
//! let json = scenario.to_json();
//! let back = autocat_scenario::Scenario::from_json(&json).unwrap();
//! assert_eq!(scenario, back);
//! ```

mod encode;
pub mod generate;
pub mod registry;
pub mod run;
pub use autocat_nn::value;

use autocat_gym::{CacheGuessingGame, EnvConfig};
use autocat_nn::value::Value;
use autocat_ppo::{Backbone, PpoConfig};
use std::path::Path;

/// Compiles the README's Rust snippets as doctests, so the documented API
/// cannot drift from the code.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

pub use generate::{generate, GenSpace, ScenarioGenerator};
pub use registry::{
    all, defense_autocorr, defense_cyclone_svm, defense_misscount, defense_plcache, defenses,
    hardware, lookup, names, replacement, table4,
};

/// The PPO training recipe attached to a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainSpec {
    /// RNG seed for network init, rollouts and the environment.
    pub seed: u64,
    /// Environment-step training budget.
    pub max_steps: u64,
    /// Trailing-average-return threshold treated as convergence.
    pub return_threshold: f32,
    /// Evaluation episodes after training — the N behind every per-policy
    /// statistic this scenario reports (the [`SweepRow`](run::SweepRow)
    /// accuracy, detection rate and census). Overridable on the bench CLIs
    /// with `--eval-episodes`.
    pub eval_episodes: usize,
    /// Policy/value network backbone.
    pub backbone: Backbone,
    /// PPO hyper-parameters. `ppo.num_lanes` is the single source of
    /// truth for the VecEnv rollout width (1 = the bit-for-bit scalar
    /// path).
    pub ppo: PpoConfig,
}

impl Default for TrainSpec {
    /// The recipe validated on the paper's small cache configurations: a
    /// 64×64 MLP on `PpoConfig::small_env`, 200 evaluation episodes, a
    /// 400k-step budget and a 0.8 convergence threshold.
    fn default() -> Self {
        Self {
            seed: 0,
            max_steps: 400_000,
            return_threshold: 0.8,
            eval_episodes: 200,
            backbone: Backbone::Mlp {
                hidden: vec![64, 64],
            },
            ppo: PpoConfig::small_env(),
        }
    }
}

impl TrainSpec {
    /// Checks that the recipe can train: positive horizon, minibatch,
    /// epochs and lanes (a zero horizon never advances the step count, a
    /// zero minibatch cannot be chunked), a finite positive learning rate,
    /// and a backbone the network constructors accept.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        let ppo = &self.ppo;
        for (name, value) in [
            ("horizon", ppo.horizon),
            ("minibatch", ppo.minibatch),
            ("epochs_per_update", ppo.epochs_per_update),
            ("num_lanes", ppo.num_lanes),
        ] {
            if value == 0 {
                return Err(format!("train.ppo.{name} must be positive"));
            }
        }
        if !(ppo.lr.is_finite() && ppo.lr > 0.0) {
            return Err(format!(
                "train.ppo.lr must be finite and positive, got {}",
                ppo.lr
            ));
        }
        match &self.backbone {
            Backbone::Mlp { hidden } => {
                if hidden.is_empty() || hidden.contains(&0) {
                    return Err(format!(
                        "train.backbone.hidden must be non-empty and positive, got {hidden:?}"
                    ));
                }
            }
            Backbone::Transformer {
                d_model,
                num_heads,
                ff_dim,
            } => {
                if *d_model == 0 || *num_heads == 0 || *ff_dim == 0 {
                    return Err("train.backbone dimensions must be positive".into());
                }
                if !d_model.is_multiple_of(*num_heads) {
                    return Err(format!(
                        "train.backbone.d_model {d_model} is not divisible by num_heads {num_heads}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One named, serializable exploration scenario: environment + training
/// recipe. See the [crate docs](crate) for examples.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Registry/display name (e.g. `table4-6`).
    pub name: String,
    /// Human-readable summary — for Table IV rows, the attack the paper's
    /// agent found there.
    pub summary: String,
    /// Full environment configuration (cache spec, address ranges,
    /// in-loop monitor, rewards, victim behavior).
    pub env: EnvConfig,
    /// PPO training recipe.
    pub train: TrainSpec,
}

impl Scenario {
    /// Creates a scenario with the default training recipe.
    pub fn new(name: impl Into<String>, summary: impl Into<String>, env: EnvConfig) -> Self {
        Self {
            name: name.into(),
            summary: summary.into(),
            env,
            train: TrainSpec::default(),
        }
    }

    /// Validates the environment configuration and the training recipe
    /// ([`TrainSpec::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.env.validate()?;
        self.train.validate()
    }

    /// Builds the guessing-game environment this scenario describes.
    ///
    /// # Errors
    ///
    /// Returns an error if the environment configuration is invalid.
    pub fn build_env(&self) -> Result<CacheGuessingGame, String> {
        CacheGuessingGame::new(self.env.clone())
    }

    /// Trains a PPO agent on the scenario and evaluates it into a report
    /// row: [`run::train_trainer`] followed by [`run::row_and_stats`], the
    /// same pipeline `scenario-run`, the sweep and the daemon use.
    ///
    /// # Errors
    ///
    /// Returns an error if the scenario fails [`Scenario::validate`].
    pub fn run(&self) -> Result<run::SweepRow, String> {
        let mut trainer = run::train_trainer(self, |_, _| {})?;
        Ok(run::row_and_stats(&mut trainer, self).0)
    }

    /// Encodes the scenario as TOML.
    pub fn to_toml(&self) -> String {
        value::to_toml(&encode::scenario_to_value(self))
            .expect("scenario encoding is always a table")
    }

    /// Encodes the scenario as JSON.
    pub fn to_json(&self) -> String {
        value::to_json(&encode::scenario_to_value(self))
    }

    /// Encodes the scenario as a [`Value`] table (the structure `to_toml`
    /// and `to_json` serialize). Lets embedders splice a scenario into a
    /// larger document without a serialize/re-parse round trip.
    pub fn to_value(&self) -> Value {
        encode::scenario_to_value(self)
    }

    /// Parses a scenario from TOML text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the syntax error or missing field.
    pub fn from_toml(src: &str) -> Result<Self, String> {
        encode::scenario_from_value(&value::from_toml(src)?)
    }

    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the syntax error or missing field.
    pub fn from_json(src: &str) -> Result<Self, String> {
        encode::scenario_from_value(&value::from_json(src)?)
    }

    /// Loads a scenario file, picking the codec by extension (`.json` is
    /// JSON, everything else TOML).
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be read or parsed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let parsed = if path.extension().is_some_and(|ext| ext == "json") {
            Self::from_json(&text)
        } else {
            Self::from_toml(&text)
        };
        parsed.map_err(|e| format!("parsing {}: {e}", path.display()))
    }

    /// Writes the scenario to a file, picking the codec by extension.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        let text = if path.extension().is_some_and(|ext| ext == "json") {
            self.to_json()
        } else {
            self.to_toml()
        };
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_round_trips_every_table4_entry() {
        // Satellite requirement: struct → TOML → struct equality for all
        // 17 Table IV registry entries.
        for no in 1..=17 {
            let scenario = table4(no).unwrap();
            let toml = scenario.to_toml();
            let back = Scenario::from_toml(&toml)
                .unwrap_or_else(|e| panic!("row {no} failed to re-parse: {e}\n{toml}"));
            assert_eq!(scenario, back, "row {no} TOML round trip\n{toml}");
        }
    }

    #[test]
    fn json_round_trips_every_registry_scenario() {
        for scenario in all() {
            let json = scenario.to_json();
            let back = Scenario::from_json(&json)
                .unwrap_or_else(|e| panic!("{} failed to re-parse: {e}", scenario.name));
            assert_eq!(scenario, back, "{} JSON round trip", scenario.name);
        }
    }

    #[test]
    fn toml_round_trips_defense_and_hardware_scenarios() {
        // Monitors (incl. SVM weights) and hardware profiles survive the
        // text format too.
        for scenario in defenses()
            .into_iter()
            .chain([hardware(autocat_gym::HardwareProfile::KabylakeL3W8)])
        {
            let toml = scenario.to_toml();
            let back = Scenario::from_toml(&toml)
                .unwrap_or_else(|e| panic!("{} failed: {e}\n{toml}", scenario.name));
            assert_eq!(scenario, back, "{}", scenario.name);
        }
    }

    #[test]
    fn run_reports_a_row_from_the_train_spec() {
        let mut scenario = table4(1).unwrap();
        scenario.train.max_steps = 2048;
        scenario.train.eval_episodes = 12;
        scenario.train.ppo.horizon = 512;
        scenario.train.ppo.num_lanes = 2;
        let row = scenario.run().expect("valid scenario");
        // Four updates of 512 transitions each, then 12 evaluated episodes.
        assert_eq!(row.steps, 2048);
        assert_eq!(row.eval_episodes, 12);
        assert_eq!(row.scenario, "table4-1");
        assert!(!row.sequence.is_empty());
        assert!(!row.category.is_empty());
        // `train.ppo.num_lanes` is live: one lane trains a different policy.
        scenario.train.ppo.num_lanes = 1;
        assert_ne!(scenario.run().unwrap(), row);
    }

    #[test]
    fn huge_u64_fields_survive_the_text_formats() {
        // Seeds above i64::MAX must not wrap negative in a saved file.
        let mut scenario = table4(1).unwrap();
        scenario.train.seed = u64::MAX;
        scenario.env.cache = {
            let mut cfg = autocat_cache::CacheConfig::direct_mapped(4);
            cfg.policy_seed = i64::MAX as u64 + 7;
            autocat_gym::CacheSpec::Single(cfg)
        };
        let back = Scenario::from_toml(&scenario.to_toml()).unwrap();
        assert_eq!(scenario, back);
        let back = Scenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(scenario, back);
    }

    #[test]
    fn save_and_load_round_trip_through_files() {
        let dir = std::env::temp_dir().join("autocat-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let scenario = defense_misscount();
        for file in ["s.toml", "s.json"] {
            let path = dir.join(file);
            scenario.save(&path).unwrap();
            let back = Scenario::load(&path).unwrap();
            assert_eq!(scenario, back, "{file}");
        }
    }

    #[test]
    fn invalid_scenario_is_rejected_at_run() {
        let mut scenario = table4(1).unwrap();
        scenario.env.window_size = 1;
        assert!(scenario.validate().is_err());
        assert!(scenario.run().is_err());
    }

    /// `probe` must make the scenario fail validation with a message
    /// naming `field`, and `run` must refuse it rather than panic or spin.
    fn rejects(field: &str, probe: impl FnOnce(&mut TrainSpec)) {
        let mut scenario = table4(1).unwrap();
        probe(&mut scenario.train);
        let err = scenario.validate().unwrap_err();
        assert!(err.contains(field), "{field}: {err}");
        assert!(scenario.run().is_err(), "{field}");
    }

    #[test]
    fn zero_horizon_is_rejected() {
        rejects("horizon", |t| t.ppo.horizon = 0);
    }

    #[test]
    fn zero_minibatch_is_rejected() {
        rejects("minibatch", |t| t.ppo.minibatch = 0);
    }

    #[test]
    fn zero_epochs_per_update_is_rejected() {
        rejects("epochs_per_update", |t| t.ppo.epochs_per_update = 0);
    }

    #[test]
    fn zero_lanes_are_rejected() {
        rejects("num_lanes", |t| t.ppo.num_lanes = 0);
    }

    #[test]
    fn empty_or_zero_width_hidden_layers_are_rejected() {
        rejects("hidden", |t| t.backbone = Backbone::Mlp { hidden: vec![] });
        rejects("hidden", |t| {
            t.backbone = Backbone::Mlp {
                hidden: vec![64, 0],
            }
        });
    }

    #[test]
    fn unusable_transformer_dimensions_are_rejected() {
        rejects("dimensions", |t| {
            t.backbone = Backbone::Transformer {
                d_model: 32,
                num_heads: 0,
                ff_dim: 64,
            }
        });
        rejects("divisible", |t| {
            t.backbone = Backbone::Transformer {
                d_model: 30,
                num_heads: 4,
                ff_dim: 64,
            }
        });
    }

    #[test]
    fn non_finite_or_non_positive_learning_rates_are_rejected() {
        for lr in [0.0, -1e-3, f32::NAN, f32::INFINITY] {
            rejects("lr", |t| t.ppo.lr = lr);
        }
    }

    #[test]
    fn zero_cache_geometry_is_a_decode_error() {
        let json = table4(1).unwrap().to_json();
        for key in ["\"num_sets\":", "\"num_ways\":"] {
            let at = json.find(key).expect("cache geometry field") + key.len();
            let digits = json[at..].trim_start();
            let start = json.len() - digits.len();
            let end = start + digits.find(|c: char| !c.is_ascii_digit()).unwrap();
            let zeroed = format!("{}0{}", &json[..start], &json[end..]);
            let err = Scenario::from_json(&zeroed).unwrap_err();
            assert!(err.contains("must be positive"), "{key} {err}");
        }
    }

    #[test]
    fn every_registry_and_generated_scenario_validates() {
        for scenario in all().into_iter().chain(generate(1, 512)) {
            scenario
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        }
    }

    #[test]
    fn malformed_monitor_is_rejected_before_training() {
        // An SVM weight/interval mismatch in a scenario file must surface
        // as a validation error, not a panic on the first cache event.
        let mut scenario = defense_cyclone_svm();
        scenario.env.detection = autocat_detect::MonitorSpec::CycloneSvm {
            w: vec![1.0; 4],
            b: -1.5,
            num_intervals: 8,
            proximity_window: 12,
        };
        let toml = scenario.to_toml();
        let back = Scenario::from_toml(&toml).unwrap();
        assert!(back.validate().is_err());
        assert!(back.run().is_err());
        assert!(back.build_env().is_err());
    }
}
