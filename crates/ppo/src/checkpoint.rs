//! Trainer checkpoints: weights, optimizer moments and RNG state, with a
//! bit-exact resume guarantee.
//!
//! [`Trainer::save_checkpoint`] captures everything training depends on —
//! network parameters with their Adam moments, the optimizer step counter,
//! the master RNG, every VecEnv lane RNG, the step counter and the
//! trailing episode window — as a [`Value`] tree written out as JSON
//! (`.json` extension, the interchange/golden form) or as the compact
//! binary codec from `autocat-store` (any other extension — the hot
//! path). [`Trainer::load_checkpoint`] sniffs the codec from the bytes
//! and rebuilds a trainer from the file plus a freshly-built prototype
//! environment; both codecs carry the identical tree, so the guarantee
//! below is codec-independent.
//!
//! # The bit-exact resume guarantee
//!
//! A loaded trainer continues training **bit-for-bit identically** to the
//! trainer that saved the checkpoint (and kept running), provided the
//! caller passes an environment built from the same configuration. This
//! works because checkpoints are taken at update boundaries and rollout
//! collection starts by resetting every lane: after a reset, an
//! environment's entire state is a function of the RNG stream that drove
//! it (stochastic backends are explicitly reseeded from that stream, see
//! `CacheBackend::reseed` in `autocat-cache`), so restoring the RNG
//! states restores the trajectory. Mid-episode environment state is the
//! one thing deliberately *not* stored — the next collection discards it
//! on both sides of the save.
//!
//! The float codec is exact (each `f32` is written as its `f64` widening
//! with shortest-round-trip formatting), so no precision is lost through
//! the text file.

use crate::trainer::{Backbone, PpoConfig, Trainer};
use autocat_gym::{Environment, VecEnv};
use autocat_nn::state::{adam_from_value, adam_to_value, load_params, params_to_value};
use autocat_nn::value::{self, req, u64_from, u64_value, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::path::Path;

/// Format version written into every checkpoint file.
pub const CHECKPOINT_VERSION: i64 = 1;

/// Encodes a [`Backbone`] as a `kind`-discriminated table (shared with
/// scenario files).
pub fn backbone_to_value(backbone: &Backbone) -> Value {
    let mut table = Value::table();
    match backbone {
        Backbone::Mlp { hidden } => {
            table.set("kind", Value::Str("mlp".into()));
            table.set(
                "hidden",
                Value::Array(hidden.iter().map(|h| Value::Int(*h as i64)).collect()),
            );
        }
        Backbone::Transformer {
            d_model,
            num_heads,
            ff_dim,
        } => {
            table.set("kind", Value::Str("transformer".into()));
            table.set("d_model", Value::Int(*d_model as i64));
            table.set("num_heads", Value::Int(*num_heads as i64));
            table.set("ff_dim", Value::Int(*ff_dim as i64));
        }
    }
    table
}

/// Decodes a [`Backbone`] written by [`backbone_to_value`].
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn backbone_from_value(value: &Value) -> Result<Backbone, String> {
    let table = value.as_table()?;
    match req(table, "kind")?.as_str()? {
        "mlp" => Ok(Backbone::Mlp {
            hidden: req(table, "hidden")?
                .as_array()?
                .iter()
                .map(Value::as_usize)
                .collect::<Result<_, _>>()?,
        }),
        "transformer" => Ok(Backbone::Transformer {
            d_model: req(table, "d_model")?.as_usize()?,
            num_heads: req(table, "num_heads")?.as_usize()?,
            ff_dim: req(table, "ff_dim")?.as_usize()?,
        }),
        other => Err(format!("unknown backbone kind `{other}`")),
    }
}

/// Encodes a [`PpoConfig`] as a flat table (shared with scenario files).
pub fn ppo_config_to_value(ppo: &PpoConfig) -> Value {
    let mut table = Value::table();
    table.set("lr", Value::Float(f64::from(ppo.lr)));
    table.set("gamma", Value::Float(f64::from(ppo.gamma)));
    table.set("lambda", Value::Float(f64::from(ppo.lambda)));
    table.set("clip", Value::Float(f64::from(ppo.clip)));
    table.set("entropy_coef", Value::Float(f64::from(ppo.entropy_coef)));
    table.set("value_coef", Value::Float(f64::from(ppo.value_coef)));
    table.set("horizon", Value::Int(ppo.horizon as i64));
    table.set(
        "epochs_per_update",
        Value::Int(ppo.epochs_per_update as i64),
    );
    table.set("minibatch", Value::Int(ppo.minibatch as i64));
    table.set("max_grad_norm", Value::Float(f64::from(ppo.max_grad_norm)));
    table.set("steps_per_epoch", Value::Int(ppo.steps_per_epoch as i64));
    table.set("num_lanes", Value::Int(ppo.num_lanes as i64));
    // Written only when it changes the math: a single shard is the
    // historical update, and omitting the key keeps every pre-existing
    // scenario/checkpoint file (and the golden fixtures) byte-stable.
    if ppo.grad_shards > 1 {
        table.set("grad_shards", Value::Int(ppo.grad_shards as i64));
    }
    table
}

/// Decodes a [`PpoConfig`] written by [`ppo_config_to_value`].
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn ppo_config_from_value(value: &Value) -> Result<PpoConfig, String> {
    let table = value.as_table()?;
    Ok(PpoConfig {
        lr: req(table, "lr")?.as_f32()?,
        gamma: req(table, "gamma")?.as_f32()?,
        lambda: req(table, "lambda")?.as_f32()?,
        clip: req(table, "clip")?.as_f32()?,
        entropy_coef: req(table, "entropy_coef")?.as_f32()?,
        value_coef: req(table, "value_coef")?.as_f32()?,
        horizon: req(table, "horizon")?.as_usize()?,
        epochs_per_update: req(table, "epochs_per_update")?.as_usize()?,
        minibatch: req(table, "minibatch")?.as_usize()?,
        max_grad_norm: req(table, "max_grad_norm")?.as_f32()?,
        steps_per_epoch: req(table, "steps_per_epoch")?.as_usize()?,
        num_lanes: req(table, "num_lanes")?.as_usize()?,
        grad_shards: match table.get("grad_shards") {
            Some(value) => value.as_usize()?.max(1),
            None => 1,
        },
    })
}

/// Decodes checkpoint bytes in whichever codec they are: framed binary
/// when the `ACSB` magic leads, JSON text otherwise. This is the single
/// sniffing point every loader (trainer, store, daemon) goes through.
///
/// # Errors
///
/// Returns the codec's parse error; never panics on malformed input.
pub fn checkpoint_value_from_bytes(bytes: &[u8]) -> Result<Value, String> {
    if autocat_store::codec::is_binary(bytes) {
        autocat_store::codec::decode(bytes)
    } else {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| "checkpoint is neither binary (no magic) nor UTF-8 JSON".to_string())?;
        value::from_json(text)
    }
}

fn rng_state_to_value(state: [u64; 4]) -> Value {
    Value::Array(state.iter().map(|&w| u64_value(w)).collect())
}

fn rng_state_from_value(value: &Value) -> Result<[u64; 4], String> {
    let words = value.as_array()?;
    if words.len() != 4 {
        return Err(format!("RNG state needs 4 words, found {}", words.len()));
    }
    let mut state = [0u64; 4];
    for (slot, word) in state.iter_mut().zip(words) {
        *slot = u64_from(word)?;
    }
    Ok(state)
}

impl<E: Environment + Send> Trainer<E> {
    /// Encodes the trainer's full training state as a [`Value`] tree.
    ///
    /// Takes `&mut` because parameter visitation does; the trainer is not
    /// modified.
    pub fn to_checkpoint_value(&mut self) -> Value {
        let mut net_table = Value::table();
        net_table.set("obs_dim", Value::Int(self.net.obs_dim() as i64));
        net_table.set("num_actions", Value::Int(self.net.num_actions() as i64));

        let recent = Value::Array(
            self.recent
                .iter()
                .map(|&(ret, len, correct)| {
                    let mut episode = Value::table();
                    episode.set("ret", Value::Float(f64::from(ret)));
                    episode.set("len", Value::Int(len as i64));
                    episode.set("correct", Value::Bool(correct));
                    episode
                })
                .collect(),
        );

        let mut table = Value::table();
        table.set("version", Value::Int(CHECKPOINT_VERSION));
        table.set("backbone", backbone_to_value(&self.backbone));
        table.set("config", ppo_config_to_value(&self.config));
        table.set("net", net_table);
        table.set("total_steps", u64_value(self.total_steps));
        table.set("recent", recent);
        table.set("recent_cap", Value::Int(self.recent_cap as i64));
        table.set("adam", adam_to_value(&self.adam));
        table.set("rng", rng_state_to_value(self.rng.state()));
        table.set(
            "lane_rngs",
            Value::Array(
                self.venv
                    .rng_states()
                    .into_iter()
                    .map(rng_state_to_value)
                    .collect(),
            ),
        );
        table.set("params", params_to_value(self.net.as_mut()));
        table
    }

    /// Writes the checkpoint to `path`, creating parent directories as
    /// needed. The codec follows the extension: `.json` writes the
    /// interchange JSON text, anything else (canonically `.ckpt.bin`) the
    /// compact binary form — both carry the identical [`Value`] tree, so
    /// the choice is pure speed, never fidelity.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written.
    pub fn save_checkpoint(&mut self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
        let tree = self.to_checkpoint_value();
        let bytes = if path.extension().is_some_and(|e| e == "json") {
            value::to_json(&tree).into_bytes()
        } else {
            autocat_store::codec::encode(&tree)
        };
        std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

impl<E: Environment + Clone + Send> Trainer<E> {
    /// Rebuilds a trainer from a checkpoint [`Value`] tree and a prototype
    /// environment built from the **same configuration** the saved trainer
    /// used (the checkpoint validates the observation/action dimensions
    /// against it). See the [module docs](self) for the resume guarantee.
    ///
    /// # Errors
    ///
    /// Returns an error on a version, dimension or parameter mismatch, or
    /// malformed input.
    pub fn from_checkpoint_value(value: &Value, env: E) -> Result<Self, String> {
        let table = value.as_table()?;
        let version = req(table, "version")?.as_i64()?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
            ));
        }
        let backbone = backbone_from_value(req(table, "backbone")?)?;
        let config = ppo_config_from_value(req(table, "config")?)?;

        let net_table = req(table, "net")?.as_table()?;
        let saved_obs = req(net_table, "obs_dim")?.as_usize()?;
        let saved_actions = req(net_table, "num_actions")?.as_usize()?;
        if (env.obs_dim(), env.num_actions()) != (saved_obs, saved_actions) {
            return Err(format!(
                "environment has (obs_dim, num_actions) = ({}, {}), checkpoint was trained \
                 on ({saved_obs}, {saved_actions}) — pass an environment built from the \
                 scenario the checkpoint came from",
                env.obs_dim(),
                env.num_actions()
            ));
        }

        let mut venv = VecEnv::new(config.num_lanes.max(1), env, 0)?;
        let lane_states = req(table, "lane_rngs")?
            .as_array()?
            .iter()
            .map(rng_state_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        venv.restore_rng_states(&lane_states)?;

        // The architecture comes from the backbone; the init draws are
        // immediately overwritten by the stored parameters.
        let mut init_rng = StdRng::seed_from_u64(0);
        let mut net = backbone.build(venv.lane(0), &mut init_rng);
        load_params(net.as_mut(), req(table, "params")?)?;

        let recent = req(table, "recent")?
            .as_array()?
            .iter()
            .map(|episode| {
                let episode = episode.as_table()?;
                Ok((
                    req(episode, "ret")?.as_f32()?,
                    req(episode, "len")?.as_usize()?,
                    req(episode, "correct")?.as_bool()?,
                ))
            })
            .collect::<Result<VecDeque<_>, String>>()?;

        Ok(Self {
            venv,
            net,
            backbone,
            adam: adam_from_value(req(table, "adam")?)?,
            config,
            rng: StdRng::from_state(rng_state_from_value(req(table, "rng")?)?),
            total_steps: u64_from(req(table, "total_steps")?)?,
            recent,
            recent_cap: req(table, "recent_cap")?.as_usize()?,
            // Transient: rebuilt lazily on the first sharded update.
            workspace: Default::default(),
            batch_csr: Default::default(),
        })
    }

    /// Loads a checkpoint written by [`Trainer::save_checkpoint`] in
    /// either codec: the binary magic is sniffed from the bytes, with a
    /// JSON fallback for legacy text checkpoints regardless of extension.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be read or does not match the
    /// environment.
    pub fn load_checkpoint(path: impl AsRef<Path>, env: E) -> Result<Self, String> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let parsed = checkpoint_value_from_bytes(&bytes)
            .map_err(|e| format!("parsing {}: {e}", path.display()))?;
        Self::from_checkpoint_value(&parsed, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use autocat_cache::PolicyKind;
    use autocat_gym::{env::CacheGuessingGame, CacheSpec, EnvConfig};

    fn env() -> CacheGuessingGame {
        CacheGuessingGame::new(EnvConfig::flush_reload_fa4().with_window(8)).unwrap()
    }

    fn random_policy_env() -> CacheGuessingGame {
        let mut cfg = EnvConfig::flush_reload_fa4().with_window(8);
        match &mut cfg.cache {
            CacheSpec::Single(c) => c.policy = PolicyKind::Random,
            _ => unreachable!("flush_reload_fa4 is single-level"),
        }
        CacheGuessingGame::new(cfg).unwrap()
    }

    fn trainer_sharded(
        env: CacheGuessingGame,
        lanes: usize,
        shards: usize,
        seed: u64,
    ) -> Trainer<CacheGuessingGame> {
        Trainer::new(
            env,
            Backbone::Mlp { hidden: vec![16] },
            PpoConfig {
                horizon: 128,
                minibatch: 64,
                epochs_per_update: 2,
                num_lanes: lanes,
                grad_shards: shards,
                ..PpoConfig::default()
            },
            seed,
        )
    }

    fn trainer(env: CacheGuessingGame, lanes: usize, seed: u64) -> Trainer<CacheGuessingGame> {
        trainer_sharded(env, lanes, 1, seed)
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join("autocat-ppo-ckpt-tests")
            .join(name)
    }

    /// Train → save → (keep training | load and train): both sides must
    /// produce bit-identical update statistics, weights and greedy
    /// evaluations. This is the resume guarantee of the module docs.
    fn assert_bit_exact_resume(make_env: fn() -> CacheGuessingGame, lanes: usize, name: &str) {
        assert_bit_exact_resume_sharded(make_env, lanes, 1, name);
    }

    fn assert_bit_exact_resume_sharded(
        make_env: fn() -> CacheGuessingGame,
        lanes: usize,
        shards: usize,
        name: &str,
    ) {
        let mut original = trainer_sharded(make_env(), lanes, shards, 11);
        for _ in 0..2 {
            original.train_update().unwrap();
        }
        let path = ckpt_path(name);
        original.save_checkpoint(&path).unwrap();
        let mut resumed = Trainer::load_checkpoint(&path, make_env()).unwrap();

        assert_eq!(resumed.total_steps(), original.total_steps());
        assert_eq!(resumed.avg_return(), original.avg_return());
        for round in 0..3 {
            let a = original.train_update().unwrap();
            let b = resumed.train_update().unwrap();
            assert_eq!(a, b, "update {round} diverged after resume");
        }
        // Greedy evaluation must agree too (same weights, same RNG state).
        let (env_a, net_a, rng_a) = original.parts_mut();
        let report_a = eval::evaluate_batched(&*env_a, net_a, 4, 1, true, rng_a);
        let (env_b, net_b, rng_b) = resumed.parts_mut();
        let report_b = eval::evaluate_batched(&*env_b, net_b, 4, 1, true, rng_b);
        assert_eq!(report_a, report_b);
    }

    #[test]
    fn resume_is_bit_exact_single_lane() {
        assert_bit_exact_resume(env, 1, "single_lane.ckpt.json");
    }

    #[test]
    fn resume_is_bit_exact_multi_lane() {
        assert_bit_exact_resume(env, 4, "multi_lane.ckpt.json");
    }

    #[test]
    fn resume_is_bit_exact_under_the_sharded_trainer() {
        // The parallel (data-parallel gradient) trainer must uphold the
        // same resume guarantee as the single-threaded one: grad_shards
        // rides in the checkpointed config, and the fixed-order reduction
        // makes continued training deterministic.
        assert_bit_exact_resume_sharded(env, 2, 3, "sharded.ckpt.json");
    }

    #[test]
    fn resume_is_bit_exact_on_a_random_replacement_cache() {
        // Random replacement draws from the cache's internal RNG; episode
        // resets reseed it from the episode stream (CacheBackend::reseed),
        // which is what makes this hold.
        assert_bit_exact_resume(random_policy_env, 2, "random_policy.ckpt.json");
    }

    #[test]
    fn loaded_policy_evaluates_identically_to_the_in_memory_one() {
        // The satellite requirement: train N steps → save → load → greedy
        // eval actions identical to the in-memory policy's.
        let mut original = trainer(env(), 1, 3);
        for _ in 0..3 {
            original.train_update().unwrap();
        }
        let path = ckpt_path("eval_identical.ckpt.json");
        original.save_checkpoint(&path).unwrap();
        let mut loaded = Trainer::load_checkpoint(&path, env()).unwrap();

        use autocat_gym::env::Secret;
        for secret in [Secret::Addr(0), Secret::Addr(1)] {
            // The evaluation lane clones the prototype environment, forced
            // secret included.
            let (env_a, net_a, rng_a) = original.parts_mut();
            env_a.force_secret(Some(secret));
            let report_a = eval::evaluate_batched(&*env_a, net_a, 4, 1, true, rng_a);
            env_a.force_secret(None);
            let (env_b, net_b, rng_b) = loaded.parts_mut();
            env_b.force_secret(Some(secret));
            let report_b = eval::evaluate_batched(&*env_b, net_b, 4, 1, true, rng_b);
            env_b.force_secret(None);
            assert_eq!(report_a, report_b, "secret {secret:?}");
        }
    }

    #[test]
    fn checkpoint_value_round_trips_exactly() {
        let mut t = trainer(env(), 2, 9);
        t.train_update().unwrap();
        let saved = t.to_checkpoint_value();
        let reparsed = value::from_json(&value::to_json(&saved)).unwrap();
        assert_eq!(reparsed, saved, "JSON text must round-trip the tree");
        let mut loaded = Trainer::from_checkpoint_value(&reparsed, env()).unwrap();
        assert_eq!(loaded.to_checkpoint_value(), saved);
    }

    /// The ISSUE 7 interchange contract: a trained checkpoint pushed
    /// through JSON and through the binary codec decodes to the *same*
    /// tree — weights, Adam moments, master RNG and every lane RNG stream
    /// bit-for-bit — and both loaded trainers keep training identically.
    fn assert_json_binary_bit_exact(lanes: usize, name: &str) {
        let mut t = trainer(env(), lanes, 21);
        for _ in 0..2 {
            t.train_update().unwrap();
        }
        let saved = t.to_checkpoint_value();

        let via_json = value::from_json(&value::to_json(&saved)).unwrap();
        let via_binary =
            autocat_store::codec::decode(&autocat_store::codec::encode(&saved)).unwrap();
        assert_eq!(via_json, via_binary, "codecs disagree on the tree");
        assert_eq!(via_binary, saved);

        // Same through the file layer: one save per codec, then the
        // sniffing loader, then identical continued training.
        let json_path = ckpt_path(&format!("{name}.ckpt.json"));
        let bin_path = ckpt_path(&format!("{name}.ckpt.bin"));
        t.save_checkpoint(&json_path).unwrap();
        t.save_checkpoint(&bin_path).unwrap();
        assert!(autocat_store::codec::is_binary(
            &std::fs::read(&bin_path).unwrap()
        ));
        let mut from_json_file = Trainer::load_checkpoint(&json_path, env()).unwrap();
        let mut from_bin_file = Trainer::load_checkpoint(&bin_path, env()).unwrap();
        assert_eq!(
            from_json_file.to_checkpoint_value(),
            from_bin_file.to_checkpoint_value()
        );
        for round in 0..2 {
            assert_eq!(
                from_json_file.train_update().unwrap(),
                from_bin_file.train_update().unwrap(),
                "update {round} diverged between codecs"
            );
        }
    }

    #[test]
    fn json_and_binary_codecs_are_bit_exact_single_lane() {
        assert_json_binary_bit_exact(1, "codec_single");
    }

    #[test]
    fn json_and_binary_codecs_are_bit_exact_multi_lane() {
        assert_json_binary_bit_exact(4, "codec_multi");
    }

    #[test]
    fn binary_checkpoint_resume_is_bit_exact() {
        // The resume guarantee holds through the binary hot path too.
        let mut original = trainer(env(), 2, 13);
        for _ in 0..2 {
            original.train_update().unwrap();
        }
        let path = ckpt_path("binary_resume.ckpt.bin");
        original.save_checkpoint(&path).unwrap();
        let mut resumed = Trainer::load_checkpoint(&path, env()).unwrap();
        for round in 0..3 {
            assert_eq!(
                original.train_update().unwrap(),
                resumed.train_update().unwrap(),
                "update {round} diverged after binary resume"
            );
        }
    }

    #[test]
    fn truncated_binary_checkpoint_is_an_error_not_a_panic() {
        let mut t = trainer(env(), 1, 4);
        t.train_update().unwrap();
        let path = ckpt_path("truncated.ckpt.bin");
        t.save_checkpoint(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for frac in [2usize, 3, 10, 1000] {
            let cut = ckpt_path(&format!("truncated_{frac}.ckpt.bin"));
            std::fs::write(&cut, &bytes[..bytes.len() / frac]).unwrap();
            let err = Trainer::load_checkpoint(&cut, env())
                .err()
                .expect("truncated binary checkpoint must be rejected");
            assert!(err.contains(".ckpt.bin"), "error names the file: {err}");
        }
        // Non-UTF-8 bytes with no magic: neither codec claims them.
        let junk = ckpt_path("junk.ckpt.bin");
        std::fs::write(&junk, [0xFFu8, 0xFE, 0x00, 0x01]).unwrap();
        assert!(Trainer::load_checkpoint(&junk, env()).is_err());
    }

    #[test]
    fn mismatched_environment_is_rejected() {
        let mut t = trainer(env(), 1, 0);
        t.train_update().unwrap();
        let saved = t.to_checkpoint_value();
        let other = CacheGuessingGame::new(EnvConfig::prime_probe_dm4()).unwrap();
        let err = Trainer::<CacheGuessingGame>::from_checkpoint_value(&saved, other)
            .err()
            .expect("dimension mismatch must be rejected");
        assert!(err.contains("obs_dim"), "{err}");
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut t = trainer(env(), 1, 0);
        let mut saved = t.to_checkpoint_value();
        saved.set("version", Value::Int(CHECKPOINT_VERSION + 1));
        let err = Trainer::from_checkpoint_value(&saved, env())
            .err()
            .expect("future versions must be rejected");
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn backbone_and_ppo_config_codecs_round_trip() {
        for backbone in [
            Backbone::default_mlp(),
            Backbone::small_transformer(),
            Backbone::Mlp { hidden: vec![7] },
        ] {
            let back = backbone_from_value(&backbone_to_value(&backbone)).unwrap();
            assert_eq!(back, backbone);
        }
        let ppo = PpoConfig::small_env().with_lanes(6).with_grad_shards(4);
        assert_eq!(
            ppo_config_from_value(&ppo_config_to_value(&ppo)).unwrap(),
            ppo
        );
    }

    #[test]
    fn grad_shards_is_omitted_at_one_and_defaults_on_old_files() {
        // Single-shard configs serialize exactly as they did before the
        // field existed (keeps golden fixtures byte-stable), and tables
        // written by older builds — no `grad_shards` key — decode to 1.
        let ppo = PpoConfig::default();
        let encoded = ppo_config_to_value(&ppo);
        assert!(encoded.as_table().unwrap().get("grad_shards").is_none());
        assert_eq!(ppo_config_from_value(&encoded).unwrap().grad_shards, 1);

        let sharded = ppo.with_grad_shards(8);
        let encoded = ppo_config_to_value(&sharded);
        assert!(encoded.as_table().unwrap().get("grad_shards").is_some());
        assert_eq!(ppo_config_from_value(&encoded).unwrap(), sharded);
    }

    #[test]
    fn truncated_checkpoint_file_is_an_error_not_a_panic() {
        let mut t = trainer(env(), 1, 4);
        t.train_update().unwrap();
        let path = ckpt_path("truncated.ckpt.json");
        t.save_checkpoint(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Cut the file at several depths, including mid-token.
        for frac in [2usize, 3, 10, 100] {
            let cut = ckpt_path(&format!("truncated_{frac}.ckpt.json"));
            std::fs::write(&cut, &text[..text.len() / frac]).unwrap();
            let err = Trainer::load_checkpoint(&cut, env())
                .err()
                .expect("truncated checkpoint must be rejected");
            assert!(err.contains(".ckpt.json"), "error names the file: {err}");
        }
    }

    #[test]
    fn corrupt_checkpoint_files_are_errors_not_panics() {
        let dir = ckpt_path("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in [
            ("not_json.ckpt.json", "definitely not json"),
            ("wrong_shape.ckpt.json", "[1, 2, 3]"),
            ("empty_table.ckpt.json", "{}"),
            (
                "mistyped.ckpt.json",
                "{\"version\": \"one\", \"params\": 5}",
            ),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            assert!(
                Trainer::load_checkpoint(&path, env()).is_err(),
                "{name} must fail to load"
            );
        }
        // A missing file is also an Err (not a panic).
        assert!(Trainer::load_checkpoint(dir.join("absent.ckpt.json"), env()).is_err());
    }

    #[test]
    fn version_mismatch_in_the_file_is_an_error() {
        let mut t = trainer(env(), 1, 5);
        let mut saved = t.to_checkpoint_value();
        saved.set("version", Value::Int(CHECKPOINT_VERSION + 7));
        let path = ckpt_path("future_version.ckpt.json");
        std::fs::write(&path, value::to_json(&saved)).unwrap();
        let err = Trainer::load_checkpoint(&path, env())
            .err()
            .expect("future version must be rejected");
        assert!(err.contains("version"), "{err}");
    }
}
