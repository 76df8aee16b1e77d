//! [`Value`] encoders/decoders for every type a scenario file stores.
//!
//! Enum-typed fields are encoded as tables with a `kind` discriminant
//! (`{ kind = "victim-miss", threshold = 1 }`), simple enums as slug
//! strings (`policy = "plru"`), so hand-written TOML stays readable.

use crate::value::{req, u64_from, u64_value, Value};
use crate::{Scenario, TrainSpec};
use autocat_cache::mapping::AddressMapping;
use autocat_cache::{CacheConfig, PolicyKind, PrefetcherKind, TwoLevelConfig};
use autocat_detect::MonitorSpec;
use autocat_gym::{CacheSpec, EnvConfig, HardwareProfile, RewardConfig};
// Backbone and PpoConfig share their codec with trainer checkpoints, so a
// scenario's `[train]` section and a checkpoint's `config`/`backbone`
// tables never drift apart.
use autocat_ppo::checkpoint::{
    backbone_from_value, backbone_to_value, ppo_config_from_value, ppo_config_to_value,
};
use std::collections::BTreeMap;

fn ctx<T>(result: Result<T, String>, what: &str) -> Result<T, String> {
    result.map_err(|e| format!("{what}: {e}"))
}

// -- simple enums -----------------------------------------------------------

fn policy_to_str(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::Lru => "lru",
        PolicyKind::Plru => "plru",
        PolicyKind::Rrip => "rrip",
        PolicyKind::Nru => "nru",
        PolicyKind::Random => "random",
    }
}

fn policy_from_str(s: &str) -> Result<PolicyKind, String> {
    Ok(match s {
        "lru" => PolicyKind::Lru,
        "plru" => PolicyKind::Plru,
        "rrip" => PolicyKind::Rrip,
        "nru" => PolicyKind::Nru,
        "random" => PolicyKind::Random,
        other => return Err(format!("unknown replacement policy `{other}`")),
    })
}

fn prefetcher_to_str(prefetcher: PrefetcherKind) -> &'static str {
    match prefetcher {
        PrefetcherKind::None => "none",
        PrefetcherKind::NextLine => "next-line",
        PrefetcherKind::Stream => "stream",
    }
}

fn prefetcher_from_str(s: &str) -> Result<PrefetcherKind, String> {
    Ok(match s {
        "none" => PrefetcherKind::None,
        "next-line" => PrefetcherKind::NextLine,
        "stream" => PrefetcherKind::Stream,
        other => return Err(format!("unknown prefetcher `{other}`")),
    })
}

/// Slug used in scenario files and registry names for a hardware profile.
pub fn profile_slug(profile: HardwareProfile) -> &'static str {
    match profile {
        HardwareProfile::SkylakeL1 => "skylake-l1",
        HardwareProfile::SkylakeL2 => "skylake-l2",
        HardwareProfile::SkylakeL3 => "skylake-l3",
        HardwareProfile::KabylakeL3W4 => "kabylake-l3-w4",
        HardwareProfile::KabylakeL3W8 => "kabylake-l3-w8",
        HardwareProfile::CoffeelakeL1 => "coffeelake-l1",
        HardwareProfile::CoffeelakeL2 => "coffeelake-l2",
    }
}

fn profile_from_slug(s: &str) -> Result<HardwareProfile, String> {
    HardwareProfile::table3_rows()
        .into_iter()
        .find(|p| profile_slug(*p) == s)
        .ok_or_else(|| format!("unknown hardware profile `{s}`"))
}

// -- cache geometry ---------------------------------------------------------

fn mapping_to_value(mapping: &AddressMapping) -> Value {
    let mut table = Value::table();
    match mapping {
        AddressMapping::Direct => table.set("kind", Value::Str("direct".into())),
        AddressMapping::RandomPermutation {
            seed,
            address_space,
        } => {
            table.set("kind", Value::Str("random-permutation".into()));
            table.set("seed", u64_value(*seed));
            table.set("address_space", Value::Int(*address_space as i64));
        }
    }
    table
}

fn mapping_from_value(value: &Value) -> Result<AddressMapping, String> {
    let table = value.as_table()?;
    match req(table, "kind")?.as_str()? {
        "direct" => Ok(AddressMapping::Direct),
        "random-permutation" => Ok(AddressMapping::RandomPermutation {
            seed: u64_from(req(table, "seed")?)?,
            address_space: req(table, "address_space")?.as_usize()?,
        }),
        other => Err(format!("unknown mapping kind `{other}`")),
    }
}

fn cache_fields_to(table: &mut Value, config: &CacheConfig) {
    table.set("num_sets", Value::Int(config.num_sets as i64));
    table.set("num_ways", Value::Int(config.num_ways as i64));
    table.set("policy", Value::Str(policy_to_str(config.policy).into()));
    table.set(
        "prefetcher",
        Value::Str(prefetcher_to_str(config.prefetcher).into()),
    );
    table.set("mapping", mapping_to_value(&config.mapping));
    table.set("policy_seed", u64_value(config.policy_seed));
    table.set("hit_latency", Value::Int(i64::from(config.hit_latency)));
    table.set("miss_latency", Value::Int(i64::from(config.miss_latency)));
}

fn cache_config_to_value(config: &CacheConfig) -> Value {
    let mut table = Value::table();
    cache_fields_to(&mut table, config);
    table
}

fn cache_config_from_map(table: &BTreeMap<String, Value>) -> Result<CacheConfig, String> {
    let num_sets = req(table, "num_sets")?.as_usize()?;
    let num_ways = req(table, "num_ways")?.as_usize()?;
    if num_sets == 0 || num_ways == 0 {
        return Err(format!(
            "cache num_sets and num_ways must be positive, got {num_sets} x {num_ways}"
        ));
    }
    let mut config = CacheConfig::new(num_sets, num_ways);
    config.policy = policy_from_str(req(table, "policy")?.as_str()?)?;
    config.prefetcher = prefetcher_from_str(req(table, "prefetcher")?.as_str()?)?;
    config.mapping = mapping_from_value(req(table, "mapping")?)?;
    config.policy_seed = u64_from(req(table, "policy_seed")?)?;
    config.hit_latency = req(table, "hit_latency")?.as_u32()?;
    config.miss_latency = req(table, "miss_latency")?.as_u32()?;
    Ok(config)
}

fn cache_config_from_value(value: &Value) -> Result<CacheConfig, String> {
    cache_config_from_map(value.as_table()?)
}

fn cache_spec_to_value(spec: &CacheSpec) -> Value {
    let mut table = Value::table();
    match spec {
        CacheSpec::Single(config) => {
            table.set("kind", Value::Str("single".into()));
            cache_fields_to(&mut table, config);
        }
        CacheSpec::TwoLevel(config) => {
            table.set("kind", Value::Str("two-level".into()));
            table.set("num_cores", Value::Int(config.num_cores as i64));
            table.set("l1", cache_config_to_value(&config.l1));
            table.set("l2", cache_config_to_value(&config.l2));
        }
        CacheSpec::Hardware(profile) => {
            table.set("kind", Value::Str("hardware".into()));
            table.set("profile", Value::Str(profile_slug(*profile).into()));
        }
    }
    table
}

fn cache_spec_from_value(value: &Value) -> Result<CacheSpec, String> {
    let table = value.as_table()?;
    match req(table, "kind")?.as_str()? {
        "single" => Ok(CacheSpec::Single(cache_config_from_map(table)?)),
        "two-level" => Ok(CacheSpec::TwoLevel(TwoLevelConfig {
            num_cores: req(table, "num_cores")?.as_usize()?,
            l1: ctx(cache_config_from_value(req(table, "l1")?), "l1")?,
            l2: ctx(cache_config_from_value(req(table, "l2")?), "l2")?,
        })),
        "hardware" => Ok(CacheSpec::Hardware(profile_from_slug(
            req(table, "profile")?.as_str()?,
        )?)),
        other => Err(format!("unknown cache kind `{other}`")),
    }
}

// -- monitors ---------------------------------------------------------------

fn monitor_to_value(spec: &MonitorSpec) -> Value {
    let mut table = Value::table();
    match spec {
        MonitorSpec::Off => table.set("kind", Value::Str("off".into())),
        MonitorSpec::VictimMiss { threshold } => {
            table.set("kind", Value::Str("victim-miss".into()));
            table.set("threshold", u64_value(*threshold));
        }
        MonitorSpec::Autocorr { threshold, max_lag } => {
            table.set("kind", Value::Str("autocorr".into()));
            table.set("threshold", Value::Float(*threshold));
            table.set("max_lag", Value::Int(*max_lag as i64));
        }
        MonitorSpec::CycloneSvm {
            w,
            b,
            num_intervals,
            proximity_window,
        } => {
            table.set("kind", Value::Str("cyclone-svm".into()));
            table.set(
                "w",
                Value::Array(w.iter().map(|x| Value::Float(f64::from(*x))).collect()),
            );
            table.set("b", Value::Float(f64::from(*b)));
            table.set("num_intervals", Value::Int(*num_intervals as i64));
            table.set("proximity_window", Value::Int(*proximity_window as i64));
        }
        MonitorSpec::Composite(members) => {
            table.set("kind", Value::Str("composite".into()));
            table.set(
                "members",
                Value::Array(members.iter().map(monitor_to_value).collect()),
            );
        }
    }
    table
}

fn monitor_from_value(value: &Value) -> Result<MonitorSpec, String> {
    let table = value.as_table()?;
    match req(table, "kind")?.as_str()? {
        "off" => Ok(MonitorSpec::Off),
        "victim-miss" => Ok(MonitorSpec::VictimMiss {
            threshold: u64_from(req(table, "threshold")?)?,
        }),
        "autocorr" => Ok(MonitorSpec::Autocorr {
            threshold: req(table, "threshold")?.as_f64()?,
            max_lag: req(table, "max_lag")?.as_usize()?,
        }),
        "cyclone-svm" => Ok(MonitorSpec::CycloneSvm {
            w: req(table, "w")?
                .as_array()?
                .iter()
                .map(Value::as_f32)
                .collect::<Result<_, _>>()?,
            b: req(table, "b")?.as_f32()?,
            num_intervals: req(table, "num_intervals")?.as_usize()?,
            proximity_window: req(table, "proximity_window")?.as_usize()?,
        }),
        "composite" => Ok(MonitorSpec::Composite(
            req(table, "members")?
                .as_array()?
                .iter()
                .map(monitor_from_value)
                .collect::<Result<_, _>>()?,
        )),
        other => Err(format!("unknown monitor kind `{other}`")),
    }
}

// -- environment ------------------------------------------------------------

fn rewards_to_value(rewards: &RewardConfig) -> Value {
    let mut table = Value::table();
    table.set(
        "correct_guess",
        Value::Float(f64::from(rewards.correct_guess)),
    );
    table.set("wrong_guess", Value::Float(f64::from(rewards.wrong_guess)));
    table.set("step", Value::Float(f64::from(rewards.step)));
    table.set(
        "length_violation",
        Value::Float(f64::from(rewards.length_violation)),
    );
    table.set("detection", Value::Float(f64::from(rewards.detection)));
    table
}

fn rewards_from_value(value: &Value) -> Result<RewardConfig, String> {
    let table = value.as_table()?;
    Ok(RewardConfig {
        correct_guess: req(table, "correct_guess")?.as_f32()?,
        wrong_guess: req(table, "wrong_guess")?.as_f32()?,
        step: req(table, "step")?.as_f32()?,
        length_violation: req(table, "length_violation")?.as_f32()?,
        detection: req(table, "detection")?.as_f32()?,
    })
}

fn env_to_value(env: &EnvConfig) -> Value {
    let mut table = Value::table();
    table.set("cache", cache_spec_to_value(&env.cache));
    table.set("attacker_addr_s", u64_value(env.attacker_addr_s));
    table.set("attacker_addr_e", u64_value(env.attacker_addr_e));
    table.set("victim_addr_s", u64_value(env.victim_addr_s));
    table.set("victim_addr_e", u64_value(env.victim_addr_e));
    table.set("flush_enable", Value::Bool(env.flush_enable));
    table.set(
        "victim_no_access_enable",
        Value::Bool(env.victim_no_access_enable),
    );
    table.set("detection", monitor_to_value(&env.detection));
    table.set("window_size", Value::Int(env.window_size as i64));
    table.set("rewards", rewards_to_value(&env.rewards));
    table.set("init_accesses", Value::Int(env.init_accesses as i64));
    table.set("pl_lock_victim", Value::Bool(env.pl_lock_victim));
    table.set("masked_latency", Value::Bool(env.masked_latency));
    table
}

fn env_from_value(value: &Value) -> Result<EnvConfig, String> {
    let table = value.as_table()?;
    Ok(EnvConfig {
        cache: ctx(cache_spec_from_value(req(table, "cache")?), "cache")?,
        attacker_addr_s: u64_from(req(table, "attacker_addr_s")?)?,
        attacker_addr_e: u64_from(req(table, "attacker_addr_e")?)?,
        victim_addr_s: u64_from(req(table, "victim_addr_s")?)?,
        victim_addr_e: u64_from(req(table, "victim_addr_e")?)?,
        flush_enable: req(table, "flush_enable")?.as_bool()?,
        victim_no_access_enable: req(table, "victim_no_access_enable")?.as_bool()?,
        detection: ctx(monitor_from_value(req(table, "detection")?), "detection")?,
        window_size: req(table, "window_size")?.as_usize()?,
        rewards: ctx(rewards_from_value(req(table, "rewards")?), "rewards")?,
        init_accesses: req(table, "init_accesses")?.as_usize()?,
        pl_lock_victim: req(table, "pl_lock_victim")?.as_bool()?,
        masked_latency: req(table, "masked_latency")?.as_bool()?,
    })
}

// -- training ---------------------------------------------------------------

fn train_to_value(train: &TrainSpec) -> Value {
    let mut table = Value::table();
    table.set("seed", u64_value(train.seed));
    table.set("max_steps", u64_value(train.max_steps));
    table.set(
        "return_threshold",
        Value::Float(f64::from(train.return_threshold)),
    );
    table.set("eval_episodes", Value::Int(train.eval_episodes as i64));
    table.set("backbone", backbone_to_value(&train.backbone));
    table.set("ppo", ppo_config_to_value(&train.ppo));
    table
}

fn train_from_value(value: &Value) -> Result<TrainSpec, String> {
    let table = value.as_table()?;
    Ok(TrainSpec {
        seed: u64_from(req(table, "seed")?)?,
        max_steps: u64_from(req(table, "max_steps")?)?,
        return_threshold: req(table, "return_threshold")?.as_f32()?,
        eval_episodes: req(table, "eval_episodes")?.as_usize()?,
        backbone: ctx(backbone_from_value(req(table, "backbone")?), "backbone")?,
        ppo: ctx(ppo_config_from_value(req(table, "ppo")?), "ppo")?,
    })
}

// -- scenario ---------------------------------------------------------------

/// Encodes a full scenario as a [`Value`] tree.
pub fn scenario_to_value(scenario: &Scenario) -> Value {
    let mut table = Value::table();
    table.set("name", Value::Str(scenario.name.clone()));
    table.set("summary", Value::Str(scenario.summary.clone()));
    table.set("env", env_to_value(&scenario.env));
    table.set("train", train_to_value(&scenario.train));
    table
}

/// Decodes a scenario from a [`Value`] tree.
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn scenario_from_value(value: &Value) -> Result<Scenario, String> {
    let table = value.as_table()?;
    Ok(Scenario {
        name: req(table, "name")?.as_str()?.to_string(),
        summary: req(table, "summary")?.as_str()?.to_string(),
        env: ctx(env_from_value(req(table, "env")?), "env")?,
        train: ctx(train_from_value(req(table, "train")?), "train")?,
    })
}
