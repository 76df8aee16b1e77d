//! Policy evaluation.
//!
//! Two evaluation drivers share one statistics contract:
//!
//! * [`evaluate`] — the historical serial loop: one environment, one-row
//!   policy forwards, every random draw from the caller's RNG.
//! * [`evaluate_batched`] — the lane-batched engine: N environment lanes
//!   advance together against **one batched `net.forward` per step** over
//!   all live lanes (the same register-blocked matmul hot path training
//!   uses), with the episode budget split across lanes up front.
//!
//! Determinism contract (mirrors `VecEnv`'s):
//!
//! * **One lane**: every draw comes from the caller's RNG in exactly the
//!   serial loop's order, so [`evaluate_batched`] at one lane is
//!   bit-identical to [`evaluate`] — same [`EvalStats`], same RNG stream
//!   left behind.
//! * **Multiple lanes**: each lane owns an RNG stream derived from one
//!   caller draw via [`autocat_gym::lane_seed`], lane results merge in
//!   fixed lane order ([`EpisodeTally::merge`]), and the batched forward
//!   runs serially on the evaluating thread, so results depend only on
//!   `(inputs, lanes)` — never on `RAYON_NUM_THREADS` or scheduling.

use autocat_gym::{lane_seed, Environment};
use autocat_nn::models::PolicyValueNet;
use autocat_nn::{Categorical, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rollout::EpisodeTally;

/// Aggregate evaluation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalStats {
    /// Episodes evaluated.
    pub episodes: usize,
    /// Episodes ending in a correct guess.
    pub correct: usize,
    /// Episodes ending in any guess.
    pub guessed: usize,
    /// Episodes terminated by a detector.
    pub detected: usize,
    /// Mean episode return.
    pub avg_return: f32,
    /// Mean episode length.
    pub avg_length: f32,
}

impl EvalStats {
    /// Fraction of **all** episodes ending in a correct guess — this is
    /// `correct / episodes` (the paper's "accuracy" column), *not*
    /// `correct / guessed`. Episodes that time out or are cut short by a
    /// detector count against accuracy; see [`EvalStats::guess_rate`] for
    /// how often the policy guessed at all.
    pub fn accuracy(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.correct as f64 / self.episodes as f64
        }
    }

    /// Fraction of episodes ending in any guess (`guessed / episodes`).
    /// `accuracy() <= guess_rate()` always; a gap between them means the
    /// policy is timing out or being stopped by a detector rather than
    /// guessing wrong.
    pub fn guess_rate(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.guessed as f64 / self.episodes as f64
        }
    }

    /// Fraction of episodes flagged by a detector.
    pub fn detection_rate(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.detected as f64 / self.episodes as f64
        }
    }

    /// FNV-1a digest ([`autocat_nn::state::fnv1a`]) over the exact bits of
    /// every field — the determinism-gate fingerprint `eval-bench`
    /// compares across `RAYON_NUM_THREADS` settings. Two stats digests are
    /// equal iff the stats are bitwise equal.
    pub fn digest(&self) -> u64 {
        let words = [
            self.episodes as u64,
            self.correct as u64,
            self.guessed as u64,
            self.detected as u64,
            u64::from(self.avg_return.to_bits()),
            u64::from(self.avg_length.to_bits()),
        ];
        autocat_nn::state::fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
    }

    fn from_tally(tally: &EpisodeTally, episodes: usize) -> Self {
        Self {
            episodes,
            correct: tally.correct,
            guessed: tally.guessed,
            detected: tally.detected,
            avg_return: tally.return_sum / episodes.max(1) as f32,
            avg_length: tally.length_sum as f32 / episodes.max(1) as f32,
        }
    }
}

/// Runs `episodes` evaluation episodes.
///
/// With `deterministic` the argmax action is taken; otherwise actions are
/// sampled (needed on stochastic caches, Sec. V-C random-policy study).
pub fn evaluate(
    env: &mut impl Environment,
    net: &mut dyn PolicyValueNet,
    episodes: usize,
    deterministic: bool,
    rng: &mut StdRng,
) -> EvalStats {
    let mut stats = EvalStats {
        episodes,
        ..EvalStats::default()
    };
    let mut return_sum = 0.0f32;
    let mut length_sum = 0usize;
    let mut dist = Categorical::default();
    for _ in 0..episodes {
        let mut obs = env.reset(rng);
        loop {
            let (logits, _) = net.forward_inference(&Matrix::from_row(&obs));
            dist.set_logits(logits.row(0));
            let action = if deterministic {
                dist.argmax()
            } else {
                dist.sample(rng)
            };
            let result = env.step(action, rng);
            return_sum += result.reward;
            length_sum += 1;
            if result.done {
                if let Some(correct) = result.info.guessed {
                    stats.guessed += 1;
                    stats.correct += usize::from(correct);
                }
                stats.detected += usize::from(result.info.detected);
                break;
            }
            obs = result.obs;
        }
    }
    stats.avg_return = return_sum / episodes.max(1) as f32;
    stats.avg_length = length_sum as f32 / episodes.max(1) as f32;
    stats
}

/// The canonical lane width for reported evaluation statistics: the width
/// `autocat_scenario::run::row_and_stats` evaluates on, so every front
/// end reports the same numbers for the same trained policy. A fixed constant
/// (not a runtime knob) because the lane split is part of the sampling
/// plan — [`evaluate_batched`] clamps it to the episode budget.
pub const EVAL_LANES: usize = 8;

/// One finished episode observed by [`evaluate_batched`].
#[derive(Clone, Debug, PartialEq)]
pub struct EpisodeRecord {
    /// Lane that played the episode.
    pub lane: usize,
    /// Action indices in order.
    pub actions: Vec<usize>,
    /// Whether the episode ended in a correct guess.
    pub correct: bool,
    /// Whether the episode ended in any guess.
    pub guessed: bool,
    /// Whether a detector terminated the episode.
    pub detected: bool,
    /// Sum of rewards over the episode.
    pub episode_return: f32,
}

/// Everything a batched evaluation produced: the aggregate statistics plus
/// one record per episode (lane-major order: all of lane 0's episodes in
/// play order, then lane 1's, ...). The records are what the sweep report
/// builds its attack-category census from.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalReport {
    /// Aggregate statistics over every episode.
    pub stats: EvalStats,
    /// Per-episode records, lane-major.
    pub episodes: Vec<EpisodeRecord>,
}

/// One evaluation lane: a cloned environment playing its share of the
/// episode budget on its own RNG stream.
struct EvalLane<E> {
    env: E,
    rng: StdRng,
    obs: Vec<f32>,
    remaining: usize,
    episode_return: f32,
    actions: Vec<usize>,
    tally: EpisodeTally,
    records: Vec<EpisodeRecord>,
}

/// Runs `episodes` evaluation episodes across `lanes` environment lanes
/// with one batched policy forward per step over all live lanes.
///
/// The episode budget is split up front — lane `i` plays
/// `episodes / lanes` episodes plus one more when `i < episodes % lanes` —
/// so each lane's workload, RNG stream and statistics are independent of
/// every other lane's timing. Lanes run their episodes concurrently
/// (batched forwards); a lane that exhausts its quota goes quiet and drops
/// out of the batch. `lanes` is clamped to `[1, episodes]`.
///
/// `env` is the prototype: each lane evaluates a clone (the caller's
/// environment is not stepped). With one lane every draw comes from `rng`
/// in the serial [`evaluate`] order (bit-identical stats and RNG stream);
/// with more lanes a single `rng` draw seeds the per-lane streams via
/// [`autocat_gym::lane_seed`], and per-lane results merge in fixed lane
/// order, so the outcome never depends on thread count.
pub fn evaluate_batched<E: Environment + Clone>(
    env: &E,
    net: &mut dyn PolicyValueNet,
    episodes: usize,
    lanes: usize,
    deterministic: bool,
    rng: &mut StdRng,
) -> EvalReport {
    if episodes == 0 {
        return EvalReport {
            stats: EvalStats::default(),
            episodes: Vec::new(),
        };
    }
    let lanes = lanes.clamp(1, episodes);
    let scalar_compat = lanes == 1;
    let base_seed = if scalar_compat { 0 } else { rng.gen::<u64>() };
    let mut lane_states: Vec<EvalLane<E>> = (0..lanes)
        .map(|i| EvalLane {
            env: env.clone(),
            // Lane 0 in scalar-compat mode continues the caller's stream
            // (restored into `rng` below); otherwise streams are derived.
            rng: if scalar_compat {
                StdRng::from_state(rng.state())
            } else {
                StdRng::seed_from_u64(lane_seed(base_seed, i as u64))
            },
            obs: Vec::new(),
            remaining: episodes / lanes + usize::from(i < episodes % lanes),
            episode_return: 0.0,
            actions: Vec::new(),
            tally: EpisodeTally::default(),
            records: Vec::new(),
        })
        .collect();
    for lane in &mut lane_states {
        lane.obs = lane.env.reset(&mut lane.rng);
    }

    let mut dist = Categorical::default();
    loop {
        let live: Vec<usize> = (0..lane_states.len())
            .filter(|&i| lane_states[i].remaining > 0)
            .collect();
        if live.is_empty() {
            break;
        }
        let rows: Vec<&[f32]> = live
            .iter()
            .map(|&i| lane_states[i].obs.as_slice())
            .collect();
        let (logits, _) = net.forward_inference(&Matrix::from_rows(&rows));
        for (row, &i) in live.iter().enumerate() {
            let lane = &mut lane_states[i];
            dist.set_logits(logits.row(row));
            let action = if deterministic {
                dist.argmax()
            } else {
                dist.sample(&mut lane.rng)
            };
            lane.actions.push(action);
            let result = lane.env.step(action, &mut lane.rng);
            lane.episode_return += result.reward;
            // Per-step accumulation, like the serial loop — the same float
            // association keeps one lane bit-identical to `evaluate`.
            lane.tally.return_sum += result.reward;
            lane.tally.length_sum += 1;
            if result.done {
                lane.tally.count += 1;
                if let Some(correct) = result.info.guessed {
                    lane.tally.guessed += 1;
                    lane.tally.correct += usize::from(correct);
                }
                lane.tally.detected += usize::from(result.info.detected);
                lane.records.push(EpisodeRecord {
                    lane: i,
                    actions: std::mem::take(&mut lane.actions),
                    correct: result.info.guessed.unwrap_or(false),
                    guessed: result.info.guessed.is_some(),
                    detected: result.info.detected,
                    episode_return: lane.episode_return,
                });
                lane.episode_return = 0.0;
                lane.remaining -= 1;
                if lane.remaining > 0 {
                    lane.obs = lane.env.reset(&mut lane.rng);
                }
            } else {
                lane.obs = result.obs;
            }
        }
    }

    if scalar_compat {
        // Hand the advanced stream back so the caller's RNG ends exactly
        // where the serial loop would have left it.
        *rng = StdRng::from_state(lane_states[0].rng.state());
    }
    // Fixed lane-order reduction: the float sums associate identically for
    // every thread count.
    let mut tally = EpisodeTally::default();
    let mut records = Vec::with_capacity(episodes);
    for lane in lane_states {
        tally.merge(&lane.tally);
        records.extend(lane.records);
    }
    EvalReport {
        stats: EvalStats::from_tally(&tally, episodes),
        episodes: records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocat_gym::{env::CacheGuessingGame, EnvConfig};
    use autocat_nn::models::{MlpConfig, MlpPolicy};

    fn setup() -> (CacheGuessingGame, MlpPolicy, StdRng) {
        let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let net = MlpPolicy::new(
            &MlpConfig::new(env.obs_dim(), env.num_actions()).with_hidden(vec![16]),
            &mut rng,
        );
        (env, net, rng)
    }

    #[test]
    fn evaluate_reports_consistent_counts() {
        let (mut env, mut net, mut rng) = setup();
        let stats = evaluate(&mut env, &mut net, 20, false, &mut rng);
        assert_eq!(stats.episodes, 20);
        assert!(stats.correct <= stats.guessed);
        assert!(stats.guessed <= stats.episodes);
        assert!(stats.avg_length >= 1.0);
    }

    #[test]
    fn random_policy_accuracy_is_low() {
        let (mut env, mut net, mut rng) = setup();
        let stats = evaluate(&mut env, &mut net, 100, false, &mut rng);
        // An untrained policy on a 2-option secret can't exceed ~60%.
        assert!(stats.accuracy() < 0.7, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn accuracy_and_guess_rate_are_per_episode_on_a_forced_secret_env() {
        // Pin the satellite contract: accuracy() is correct/episodes and
        // guess_rate() is guessed/episodes — both over ALL episodes, never
        // over the guessed subset.
        use autocat_gym::env::Secret;
        let (mut env, mut net, mut rng) = setup();
        env.force_secret(Some(Secret::Addr(0)));
        let stats = evaluate(&mut env, &mut net, 50, false, &mut rng);
        assert_eq!(stats.episodes, 50);
        assert!(
            (stats.accuracy() - stats.correct as f64 / 50.0).abs() < 1e-12,
            "accuracy must divide by episodes"
        );
        assert!(
            (stats.guess_rate() - stats.guessed as f64 / 50.0).abs() < 1e-12,
            "guess_rate must divide by episodes"
        );
        assert!(stats.accuracy() <= stats.guess_rate());
        assert!(stats.guess_rate() <= 1.0);
    }

    #[test]
    fn batched_one_lane_is_bit_identical_to_serial() {
        // The tentpole acceptance criterion: identical stats AND an
        // identical caller RNG stream afterwards.
        let (mut env, mut net, mut rng_serial) = setup();
        let serial = evaluate(&mut env, &mut net, 25, false, &mut rng_serial);

        let (env_b, mut net_b, mut rng_batched) = setup();
        let report = evaluate_batched(&env_b, &mut net_b, 25, 1, false, &mut rng_batched);
        assert_eq!(report.stats, serial, "stats must be equal");
        assert_eq!(
            report.stats.digest(),
            serial.digest(),
            "bit-identical, not just PartialEq (which lets ±0.0 through)"
        );
        assert_eq!(
            rng_serial.state(),
            rng_batched.state(),
            "the caller RNG must end in the same state"
        );
        assert_eq!(report.episodes.len(), 25);

        // The deterministic (argmax) mode must agree too.
        let (mut env, mut net, mut rng_serial) = setup();
        let serial = evaluate(&mut env, &mut net, 10, true, &mut rng_serial);
        let (env_b, mut net_b, mut rng_batched) = setup();
        let report = evaluate_batched(&env_b, &mut net_b, 10, 1, true, &mut rng_batched);
        assert_eq!(report.stats, serial);
        assert_eq!(rng_serial.state(), rng_batched.state());
    }

    #[test]
    fn batched_multi_lane_is_reproducible() {
        let run = |lanes| {
            let (env, mut net, mut rng) = setup();
            evaluate_batched(&env, &mut net, 30, lanes, false, &mut rng)
        };
        assert_eq!(run(4), run(4), "same inputs must reproduce bit-for-bit");
        assert_ne!(
            run(4).stats,
            run(3).stats,
            "the lane split is part of the sampling plan"
        );
    }

    #[test]
    fn batched_splits_the_episode_budget_across_lanes() {
        let (env, mut net, mut rng) = setup();
        let report = evaluate_batched(&env, &mut net, 17, 4, false, &mut rng);
        assert_eq!(report.stats.episodes, 17);
        assert_eq!(report.episodes.len(), 17);
        let per_lane = |lane| report.episodes.iter().filter(|e| e.lane == lane).count();
        assert_eq!(
            [per_lane(0), per_lane(1), per_lane(2), per_lane(3)],
            [5, 4, 4, 4],
            "17 episodes over 4 lanes split 5/4/4/4"
        );
        // Lane-major record order.
        let lanes: Vec<usize> = report.episodes.iter().map(|e| e.lane).collect();
        let mut sorted = lanes.clone();
        sorted.sort_unstable();
        assert_eq!(lanes, sorted);
    }

    #[test]
    fn batched_clamps_lanes_to_the_episode_budget() {
        let (env, mut net, mut rng) = setup();
        let report = evaluate_batched(&env, &mut net, 2, 16, false, &mut rng);
        assert_eq!(report.stats.episodes, 2);
        assert_eq!(report.episodes.len(), 2);
        assert!(report.episodes.iter().all(|e| e.lane < 2));
        // Zero episodes: an empty report, no RNG draws, no panic.
        let before = rng.state();
        let empty = evaluate_batched(&env, &mut net, 0, 4, false, &mut rng);
        assert_eq!(empty.stats, EvalStats::default());
        assert!(empty.episodes.is_empty());
        assert_eq!(rng.state(), before);
    }

    #[test]
    fn batched_records_match_the_aggregate_stats() {
        let (env, mut net, mut rng) = setup();
        let report = evaluate_batched(&env, &mut net, 40, 8, false, &mut rng);
        let stats = report.stats;
        let count = |f: fn(&EpisodeRecord) -> bool| report.episodes.iter().filter(|e| f(e)).count();
        assert_eq!(stats.correct, count(|e| e.correct));
        assert_eq!(stats.guessed, count(|e| e.guessed));
        assert_eq!(stats.detected, count(|e| e.detected));
        let length_sum: usize = report.episodes.iter().map(|e| e.actions.len()).sum();
        assert!((stats.avg_length - length_sum as f32 / 40.0).abs() < 1e-6);
        assert!(report.episodes.iter().all(|e| !e.actions.is_empty()));
    }

    #[test]
    fn stats_digest_tracks_exact_bits() {
        let (env, mut net, mut rng) = setup();
        let report = evaluate_batched(&env, &mut net, 20, 4, false, &mut rng);
        let stats = report.stats;
        assert_eq!(stats.digest(), stats.digest());
        let mut nudged = stats;
        nudged.avg_return += 1e-7;
        assert_ne!(stats.digest(), nudged.digest(), "one ULP must change it");
        let mut counted = stats;
        counted.correct += 1;
        assert_ne!(stats.digest(), counted.digest());
    }
}
