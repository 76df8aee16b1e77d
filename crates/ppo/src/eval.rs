//! Policy evaluation.
//!
//! Two evaluation drivers share one statistics contract:
//!
//! * [`evaluate`] — the historical serial loop: one environment, one-row
//!   policy forwards, every random draw from the caller's RNG.
//! * [`evaluate_batched`] — the lane-batched engine: N environment lanes,
//!   each with its share of the episode budget, split into groups of one
//!   matmul row block (the width rollout collection groups lanes by). Each
//!   group plays its lanes' quotas as one task of a single parallel region
//!   ([`VecEnv::run_groups`]): per step, **one batched `forward_inference`
//!   over the group's live lanes**, a draw and a step per lane. Groups
//!   never wait for each other, so the pool synchronizes once per
//!   evaluation. Where no other thread can take a group
//!   (`rayon::current_num_threads()` is 1: a daemon job's one-thread pool,
//!   a pool task, one core), every lane forms one group.
//!
//! Determinism contract (mirrors `VecEnv`'s):
//!
//! * **One lane**: every draw comes from the caller's RNG in exactly the
//!   serial loop's order (it *is* the serial loop, run inline on a clone of
//!   the environment), so [`evaluate_batched`] at one lane is
//!   bit-identical to [`evaluate`] — same [`EvalStats`], same RNG stream
//!   left behind.
//! * **Multiple lanes**: each lane owns an RNG stream derived from one
//!   caller draw via [`autocat_gym::lane_seed`], a forward computes each
//!   row the same way whatever rows share its call, and lane results merge
//!   in fixed lane order ([`EpisodeTally::merge`]), so results depend only
//!   on `(inputs, lanes)` — never on `RAYON_NUM_THREADS`, the grouping or
//!   the schedule.

use autocat_gym::{Environment, StepInfo, VecEnv};
use autocat_nn::models::PolicyValueNet;
use autocat_nn::{Categorical, Matrix};
use rand::rngs::StdRng;
use rand::Rng;

use crate::rollout::{EpisodeTally, FUSED_GROUP_LANES};

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
    let mut lane = LaneOutcome::new(0, episodes);
    play_serial(env, net, deterministic, rng, &mut lane);
    EvalStats::from_tally(&lane.tally, episodes)
}

/// The argmax action, or one sampled with `rng`.
fn choose(dist: &Categorical, deterministic: bool, rng: &mut StdRng) -> usize {
    if deterministic {
        dist.argmax()
    } else {
        dist.sample(rng)
    }
}

/// The serial loop: plays `lane`'s quota on `env` with one-row forwards,
/// every draw from `rng`.
fn play_serial(
    env: &mut impl Environment,
    net: &dyn PolicyValueNet,
    deterministic: bool,
    rng: &mut StdRng,
    lane: &mut LaneOutcome,
) {
    let mut dist = Categorical::default();
    while lane.remaining > 0 {
        let mut obs = env.reset(rng);
        loop {
            let (logits, _) = net.forward_inference(&Matrix::from_row(&obs));
            dist.set_logits(logits.row(0));
            let action = choose(&dist, deterministic, rng);
            let result = env.step(action, rng);
            if lane.record(action, result.reward, result.done, &result.info) {
                break;
            }
            obs = result.obs;
        }
    }
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

/// One evaluation lane's share of the episode budget and everything it
/// observed.
struct LaneOutcome {
    lane: usize,
    /// Episodes still to play.
    remaining: usize,
    episode_return: f32,
    actions: Vec<usize>,
    tally: EpisodeTally,
    records: Vec<EpisodeRecord>,
}

impl LaneOutcome {
    fn new(lane: usize, quota: usize) -> Self {
        Self {
            lane,
            remaining: quota,
            episode_return: 0.0,
            actions: Vec::new(),
            tally: EpisodeTally::default(),
            records: Vec::new(),
        }
    }

    /// Folds one step in; returns whether it ended an episode.
    fn record(&mut self, action: usize, reward: f32, done: bool, info: &StepInfo) -> bool {
        self.actions.push(action);
        self.episode_return += reward;
        // Per-step accumulation, like the serial loop — the same float
        // association keeps one lane bit-identical to `evaluate`.
        self.tally.return_sum += reward;
        self.tally.length_sum += 1;
        if done {
            self.tally.count += 1;
            if let Some(correct) = info.guessed {
                self.tally.guessed += 1;
                self.tally.correct += usize::from(correct);
            }
            self.tally.detected += usize::from(info.detected);
            self.records.push(EpisodeRecord {
                lane: self.lane,
                actions: std::mem::take(&mut self.actions),
                correct: info.guessed.unwrap_or(false),
                guessed: info.guessed.is_some(),
                detected: info.detected,
                episode_return: self.episode_return,
            });
            self.episode_return = 0.0;
            self.remaining -= 1;
        }
        done
    }
}

/// Runs `episodes` evaluation episodes across `lanes` environment lanes
/// with one batched policy forward per step over each lane group's live
/// lanes.
///
/// The episode budget is split up front — lane `i` plays
/// `episodes / lanes` episodes plus one more when `i < episodes % lanes` —
/// so each lane's workload, RNG stream and statistics are independent of
/// every other lane's timing. Lanes run their episodes concurrently
/// (batched forwards); a lane that exhausts its quota goes quiet and drops
/// out of its group's batch. `lanes` is clamped to `[1, episodes]`.
///
/// `env` is the prototype: each lane evaluates a clone (the caller's
/// environment is not stepped). With one lane, the serial [`evaluate`]
/// loop runs inline and every draw comes from `rng` (bit-identical stats
/// and RNG stream). With more lanes a single `rng` draw seeds the per-lane
/// streams via [`autocat_gym::lane_seed`], the lane groups run as the
/// tasks of one `rayon::scope` ([`VecEnv::run_groups`]), and per-lane
/// results merge in fixed lane order, so the outcome never depends on
/// the thread count or the grouping.
pub fn evaluate_batched<E: Environment + Clone + Send>(
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
    let mut outcomes: Vec<LaneOutcome> = (0..lanes)
        .map(|i| LaneOutcome::new(i, episodes / lanes + usize::from(i < episodes % lanes)))
        .collect();
    let net: &dyn PolicyValueNet = net;
    if lanes == 1 {
        play_serial(&mut env.clone(), net, deterministic, rng, &mut outcomes[0]);
    } else {
        let mut venv =
            VecEnv::new(lanes, env.clone(), rng.gen::<u64>()).expect("lanes is at least 2 here");
        // Each lane resets from its own stream; `rng` is not drawn again.
        venv.reset_all(rng);
        // Where the groups would all run inline on this thread (a daemon
        // job, a pool task, one core), one group of every lane saves the
        // extra forward calls; the split only pays across threads.
        let group_len = if rayon::current_num_threads() == 1 {
            lanes
        } else {
            FUSED_GROUP_LANES
        };
        let tasks: Vec<&mut [LaneOutcome]> = outcomes.chunks_mut(group_len).collect();
        venv.run_groups(group_len, tasks, rng, |mut group, outcomes| {
            let mut dist = Categorical::default();
            let mut live = Vec::with_capacity(outcomes.len());
            loop {
                live.clear();
                live.extend((0..outcomes.len()).filter(|&l| outcomes[l].remaining > 0));
                if live.is_empty() {
                    break;
                }
                let batch = {
                    let rows: Vec<&[f32]> = live.iter().map(|&l| group.obs(l)).collect();
                    Matrix::from_rows(&rows)
                };
                let (logits, _) = net.forward_inference(&batch);
                for (row, &l) in live.iter().enumerate() {
                    // A lane that ends its last episode auto-resets like
                    // any VecEnv lane; nothing reads that reset.
                    let step = group.step(l, |lane_rng| {
                        dist.set_logits(logits.row(row));
                        (choose(&dist, deterministic, lane_rng), ())
                    });
                    outcomes[l].record(step.action, step.reward, step.done, &step.info);
                }
            }
        });
    }

    // Fixed lane-order reduction: the float sums associate identically for
    // every thread count.
    let mut tally = EpisodeTally::default();
    let mut records = Vec::with_capacity(episodes);
    for lane in outcomes {
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
    use rand::SeedableRng;

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

    /// The batched evaluator as it was before lane groups: every live lane
    /// in one forward per step, all lanes stepped in lane order on the
    /// calling thread. The reference the grouped engine is held to.
    fn reference_batched(
        env: &CacheGuessingGame,
        net: &dyn PolicyValueNet,
        episodes: usize,
        lanes: usize,
        deterministic: bool,
        rng: &mut StdRng,
    ) -> EvalReport {
        use autocat_gym::lane_seed;

        struct Lane {
            env: CacheGuessingGame,
            rng: StdRng,
            obs: Vec<f32>,
            remaining: usize,
            episode_return: f32,
            actions: Vec<usize>,
            tally: EpisodeTally,
            records: Vec<EpisodeRecord>,
        }
        if episodes == 0 {
            return EvalReport {
                stats: EvalStats::default(),
                episodes: Vec::new(),
            };
        }
        let lanes = lanes.clamp(1, episodes);
        let scalar_compat = lanes == 1;
        let base_seed = if scalar_compat { 0 } else { rng.gen::<u64>() };
        let mut states: Vec<Lane> = (0..lanes)
            .map(|i| Lane {
                env: env.clone(),
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
        for lane in &mut states {
            lane.obs = lane.env.reset(&mut lane.rng);
        }
        let mut dist = Categorical::default();
        loop {
            let live: Vec<usize> = (0..lanes).filter(|&i| states[i].remaining > 0).collect();
            if live.is_empty() {
                break;
            }
            let rows: Vec<&[f32]> = live.iter().map(|&i| states[i].obs.as_slice()).collect();
            let (logits, _) = net.forward_inference(&Matrix::from_rows(&rows));
            for (row, &i) in live.iter().enumerate() {
                let lane = &mut states[i];
                dist.set_logits(logits.row(row));
                let action = if deterministic {
                    dist.argmax()
                } else {
                    dist.sample(&mut lane.rng)
                };
                lane.actions.push(action);
                let result = lane.env.step(action, &mut lane.rng);
                lane.episode_return += result.reward;
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
            *rng = StdRng::from_state(states[0].rng.state());
        }
        let mut tally = EpisodeTally::default();
        let mut records = Vec::with_capacity(episodes);
        for lane in states {
            tally.merge(&lane.tally);
            records.extend(lane.records);
        }
        EvalReport {
            stats: EvalStats::from_tally(&tally, episodes),
            episodes: records,
        }
    }

    #[test]
    fn grouped_eval_equals_the_serial_batched_loop_bit_for_bit() {
        // Lane counts below, at and across the group width, ragged last
        // groups included; budgets that leave lanes idle (1), split
        // unevenly (7) and evenly (40).
        let one_thread = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        for lanes in [1usize, 2, 3, 4, 5, 8, 13] {
            for episodes in [1usize, 7, 40] {
                for deterministic in [false, true] {
                    let what = format!("lanes={lanes} episodes={episodes} det={deterministic}");
                    let (env, net, mut rng) = setup();
                    let want =
                        reference_batched(&env, &net, episodes, lanes, deterministic, &mut rng);
                    let bits = |r: &EvalReport| -> Vec<u32> {
                        r.episodes
                            .iter()
                            .map(|e| e.episode_return.to_bits())
                            .collect()
                    };
                    // On the pool (row-block groups, when it has more than
                    // one thread) and in a one-thread pool (one group).
                    for pool in [None, Some(&one_thread)] {
                        let what = format!("{what} one-thread-pool={}", pool.is_some());
                        let run = || {
                            let (env, mut net, mut rng) = setup();
                            let report = evaluate_batched(
                                &env,
                                &mut net,
                                episodes,
                                lanes,
                                deterministic,
                                &mut rng,
                            );
                            (report, rng.state())
                        };
                        let (got, rng_after) = match pool {
                            Some(pool) => pool.install(run),
                            None => run(),
                        };
                        assert_eq!(
                            got.stats.digest(),
                            want.stats.digest(),
                            "{what}: stats bits"
                        );
                        assert_eq!(got, want, "{what}: records and lane indices");
                        assert_eq!(bits(&got), bits(&want), "{what}: episode return bits");
                        assert_eq!(rng_after, rng.state(), "{what}: caller RNG");
                    }
                }
            }
        }
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
