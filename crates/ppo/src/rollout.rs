//! Trajectory collection and generalized advantage estimation.
//!
//! Collection is vectorized *and fused*: a [`VecEnv`] steps N environment
//! lanes against batched policy forwards, and the lanes are split into
//! groups of `FUSED_GROUP_LANES` (one matmul row block). Each group runs
//! the **whole horizon** as one task of a single parallel region
//! ([`VecEnv::run_groups`]): per step, its own batched
//! `forward_inference`, a sample per lane and a step per lane. Groups
//! never wait for each other, so the pool synchronizes once per rollout.
//! Every random draw comes from the per-lane RNG streams and a forward
//! computes each row the same way whatever rows share the call, so the
//! result is bit-identical to the strictly serialized
//! one-whole-batch-forward-per-step schedule at every lane, group and
//! thread count.
//!
//! Transitions are stored time-major (`index = t * num_lanes + lane`).
//! Each group writes its pre-step observations and step results straight
//! into its `(t, group)` slices of the batch's buffers, and the episode
//! tally is summed afterwards in time-major order, the order the
//! step-by-step schedule used. GAE runs per lane so advantages never leak
//! across lane boundaries. With one lane the collected trajectory is
//! bit-for-bit identical to the historical scalar loop (see [`VecEnv`]'s
//! determinism contract).

use autocat_gym::{Environment, FinishedEpisode, StepInfo, VecEnv};
use autocat_nn::models::PolicyValueNet;
use autocat_nn::{Categorical, Matrix};
use rand::rngs::StdRng;

/// Lanes per fused rollout group ([`VecEnv::run_groups`]).
///
/// One [`Matrix::MM_ROW_BLOCK`] of rows: each group forward fills the
/// dense matmul kernel's packed multi-row block, and this is the finest
/// (most overlap-friendly) split that does. Every kernel computes an
/// output row the same way whatever rows share its call, so the fused
/// collect is bit-identical to one whole-batch `net.forward` per step.
const FUSED_GROUP_LANES: usize = Matrix::MM_ROW_BLOCK;

/// A batch of transitions collected from the environment, with advantages
/// and value targets already computed.
#[derive(Clone, Debug)]
pub struct RolloutBatch {
    /// Observations, one row per transition (time-major across lanes).
    pub obs: Matrix,
    /// Action indices.
    pub actions: Vec<usize>,
    /// Behaviour-policy log-probabilities at collection time.
    pub logps: Vec<f32>,
    /// Per-transition rewards (diagnostics; the optimizer consumes the
    /// GAE outputs below).
    pub rewards: Vec<f32>,
    /// Per-transition episode-end flags.
    pub dones: Vec<bool>,
    /// GAE advantages (normalized by the trainer).
    pub advantages: Vec<f32>,
    /// Discounted value targets (`advantage + value`).
    pub returns: Vec<f32>,
    /// Episode statistics observed while collecting.
    pub episodes: EpisodeTally,
}

/// Aggregate statistics over the episodes finished during collection.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpisodeTally {
    /// Episodes completed.
    pub count: usize,
    /// Sum of episode returns.
    pub return_sum: f32,
    /// Sum of episode lengths.
    pub length_sum: usize,
    /// Episodes that ended with a correct guess.
    pub correct: usize,
    /// Episodes that ended with any guess.
    pub guessed: usize,
    /// Episodes terminated by a detector.
    pub detected: usize,
}

impl EpisodeTally {
    /// Mean episode return (0 when no episode finished).
    pub fn avg_return(&self) -> f32 {
        if self.count == 0 {
            0.0
        } else {
            self.return_sum / self.count as f32
        }
    }

    /// Mean episode length.
    pub fn avg_length(&self) -> f32 {
        if self.count == 0 {
            0.0
        } else {
            self.length_sum as f32 / self.count as f32
        }
    }

    /// Fraction of finished episodes ending in a correct guess.
    pub fn accuracy(&self) -> f32 {
        if self.count == 0 {
            0.0
        } else {
            self.correct as f32 / self.count as f32
        }
    }

    /// Folds `other` into `self` (counts and sums add). Batched evaluation
    /// merges per-lane tallies in fixed lane order so the float sums are
    /// reduced deterministically.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.return_sum += other.return_sum;
        self.length_sum += other.length_sum;
        self.correct += other.correct;
        self.guessed += other.guessed;
        self.detected += other.detected;
    }
}

/// Computes GAE-λ advantages and returns.
///
/// `values` has one entry per transition plus one bootstrap value for the
/// state after the last transition (0 if that state was terminal).
///
/// # Panics
///
/// Panics if `values.len() != rewards.len() + 1` or the `dones` length
/// mismatches.
pub fn gae(
    rewards: &[f32],
    values: &[f32],
    dones: &[bool],
    gamma: f32,
    lambda: f32,
) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(
        values.len(),
        rewards.len() + 1,
        "values needs a bootstrap entry"
    );
    assert_eq!(dones.len(), rewards.len(), "dones length mismatch");
    let n = rewards.len();
    let mut advantages = vec![0.0f32; n];
    let mut last_adv = 0.0f32;
    for t in (0..n).rev() {
        let next_value = if dones[t] { 0.0 } else { values[t + 1] };
        let delta = rewards[t] + gamma * next_value - values[t];
        last_adv = delta
            + if dones[t] {
                0.0
            } else {
                gamma * lambda * last_adv
            };
        advantages[t] = last_adv;
    }
    let returns: Vec<f32> = advantages
        .iter()
        .zip(values[..n].iter())
        .map(|(a, v)| a + v)
        .collect();
    (advantages, returns)
}

/// One lane group's slice of one time step in the batch's time-major
/// buffers: one entry (one row of `obs`) per lane of the group.
struct StepRows<'a> {
    obs: &'a mut [f32],
    actions: &'a mut [usize],
    logps: &'a mut [f32],
    rewards: &'a mut [f32],
    dones: &'a mut [bool],
    values: &'a mut [f32],
    /// The episode a transition finished, with the step's info.
    ends: &'a mut [Option<(FinishedEpisode, StepInfo)>],
}

/// Splits a time-major buffer holding `width` values per transition into
/// its `(t, group)` slices, in time-major then group order.
fn step_slices<T>(
    buf: &mut [T],
    width: usize,
    lanes: usize,
    group_len: usize,
) -> impl Iterator<Item = &mut [T]> {
    buf.chunks_mut(lanes * width)
        .flat_map(move |step| step.chunks_mut(group_len * width))
}

/// Collects at least `horizon` transitions across all lanes of `venv`
/// under the current policy.
///
/// Each `FUSED_GROUP_LANES`-lane group runs every step as one task
/// ([`VecEnv::run_groups`]): a batched forward over the group's
/// observations, a sample and a step per lane, straight into the batch —
/// bit-identical to one whole-batch forward followed by a serial sweep
/// over the lanes at every step. Episodes auto-reset; each lane's final
/// partial episode is bootstrapped with the value estimate of its last
/// observation. The number of transitions returned is `horizon` rounded
/// up to a multiple of the lane count.
pub fn collect<E: Environment + Send>(
    venv: &mut VecEnv<E>,
    net: &mut dyn PolicyValueNet,
    horizon: usize,
    gamma: f32,
    lambda: f32,
    rng: &mut StdRng,
) -> RolloutBatch {
    let lanes = venv.num_lanes();
    let obs_dim = venv.obs_dim();
    let t_steps = horizon.div_ceil(lanes);
    let total = t_steps * lanes;

    let mut obs_rows = vec![0.0f32; total * obs_dim];
    let mut actions = vec![0usize; total];
    let mut logps = vec![0.0f32; total];
    let mut rewards = vec![0.0f32; total];
    let mut dones = vec![false; total];
    let mut values = vec![0.0f32; total];
    let mut ends = vec![None; total];

    // Hand group g its (t, g) slices of every buffer, t ascending.
    let groups = lanes.div_ceil(FUSED_GROUP_LANES);
    let mut tasks: Vec<Vec<StepRows>> = (0..groups).map(|_| Vec::with_capacity(t_steps)).collect();
    let g = FUSED_GROUP_LANES;
    let slices = step_slices(&mut obs_rows, obs_dim, lanes, g)
        .zip(step_slices(&mut actions, 1, lanes, g))
        .zip(step_slices(&mut logps, 1, lanes, g))
        .zip(step_slices(&mut rewards, 1, lanes, g))
        .zip(step_slices(&mut dones, 1, lanes, g))
        .zip(step_slices(&mut values, 1, lanes, g))
        .zip(step_slices(&mut ends, 1, lanes, g));
    for (i, ((((((obs, actions), logps), rewards), dones), values), ends)) in slices.enumerate() {
        tasks[i % groups].push(StepRows {
            obs,
            actions,
            logps,
            rewards,
            dones,
            values,
            ends,
        });
    }

    venv.reset_all(rng);
    let net_ref: &dyn PolicyValueNet = net;
    venv.run_groups(FUSED_GROUP_LANES, tasks, rng, |mut group, steps| {
        let mut group_obs = Matrix::zeros(group.len(), obs_dim);
        for rows in steps {
            group.write_obs(group_obs.as_mut_slice());
            rows.obs.copy_from_slice(group_obs.as_slice());
            let (logits, vals) = net_ref.forward_inference(&group_obs);
            for (local, &value) in vals.iter().enumerate() {
                let step = group.step(local, |lane_rng| {
                    let dist = Categorical::from_logits(logits.row(local));
                    let action = dist.sample(lane_rng);
                    (action, dist.log_prob(action))
                });
                rows.actions[local] = step.action;
                rows.logps[local] = step.payload;
                rows.rewards[local] = step.reward;
                rows.dones[local] = step.done;
                rows.values[local] = value;
                rows.ends[local] = step.finished.map(|f| (f, step.info));
            }
        }
    });

    // The tally in time-major order, so `return_sum` adds the episode
    // returns in the order the step-by-step schedule did.
    let mut tally = EpisodeTally::default();
    for (finished, info) in ends.iter().flatten() {
        tally.count += 1;
        tally.return_sum += finished.episode_return;
        tally.length_sum += finished.length;
        if let Some(correct) = info.guessed {
            tally.guessed += 1;
            tally.correct += usize::from(correct);
        }
        tally.detected += usize::from(info.detected);
    }

    // Bootstrap values for the state after each lane's last transition.
    let boot_mat = Matrix::from_vec(lanes, obs_dim, venv.obs_flat());
    let (_, boot_vals) = net.forward_inference(&boot_mat);

    // Per-lane GAE over the time-major storage.
    let mut advantages = vec![0.0f32; total];
    let mut returns = vec![0.0f32; total];
    for lane in 0..lanes {
        let lane_rewards: Vec<f32> = (0..t_steps).map(|t| rewards[t * lanes + lane]).collect();
        let lane_dones: Vec<bool> = (0..t_steps).map(|t| dones[t * lanes + lane]).collect();
        let mut lane_values: Vec<f32> = (0..t_steps).map(|t| values[t * lanes + lane]).collect();
        let bootstrap = if *lane_dones.last().unwrap_or(&true) {
            0.0
        } else {
            boot_vals[lane]
        };
        lane_values.push(bootstrap);
        let (lane_adv, lane_ret) = gae(&lane_rewards, &lane_values, &lane_dones, gamma, lambda);
        for t in 0..t_steps {
            advantages[t * lanes + lane] = lane_adv[t];
            returns[t * lanes + lane] = lane_ret[t];
        }
    }

    RolloutBatch {
        obs: Matrix::from_vec(total, obs_dim, obs_rows),
        actions,
        logps,
        rewards,
        dones,
        advantages,
        returns,
        episodes: tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gae_single_step_terminal() {
        // One terminal step: advantage = r - v.
        let (adv, ret) = gae(&[1.0], &[0.3, 0.0], &[true], 0.99, 0.95);
        assert!((adv[0] - 0.7).abs() < 1e-6);
        assert!((ret[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gae_bootstraps_nonterminal_tail() {
        // Non-terminal last step uses the bootstrap value.
        let (adv, _) = gae(&[0.0], &[0.0, 1.0], &[false], 0.5, 1.0);
        // delta = 0 + 0.5*1 - 0 = 0.5
        assert!((adv[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gae_decays_across_steps() {
        let rewards = [0.0, 0.0, 1.0];
        let values = [0.0, 0.0, 0.0, 0.0];
        let dones = [false, false, true];
        let (adv, _) = gae(&rewards, &values, &dones, 1.0, 1.0);
        // With gamma = lambda = 1 and zero values, every advantage equals
        // the total future reward.
        assert!((adv[0] - 1.0).abs() < 1e-6);
        assert!((adv[1] - 1.0).abs() < 1e-6);
        assert!((adv[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gae_respects_episode_boundaries() {
        // Two one-step episodes: the second's reward must not leak into the
        // first's advantage.
        let rewards = [1.0, -1.0];
        let values = [0.0, 0.0, 0.0];
        let dones = [true, true];
        let (adv, _) = gae(&rewards, &values, &dones, 0.99, 0.95);
        assert!((adv[0] - 1.0).abs() < 1e-6);
        assert!((adv[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn gae_known_answer_two_step_chain() {
        // Hand-computed: gamma = 0.5, lambda = 0.5, non-terminal chain.
        //   delta_1 = r1 + g*v2 - v1 = 2.0 + 0.5*0.5 - 1.0   = 1.25
        //   delta_0 = r0 + g*v1 - v0 = 1.0 + 0.5*1.0 - 2.0   = -0.5
        //   A_1 = delta_1                                     = 1.25
        //   A_0 = delta_0 + g*l*A_1 = -0.5 + 0.25*1.25        = -0.1875
        //   R_t = A_t + v_t -> R_0 = 1.8125, R_1 = 2.25
        let rewards = [1.0, 2.0];
        let values = [2.0, 1.0, 0.5];
        let dones = [false, false];
        let (adv, ret) = gae(&rewards, &values, &dones, 0.5, 0.5);
        assert!((adv[0] + 0.1875).abs() < 1e-6, "A_0 = {}", adv[0]);
        assert!((adv[1] - 1.25).abs() < 1e-6, "A_1 = {}", adv[1]);
        assert!((ret[0] - 1.8125).abs() < 1e-6, "R_0 = {}", ret[0]);
        assert!((ret[1] - 2.25).abs() < 1e-6, "R_1 = {}", ret[1]);
    }

    #[test]
    fn gae_known_answer_mid_trajectory_terminal() {
        // Hand-computed: gamma = 0.9, lambda = 1.0, episode ends at t = 1.
        //   delta_2 = 1.0 + 0.9*2.0 - 0.5 = 2.3   (bootstrapped tail)
        //   A_2 = 2.3
        //   delta_1 = 5.0 + 0 - 1.0 = 4.0          (terminal: no next value)
        //   A_1 = 4.0                              (no leak from t = 2)
        //   delta_0 = 0.0 + 0.9*1.0 - 2.0 = -1.1
        //   A_0 = -1.1 + 0.9*4.0 = 2.5
        let rewards = [0.0, 5.0, 1.0];
        let values = [2.0, 1.0, 0.5, 2.0];
        let dones = [false, true, false];
        let (adv, ret) = gae(&rewards, &values, &dones, 0.9, 1.0);
        assert!((adv[0] - 2.5).abs() < 1e-5, "A_0 = {}", adv[0]);
        assert!((adv[1] - 4.0).abs() < 1e-5, "A_1 = {}", adv[1]);
        assert!((adv[2] - 2.3).abs() < 1e-5, "A_2 = {}", adv[2]);
        assert!((ret[0] - 4.5).abs() < 1e-5);
        assert!((ret[1] - 5.0).abs() < 1e-5);
        assert!((ret[2] - 2.8).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "bootstrap entry")]
    fn gae_requires_bootstrap() {
        let _ = gae(&[1.0], &[0.0], &[true], 0.99, 0.95);
    }

    mod with_env {
        use super::*;
        use autocat_gym::{env::CacheGuessingGame, EnvConfig, StepResult};
        use autocat_nn::models::{MlpConfig, MlpPolicy};
        use rand::SeedableRng;

        fn venv(lanes: usize, seed: u64) -> VecEnv<CacheGuessingGame> {
            let env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
            VecEnv::new(lanes, env, seed).unwrap()
        }

        fn net(venv: &VecEnv<CacheGuessingGame>, rng: &mut StdRng) -> MlpPolicy {
            MlpPolicy::new(
                &MlpConfig::new(venv.obs_dim(), venv.num_actions()).with_hidden(vec![16]),
                rng,
            )
        }

        #[test]
        fn collect_produces_full_horizon() {
            let mut venv = venv(1, 0);
            let mut rng = StdRng::seed_from_u64(1);
            let mut net = net(&venv, &mut rng);
            let batch = collect(&mut venv, &mut net, 200, 0.99, 0.95, &mut rng);
            assert_eq!(batch.actions.len(), 200);
            assert_eq!(batch.obs.rows(), 200);
            assert_eq!(batch.logps.len(), 200);
            assert_eq!(batch.advantages.len(), 200);
            assert!(batch.episodes.count > 0, "200 steps must finish episodes");
            // Log-probs must be valid (finite, non-positive).
            assert!(batch.logps.iter().all(|l| l.is_finite() && *l <= 0.0));
        }

        #[test]
        fn collect_tally_tracks_guesses() {
            let mut venv = venv(1, 0);
            let mut rng = StdRng::seed_from_u64(2);
            let mut net = net(&venv, &mut rng);
            let batch = collect(&mut venv, &mut net, 500, 0.99, 0.95, &mut rng);
            // A random policy guesses sometimes; guessed <= episodes.
            assert!(batch.episodes.guessed <= batch.episodes.count);
            assert!(batch.episodes.correct <= batch.episodes.guessed);
        }

        #[test]
        fn multi_lane_collect_rounds_horizon_up() {
            let mut venv = venv(8, 3);
            let mut rng = StdRng::seed_from_u64(3);
            let mut net = net(&venv, &mut rng);
            let batch = collect(&mut venv, &mut net, 100, 0.99, 0.95, &mut rng);
            // 100 rounded up to a multiple of 8.
            assert_eq!(batch.actions.len(), 104);
            assert_eq!(batch.obs.rows(), 104);
            assert_eq!(batch.advantages.len(), 104);
            assert!(batch.episodes.count > 0);
        }

        /// The scalar reference loop this module used before vectorization:
        /// one env, one-row forwards, sampling and stepping interleaved on
        /// one RNG stream. Kept verbatim as the determinism oracle.
        fn scalar_reference_collect(
            env: &mut CacheGuessingGame,
            net: &mut dyn PolicyValueNet,
            horizon: usize,
            gamma: f32,
            lambda: f32,
            rng: &mut StdRng,
        ) -> (Vec<usize>, Vec<f32>, Vec<f32>, Vec<f32>) {
            use autocat_gym::Environment;
            let mut actions = Vec::new();
            let mut logps = Vec::new();
            let mut rewards = Vec::new();
            let mut dones = Vec::new();
            let mut values = Vec::new();
            let mut obs = env.reset(rng);
            for _ in 0..horizon {
                let obs_mat = Matrix::from_row(&obs);
                let (logits, vals) = net.forward_inference(&obs_mat);
                let dist = Categorical::from_logits(logits.row(0));
                let action = dist.sample(rng);
                let logp = dist.log_prob(action);
                let StepResult {
                    obs: next_obs,
                    reward,
                    done,
                    ..
                } = env.step(action, rng);
                actions.push(action);
                logps.push(logp);
                rewards.push(reward);
                dones.push(done);
                values.push(vals[0]);
                obs = if done { env.reset(rng) } else { next_obs };
            }
            let bootstrap = if *dones.last().unwrap() {
                0.0
            } else {
                let (_, vals) = net.forward_inference(&Matrix::from_row(&obs));
                vals[0]
            };
            values.push(bootstrap);
            let (advantages, _) = gae(&rewards, &values, &dones, gamma, lambda);
            (actions, logps, rewards, advantages)
        }

        #[test]
        fn single_lane_collect_is_bit_for_bit_scalar_compatible() {
            // The pre-VecEnv scalar loop and a 1-lane vectorized collect,
            // from identical seeds, must produce identical trajectories —
            // actions, log-probs, rewards AND advantages.
            let mut setup_rng = StdRng::seed_from_u64(40);
            let mut venv = venv(1, 123);
            let mut vec_net = net(&venv, &mut setup_rng);
            let mut rng_a = StdRng::seed_from_u64(7);
            let batch = collect(&mut venv, &mut vec_net, 256, 0.99, 0.95, &mut rng_a);

            let mut setup_rng = StdRng::seed_from_u64(40);
            let mut env = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
            let mut ref_net = MlpPolicy::new(
                &MlpConfig::new(env.obs_dim(), env.num_actions()).with_hidden(vec![16]),
                &mut setup_rng,
            );
            let mut rng_b = StdRng::seed_from_u64(7);
            let (actions, logps, rewards, advantages) =
                scalar_reference_collect(&mut env, &mut ref_net, 256, 0.99, 0.95, &mut rng_b);

            assert_eq!(batch.actions, actions);
            assert_eq!(batch.logps, logps);
            assert_eq!(batch.rewards, rewards, "rewards must match the scalar loop");
            assert!(
                batch
                    .advantages
                    .iter()
                    .zip(advantages.iter())
                    .all(|(a, b)| (a - b).abs() < 1e-7),
                "advantages must match the scalar loop"
            );
            assert_eq!(batch.actions.len(), 256);
        }

        /// The unfused multi-lane schedule `collect` used before the fused
        /// rollout: one whole-batch forward per step, then `step_each`.
        /// Kept verbatim as the fusion-determinism oracle.
        struct UnfusedBatch {
            actions: Vec<usize>,
            logps: Vec<f32>,
            rewards: Vec<f32>,
            advantages: Vec<f32>,
            returns: Vec<f32>,
            tally: EpisodeTally,
        }

        fn unfused_reference_collect(
            venv: &mut VecEnv<CacheGuessingGame>,
            net: &mut dyn PolicyValueNet,
            horizon: usize,
            gamma: f32,
            lambda: f32,
            rng: &mut StdRng,
        ) -> UnfusedBatch {
            let lanes = venv.num_lanes();
            let obs_dim = venv.obs_dim();
            let t_steps = horizon.div_ceil(lanes);
            let total = t_steps * lanes;
            let mut actions = Vec::new();
            let mut logps = Vec::new();
            let mut rewards = Vec::new();
            let mut dones = Vec::new();
            let mut values = Vec::new();
            let mut tally = EpisodeTally::default();
            venv.reset_all(rng);
            for _ in 0..t_steps {
                let obs_mat = Matrix::from_vec(lanes, obs_dim, venv.obs_flat());
                let (logits, vals) = net.forward_inference(&obs_mat);
                let results = venv.step_each(
                    |lane, lane_rng| {
                        let dist = Categorical::from_logits(logits.row(lane));
                        let action = dist.sample(lane_rng);
                        (action, dist.log_prob(action))
                    },
                    rng,
                );
                for (lane, step) in results.into_iter().enumerate() {
                    actions.push(step.action);
                    logps.push(step.payload);
                    rewards.push(step.reward);
                    dones.push(step.done);
                    values.push(vals[lane]);
                    if let Some(finished) = step.finished {
                        tally.count += 1;
                        tally.return_sum += finished.episode_return;
                        tally.length_sum += finished.length;
                        if let Some(correct) = step.info.guessed {
                            tally.guessed += 1;
                            tally.correct += usize::from(correct);
                        }
                        tally.detected += usize::from(step.info.detected);
                    }
                }
            }
            let boot_mat = Matrix::from_vec(lanes, obs_dim, venv.obs_flat());
            let (_, boot_vals) = net.forward_inference(&boot_mat);
            let mut advantages = vec![0.0f32; total];
            let mut returns = vec![0.0f32; total];
            for lane in 0..lanes {
                let lane_rewards: Vec<f32> =
                    (0..t_steps).map(|t| rewards[t * lanes + lane]).collect();
                let lane_dones: Vec<bool> = (0..t_steps).map(|t| dones[t * lanes + lane]).collect();
                let mut lane_values: Vec<f32> =
                    (0..t_steps).map(|t| values[t * lanes + lane]).collect();
                let bootstrap = if *lane_dones.last().unwrap_or(&true) {
                    0.0
                } else {
                    boot_vals[lane]
                };
                lane_values.push(bootstrap);
                let (lane_adv, lane_ret) =
                    gae(&lane_rewards, &lane_values, &lane_dones, gamma, lambda);
                for t in 0..t_steps {
                    advantages[t * lanes + lane] = lane_adv[t];
                    returns[t * lanes + lane] = lane_ret[t];
                }
            }
            UnfusedBatch {
                actions,
                logps,
                rewards,
                advantages,
                returns,
                tally,
            }
        }

        #[test]
        fn fused_collect_is_bit_identical_to_unfused_reference() {
            // Lane counts chosen to exercise full groups, ragged last
            // groups (3, 5, 6, 9 over groups of 4) and fewer lanes than one
            // group.
            for lanes in [2usize, 3, 4, 5, 6, 8, 9] {
                let mut setup_rng = StdRng::seed_from_u64(40);
                let mut venv_a = venv(lanes, 123);
                let mut net_a = net(&venv_a, &mut setup_rng);
                let mut rng_a = StdRng::seed_from_u64(7);
                let batch = collect(&mut venv_a, &mut net_a, 256, 0.99, 0.95, &mut rng_a);

                let mut setup_rng = StdRng::seed_from_u64(40);
                let mut venv_b = venv(lanes, 123);
                let mut net_b = net(&venv_b, &mut setup_rng);
                let mut rng_b = StdRng::seed_from_u64(7);
                let reference =
                    unfused_reference_collect(&mut venv_b, &mut net_b, 256, 0.99, 0.95, &mut rng_b);

                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(batch.actions, reference.actions, "lanes={lanes}");
                assert_eq!(
                    bits(&batch.logps),
                    bits(&reference.logps),
                    "lanes={lanes}: fused log-probs must be bitwise identical"
                );
                assert_eq!(batch.rewards, reference.rewards, "lanes={lanes}");
                assert_eq!(
                    bits(&batch.advantages),
                    bits(&reference.advantages),
                    "lanes={lanes}: fused advantages must be bitwise identical"
                );
                assert_eq!(
                    bits(&batch.returns),
                    bits(&reference.returns),
                    "lanes={lanes}: fused returns must be bitwise identical"
                );
                assert_eq!(batch.episodes, reference.tally, "lanes={lanes}");
                // Both RNG streams must land in the same place.
                use rand::Rng;
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
            }
        }

        #[test]
        fn multi_lane_gae_does_not_leak_across_lanes() {
            // Recompute GAE per lane from the batch's own rewards/dones and
            // the value predictions implied by `returns - advantages`, and
            // demand an exact per-lane match. A cross-lane leak (e.g. one
            // gae() pass over the whole time-major array) breaks this.
            let (gamma, lambda) = (0.9f32, 0.8f32);
            let lanes = 4usize;
            let mut venv = venv(lanes, 9);
            let mut rng = StdRng::seed_from_u64(5);
            let mut net = net(&venv, &mut rng);
            let batch = collect(&mut venv, &mut net, 64, gamma, lambda, &mut rng);
            assert_eq!(batch.actions.len(), 64);
            let t_steps = batch.actions.len() / lanes;
            for lane in 0..lanes {
                let idx = |t: usize| t * lanes + lane;
                let rewards: Vec<f32> = (0..t_steps).map(|t| batch.rewards[idx(t)]).collect();
                let dones: Vec<bool> = (0..t_steps).map(|t| batch.dones[idx(t)]).collect();
                let mut values: Vec<f32> = (0..t_steps)
                    .map(|t| batch.returns[idx(t)] - batch.advantages[idx(t)])
                    .collect();
                // Recover the bootstrap: 0 on a terminal tail, else invert
                // the last GAE step (adv_T = r_T + gamma*boot - v_T).
                let last = t_steps - 1;
                let bootstrap = if dones[last] {
                    0.0
                } else {
                    (batch.advantages[idx(last)] - rewards[last] + values[last]) / gamma
                };
                values.push(bootstrap);
                let (adv, ret) = gae(&rewards, &values, &dones, gamma, lambda);
                for t in 0..t_steps {
                    assert!(
                        (adv[t] - batch.advantages[idx(t)]).abs() < 1e-5,
                        "lane {lane} t {t}: adv {} vs batch {}",
                        adv[t],
                        batch.advantages[idx(t)]
                    );
                    assert!((ret[t] - batch.returns[idx(t)]).abs() < 1e-5);
                }
            }
        }
    }
}
