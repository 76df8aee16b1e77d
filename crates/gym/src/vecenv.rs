//! Batched vectorized environments: N independent lanes stepped together.
//!
//! PPO throughput on this workload is dominated by one-row policy forwards:
//! stepping a single environment means a full network pass per transition.
//! [`VecEnv`] drives N independent [`Environment`] instances ("lanes") so
//! the trainer can run **one batched forward of N observation rows per
//! step** and amortize the per-call cost N-fold.
//!
//! One way to step lanes: [`VecEnv::run_groups`] hands contiguous lane
//! groups to a caller's closure as the tasks of **one** `rayon::scope`, and
//! each task steps its group for as many steps as it likes. Rollout
//! collection runs its whole horizon this way: per group and step, a
//! batched forward, a sample per lane, a step per lane. The pool
//! synchronizes once per rollout instead of once per step.
//! [`VecEnv::step_each`] steps every lane once, serially and in lane
//! order; it is the reference schedule the tests compare against.
//!
//! Determinism contract:
//!
//! * **Single lane** (`VecEnv::new(1, ...)`): every random draw (resets,
//!   action sampling via [`VecEnv::step_each`]'s closure, environment
//!   steps) comes from the caller's RNG in exactly the order the scalar
//!   pre-VecEnv rollout loop made them, so a 1-lane rollout is bit-for-bit
//!   identical to the historical single-environment path.
//! * **Multiple lanes**: each lane owns an RNG stream derived from the
//!   VecEnv seed, so trajectories are reproducible for a fixed
//!   `(seed, num_lanes)` regardless of worker-thread count, lane grouping
//!   or scheduling.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Environment, StepInfo};

/// SplitMix64 finalizer deriving well-separated per-lane RNG seeds from a
/// base seed. This is the lane-stream derivation [`VecEnv`] uses, exported
/// so other lane-parallel drivers (batched evaluation in `autocat-ppo`)
/// split one caller stream into per-lane streams the same way.
pub fn lane_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Summary of an episode that finished (and auto-reset) during a step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FinishedEpisode {
    /// Sum of rewards over the episode.
    pub episode_return: f32,
    /// Episode length in steps.
    pub length: usize,
}

/// Per-lane outcome of one [`VecEnv::step_each`] call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaneStep<A> {
    /// The action index the chooser selected for this lane.
    pub action: usize,
    /// The chooser's auxiliary payload (e.g. the action's log-probability).
    pub payload: A,
    /// Reward for the transition.
    pub reward: f32,
    /// Whether the episode ended on this transition (the lane has already
    /// auto-reset; its current observation begins the next episode).
    pub done: bool,
    /// Step info of the transition (guess outcome, detection, ...).
    pub info: StepInfo,
    /// Present when the episode ended, summarizing it.
    pub finished: Option<FinishedEpisode>,
}

struct Lane<E> {
    env: E,
    rng: StdRng,
    obs: Vec<f32>,
    episode_return: f32,
    episode_len: usize,
}

impl<E: Environment> Lane<E> {
    /// Applies `action`, accumulates episode stats, and auto-resets on
    /// episode end, drawing all randomness from `rng`.
    fn step<A>(&mut self, action: usize, payload: A, rng: &mut StdRng) -> LaneStep<A> {
        let result = self.env.step(action, rng);
        self.episode_return += result.reward;
        self.episode_len += 1;
        let finished = if result.done {
            let summary = FinishedEpisode {
                episode_return: self.episode_return,
                length: self.episode_len,
            };
            self.episode_return = 0.0;
            self.episode_len = 0;
            self.obs = self.env.reset(rng);
            Some(summary)
        } else {
            self.obs = result.obs;
            None
        };
        LaneStep {
            action,
            payload,
            reward: result.reward,
            done: result.done,
            info: result.info,
            finished,
        }
    }

    fn reset(&mut self, rng: &mut StdRng) {
        self.obs = self.env.reset(rng);
        self.episode_return = 0.0;
        self.episode_len = 0;
    }

    /// Runs `f` with this lane's own RNG stream temporarily detached,
    /// restoring it afterwards (splits the borrow so `f` can take the lane
    /// and the RNG mutably at once).
    fn with_own_rng<T>(&mut self, f: impl FnOnce(&mut Self, &mut StdRng) -> T) -> T {
        let mut rng = std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0));
        let out = f(self, &mut rng);
        self.rng = rng;
        out
    }
}

/// N independent environment lanes stepped as one batch (see the module
/// docs for the determinism contract).
pub struct VecEnv<E: Environment> {
    lanes: Vec<Lane<E>>,
}

impl<E: Environment + Clone> VecEnv<E> {
    /// Creates `num_lanes` lanes by cloning `proto`; lane RNG streams are
    /// derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_lanes` is zero.
    pub fn new(num_lanes: usize, proto: E, seed: u64) -> Result<Self, String> {
        if num_lanes == 0 {
            return Err("VecEnv needs at least one lane".into());
        }
        let obs_dim = proto.obs_dim();
        let lanes = vec![proto; num_lanes]
            .into_iter()
            .enumerate()
            .map(|(i, env)| Lane {
                env,
                rng: StdRng::seed_from_u64(lane_seed(seed, i as u64)),
                obs: vec![0.0; obs_dim],
                episode_return: 0.0,
                episode_len: 0,
            })
            .collect();
        Ok(Self { lanes })
    }
}

impl<E: Environment> VecEnv<E> {
    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Flattened observation dimension (identical across lanes).
    pub fn obs_dim(&self) -> usize {
        self.lanes[0].env.obs_dim()
    }

    /// Number of discrete actions (identical across lanes).
    pub fn num_actions(&self) -> usize {
        self.lanes[0].env.num_actions()
    }

    /// Features per history token.
    pub fn token_dim(&self) -> usize {
        self.lanes[0].env.token_dim()
    }

    /// History window length in tokens.
    pub fn window(&self) -> usize {
        self.lanes[0].env.window()
    }

    /// Whether this VecEnv runs in the bit-for-bit scalar-compatible mode
    /// (exactly one lane; all draws come from the caller's RNG).
    pub fn is_scalar_compat(&self) -> bool {
        self.lanes.len() == 1
    }

    /// Borrows lane `i`'s environment.
    pub fn lane(&self, i: usize) -> &E {
        &self.lanes[i].env
    }

    /// Mutably borrows lane `i`'s environment (evaluation, forcing
    /// secrets). Touching env state mid-rollout invalidates the lane's
    /// episode accounting; do it between rollouts.
    pub fn lane_mut(&mut self, i: usize) -> &mut E {
        &mut self.lanes[i].env
    }

    /// The current observations, flattened row-major: `num_lanes` rows of
    /// `obs_dim` columns, ready to become one batched network input.
    pub fn obs_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.lanes.len() * self.obs_dim());
        for lane in &self.lanes {
            out.extend_from_slice(&lane.obs);
        }
        out
    }

    /// Snapshots every lane's RNG state (for trainer checkpoints).
    /// Restore with [`VecEnv::restore_rng_states`].
    pub fn rng_states(&self) -> Vec<[u64; 4]> {
        self.lanes.iter().map(|lane| lane.rng.state()).collect()
    }

    /// Restores per-lane RNG states captured by [`VecEnv::rng_states`].
    ///
    /// Episode state is *not* restored — checkpoints are taken at update
    /// boundaries, where the next collection resets every lane anyway, so
    /// the lane RNG streams are the only state that must survive.
    ///
    /// # Errors
    ///
    /// Returns an error if `states` does not have one entry per lane.
    pub fn restore_rng_states(&mut self, states: &[[u64; 4]]) -> Result<(), String> {
        if states.len() != self.lanes.len() {
            return Err(format!(
                "checkpoint has {} lane RNG states, VecEnv has {} lanes",
                states.len(),
                self.lanes.len()
            ));
        }
        for (lane, &state) in self.lanes.iter_mut().zip(states) {
            lane.rng = StdRng::from_state(state);
        }
        Ok(())
    }

    /// Resets every lane, discarding any episodes in progress (the scalar
    /// rollout loop did the same at the start of each collection).
    pub fn reset_all(&mut self, rng: &mut StdRng) {
        if self.is_scalar_compat() {
            self.lanes[0].reset(rng);
        } else {
            for lane in &mut self.lanes {
                lane.with_own_rng(|lane, rng| lane.reset(rng));
            }
        }
    }

    /// Steps every lane once, in lane order on the calling thread: the
    /// reference schedule the tests hold [`VecEnv::run_groups`] to.
    /// `choose` maps `(lane_index, lane_rng)` to the action index plus an
    /// arbitrary payload (rollout collection passes the action's
    /// log-probability through); it is called exactly once per lane. Lanes
    /// that finish their episode auto-reset.
    ///
    /// With one lane, all draws (including `choose`'s) come from the
    /// caller's `rng`, preserving the scalar code path's RNG stream. With
    /// multiple lanes each lane draws from its own stream.
    pub fn step_each<A>(
        &mut self,
        mut choose: impl FnMut(usize, &mut StdRng) -> (usize, A),
        rng: &mut StdRng,
    ) -> Vec<LaneStep<A>> {
        if self.is_scalar_compat() {
            let lane = &mut self.lanes[0];
            let (action, payload) = choose(0, rng);
            return vec![lane.step(action, payload, rng)];
        }
        self.lanes
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| {
                lane.with_own_rng(|lane, rng| {
                    let (action, payload) = choose(i, rng);
                    lane.step(action, payload, rng)
                })
            })
            .collect()
    }
}

impl<E: Environment + Send> VecEnv<E> {
    /// Runs `work` once per contiguous group of `group_len` lanes (the
    /// last group may be shorter), handing group `g` the `g`-th entry of
    /// `tasks`. Within a group, `work` may step its lanes any number of
    /// times through [`LaneGroup::step`].
    ///
    /// With one lane, `work` runs inline on the calling thread and the lane
    /// draws from `rng`, as [`VecEnv::step_each`] does: the pool is neither
    /// started nor used. With more lanes, every lane draws from its own
    /// stream and the groups are the tasks of one `rayon::scope`, group 0
    /// on the calling thread. So as long as `work` computes a group's steps
    /// from that group's lanes and its task alone, the results do not
    /// depend on `group_len`, the worker count or the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `group_len` is zero or `tasks` does not hold one entry per
    /// group.
    pub fn run_groups<T, W>(&mut self, group_len: usize, tasks: Vec<T>, rng: &mut StdRng, work: W)
    where
        T: Send,
        W: Fn(LaneGroup<'_, E>, T) + Sync,
    {
        assert!(group_len > 0, "group_len must be positive");
        assert_eq!(
            tasks.len(),
            self.lanes.len().div_ceil(group_len),
            "run_groups needs one task per lane group"
        );
        let mut tasks = tasks.into_iter();
        if self.is_scalar_compat() {
            let group = LaneGroup {
                lanes: &mut self.lanes,
                master: Some(rng),
            };
            work(group, tasks.next().expect("one task for the one lane"));
            return;
        }
        let mut groups = self
            .lanes
            .chunks_mut(group_len)
            .zip(tasks)
            .map(|(lanes, task)| {
                let group = LaneGroup {
                    lanes,
                    master: None,
                };
                (group, task)
            });
        let work = &work;
        // The caller participates: group 0 runs inline on this thread and
        // the scope's wait helps with whatever the workers have not taken.
        let first = groups.next();
        rayon::scope(|scope| {
            for (group, task) in groups {
                scope.spawn(move |_| work(group, task));
            }
            if let Some((group, task)) = first {
                work(group, task);
            }
        });
    }
}

/// A contiguous run of lanes that one [`VecEnv::run_groups`] task steps.
pub struct LaneGroup<'a, E> {
    lanes: &'a mut [Lane<E>],
    /// The caller's RNG in scalar-compatible mode (one lane); otherwise
    /// each lane draws from its own stream.
    master: Option<&'a mut StdRng>,
}

impl<E: Environment> LaneGroup<'_, E> {
    /// Number of lanes in the group (at least one).
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Always `false`: a group holds at least one lane.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Writes the group's current observations into `out`, row-major:
    /// `len()` rows of `obs_dim` columns, the group's slice of
    /// [`VecEnv::obs_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly `len() * obs_dim` values.
    pub fn write_obs(&self, out: &mut [f32]) {
        let obs_dim = self.lanes[0].obs.len();
        assert_eq!(out.len(), self.lanes.len() * obs_dim, "obs buffer size");
        for (row, lane) in out.chunks_exact_mut(obs_dim).zip(self.lanes.iter()) {
            row.copy_from_slice(&lane.obs);
        }
    }

    /// Steps lane `local` of the group once. `choose` maps the lane's RNG
    /// to the action index plus a payload, as in [`VecEnv::step_each`];
    /// a lane that finishes its episode auto-resets.
    pub fn step<A>(
        &mut self,
        local: usize,
        choose: impl FnOnce(&mut StdRng) -> (usize, A),
    ) -> LaneStep<A> {
        let lane = &mut self.lanes[local];
        match self.master.as_deref_mut() {
            Some(rng) => {
                let (action, payload) = choose(rng);
                lane.step(action, payload, rng)
            }
            None => lane.with_own_rng(|lane, rng| {
                let (action, payload) = choose(rng);
                lane.step(action, payload, rng)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvConfig;
    use crate::env::CacheGuessingGame;
    use crate::StepResult;

    fn game() -> CacheGuessingGame {
        CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap()
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Random-action trajectory helper: steps `venv` `steps` times and
    /// returns (actions, rewards, dones) per call in lane-major order.
    fn drive(
        venv: &mut VecEnv<CacheGuessingGame>,
        steps: usize,
        master: &mut StdRng,
    ) -> Vec<(usize, f32, bool)> {
        use rand::Rng;
        let num_actions = venv.num_actions();
        let mut out = Vec::new();
        for _ in 0..steps {
            let results = venv.step_each(
                |_, lane_rng| (lane_rng.gen_range(0..num_actions), ()),
                master,
            );
            for s in results {
                out.push((s.action, s.reward, s.done));
            }
        }
        out
    }

    #[test]
    fn zero_lanes_is_an_error() {
        assert!(VecEnv::new(0, game(), 1).is_err());
    }

    #[test]
    fn obs_flat_has_lane_major_layout() {
        let mut venv = VecEnv::new(3, game(), 7).unwrap();
        venv.reset_all(&mut rng(1));
        let flat = venv.obs_flat();
        assert_eq!(flat.len(), 3 * venv.obs_dim());
    }

    #[test]
    fn single_lane_matches_raw_env_bit_for_bit() {
        use rand::Rng;
        // The scalar-compat contract: a 1-lane VecEnv driven by a master
        // RNG reproduces exactly the raw-env loop with the same RNG.
        let mut venv = VecEnv::new(1, game(), 99).unwrap();
        let mut m1 = rng(5);
        venv.reset_all(&mut m1);
        let vec_traj = drive(&mut venv, 300, &mut m1);

        let mut env = game();
        let mut m2 = rng(5);
        let mut raw_traj = Vec::new();
        env.reset(&mut m2);
        let num_actions = env.num_actions();
        for _ in 0..300 {
            let a = m2.gen_range(0..num_actions);
            let StepResult { reward, done, .. } = env.step(a, &mut m2);
            raw_traj.push((a, reward, done));
            if done {
                env.reset(&mut m2);
            }
        }
        assert_eq!(vec_traj, raw_traj);
    }

    #[test]
    fn multi_lane_is_deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut venv = VecEnv::new(4, game(), seed).unwrap();
            let mut master = rng(0);
            venv.reset_all(&mut master);
            drive(&mut venv, 200, &mut master)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(
            run(11),
            run(12),
            "different seeds must give different trajectories"
        );
    }

    #[test]
    fn lanes_decorrelate() {
        // With distinct RNG streams, 8 lanes must not all play the same
        // action at every step.
        let mut venv = VecEnv::new(8, game(), 3).unwrap();
        let mut master = rng(0);
        venv.reset_all(&mut master);
        let traj = drive(&mut venv, 50, &mut master);
        let mut any_diverged = false;
        for step in traj.chunks(8) {
            if step.iter().any(|s| s.0 != step[0].0) {
                any_diverged = true;
                break;
            }
        }
        assert!(any_diverged, "lanes must explore independently");
    }

    #[test]
    fn restored_rng_states_resume_trajectories_at_an_update_boundary() {
        // The checkpoint premise: a fresh VecEnv built from the same
        // prototype env, with lane RNG states restored, behaves exactly
        // like the original from the next reset_all onward.
        let mut original = VecEnv::new(4, game(), 17).unwrap();
        let mut master_a = rng(2);
        original.reset_all(&mut master_a);
        drive(&mut original, 150, &mut master_a);

        let mut restored = VecEnv::new(4, game(), 0).unwrap();
        restored.restore_rng_states(&original.rng_states()).unwrap();
        let mut master_b = StdRng::from_state(master_a.state());

        original.reset_all(&mut master_a);
        restored.reset_all(&mut master_b);
        assert_eq!(
            drive(&mut original, 200, &mut master_a),
            drive(&mut restored, 200, &mut master_b)
        );
    }

    #[test]
    fn restore_rejects_a_lane_count_mismatch() {
        let mut venv = VecEnv::new(2, game(), 0).unwrap();
        let states = venv.rng_states();
        assert!(venv.restore_rng_states(&states[..1]).is_err());
    }

    #[test]
    fn auto_reset_reports_episode_summaries() {
        let mut venv = VecEnv::new(2, game(), 21).unwrap();
        let mut master = rng(0);
        venv.reset_all(&mut master);
        let guess = venv.lane(0).action_space().guess_indices()[0];
        let mut summaries = 0;
        for _ in 0..5 {
            let results = venv.step_each(|_, _| (guess, ()), &mut master);
            for s in &results {
                assert!(s.done, "a guess ends the episode");
                let f = s.finished.expect("done lanes report a summary");
                assert_eq!(f.length, 1);
                assert!((f.episode_return - s.reward).abs() < 1e-6);
                summaries += 1;
            }
        }
        assert_eq!(summaries, 10);
        // After auto-reset the lanes are live (stepping does not panic).
        let _ = venv.step_each(|_, _| (0, ()), &mut master);
    }

    #[test]
    fn episode_return_accumulates_across_steps() {
        let mut venv = VecEnv::new(1, game(), 0).unwrap();
        let mut master = rng(9);
        venv.reset_all(&mut master);
        let guess = venv.lane(0).action_space().guess_indices()[0];
        // Two no-op steps then a guess: the summary must cover all three.
        let r1 = venv.step_each(|_, _| (0, ()), &mut master)[0].reward;
        let r2 = venv.step_each(|_, _| (0, ()), &mut master)[0].reward;
        let s = venv.step_each(|_, _| (guess, ()), &mut master);
        let f = s[0].finished.unwrap();
        assert_eq!(f.length, 3);
        assert!((f.episode_return - (r1 + r2 + s[0].reward)).abs() < 1e-6);
    }

    /// A stand-in for a batched policy forward: one score per row that
    /// depends on that row alone, as every network kernel guarantees.
    fn row_scores(rows: &[f32], obs_dim: usize) -> Vec<f32> {
        rows.chunks_exact(obs_dim)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold(0.0f32, |acc, (i, &x)| acc * 1.0001 + x * (i as f32 + 0.5))
            })
            .collect()
    }

    /// An action from a row's score and a draw from the lane's RNG, so a
    /// wrong score, row or RNG stream changes the trajectory.
    fn pick(score: f32, num_actions: usize, lane_rng: &mut StdRng) -> (usize, f32) {
        use rand::Rng;
        let draw = lane_rng.gen_range(0..num_actions);
        ((draw + score.to_bits() as usize) % num_actions, score)
    }

    /// One group's pre-step observations and step results, per step.
    type GroupRecord = Vec<(Vec<f32>, Vec<LaneStep<f32>>)>;

    /// Holds the whole-horizon group runner to the reference schedule: per
    /// step, one whole-batch forward over `obs_flat`, then `step_each`.
    /// Every group steps its lanes `steps` times in one `run_groups` task,
    /// and the results must agree bit for bit, as must the caller's RNG
    /// and every lane's RNG state afterwards.
    fn assert_groups_match_step_each(lanes: usize, steps: usize, group_len: usize) {
        use rand::Rng;
        let mut plain = VecEnv::new(lanes, game(), 33).unwrap();
        let mut grouped = VecEnv::new(lanes, game(), 33).unwrap();
        let num_actions = plain.num_actions();
        let obs_dim = plain.obs_dim();
        let (mut ma, mut mb) = (rng(4), rng(4));
        plain.reset_all(&mut ma);
        grouped.reset_all(&mut mb);

        let mut want = Vec::new();
        for _ in 0..steps {
            let obs = plain.obs_flat();
            let scores = row_scores(&obs, obs_dim);
            let results = plain.step_each(
                |lane, lane_rng| pick(scores[lane], num_actions, lane_rng),
                &mut ma,
            );
            want.push((obs, results));
        }

        // Each group records its steps into its own task; the
        // caller reassembles them time-major.
        let groups = lanes.div_ceil(group_len);
        let mut got: Vec<GroupRecord> = (0..groups).map(|_| Vec::new()).collect();
        let tasks: Vec<_> = got.iter_mut().collect();
        grouped.run_groups(group_len, tasks, &mut mb, |mut group, record| {
            for _ in 0..steps {
                let mut obs = vec![0.0; group.len() * obs_dim];
                group.write_obs(&mut obs);
                let scores = row_scores(&obs, obs_dim);
                let results = (0..group.len())
                    .map(|local| {
                        group.step(local, |lane_rng| pick(scores[local], num_actions, lane_rng))
                    })
                    .collect();
                record.push((obs, results));
            }
        });
        for (t, (obs, results)) in want.iter().enumerate() {
            let got_obs: Vec<f32> = got.iter().flat_map(|g| g[t].0.iter().copied()).collect();
            let got_steps: Vec<LaneStep<f32>> =
                got.iter().flat_map(|g| g[t].1.iter().copied()).collect();
            let what = format!("lanes={lanes} steps={steps} group_len={group_len} t={t}");
            assert_eq!(&got_obs, obs, "{what}: pre-step observations");
            assert_eq!(&got_steps, results, "{what}");
        }
        // With one lane both schedules drew from the caller's
        // RNG; with more, neither touched it after reset_all.
        assert_eq!(ma.gen::<u64>(), mb.gen::<u64>(), "lanes={lanes}");
        assert_eq!(plain.rng_states(), grouped.rng_states());
    }

    #[test]
    fn pipelined_step_matches_step_each_for_any_group_len() {
        // Lane counts leave ragged last groups (3, 5, 9 over groups of 2
        // and 4), groups of one lane, and one group wider than every lane
        // count.
        for lanes in [2usize, 3, 4, 5, 8, 9] {
            for steps in [1usize, 7] {
                for group_len in [1usize, 2, 4, 16] {
                    assert_groups_match_step_each(lanes, steps, group_len);
                }
            }
        }
    }

    #[test]
    fn pipelined_step_is_scalar_compatible_at_one_lane() {
        // With a single lane the runner must consume the caller's RNG
        // exactly like step_each, so a trailing draw from each master RNG
        // still agrees, whatever the group length.
        for steps in [1usize, 7, 64] {
            for group_len in [1usize, 2, 4, 16] {
                assert_groups_match_step_each(1, steps, group_len);
            }
        }
    }

    #[test]
    #[should_panic(expected = "group_len must be positive")]
    fn run_groups_rejects_zero_group_len() {
        let mut venv = VecEnv::new(2, game(), 1).unwrap();
        let mut master = rng(0);
        venv.reset_all(&mut master);
        venv.run_groups(0, Vec::<()>::new(), &mut master, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "one task per lane group")]
    fn run_groups_rejects_a_task_count_mismatch() {
        let mut venv = VecEnv::new(5, game(), 1).unwrap();
        let mut master = rng(0);
        venv.reset_all(&mut master);
        venv.run_groups(4, vec![(); 1], &mut master, |_, _| {});
    }
}
