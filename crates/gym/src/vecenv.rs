//! Batched vectorized environments: N independent lanes stepped together.
//!
//! PPO throughput on this workload is dominated by one-row policy forwards:
//! stepping a single environment means a full network pass per transition.
//! [`VecEnv`] drives N independent [`Environment`] instances ("lanes") so
//! the trainer can run **one batched forward of N observation rows per
//! step** and amortize the per-call cost N-fold, with lane stepping spread
//! across threads via `rayon::scope` when more than one core is available.
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
//!   `(seed, num_lanes)` regardless of worker-thread count or scheduling.

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
        let envs = vec![proto; num_lanes];
        Self::from_envs(envs, seed)
    }
}

impl<E: Environment> VecEnv<E> {
    /// Creates one lane per environment (for heterogeneous lane setups,
    /// e.g. one cache configuration per lane in a sweep).
    ///
    /// # Errors
    ///
    /// Returns an error if `envs` is empty or the environments disagree on
    /// observation/action dimensions.
    pub fn from_envs(envs: Vec<E>, seed: u64) -> Result<Self, String> {
        if envs.is_empty() {
            return Err("VecEnv needs at least one lane".into());
        }
        let shape = |e: &E| (e.obs_dim(), e.num_actions(), e.window(), e.token_dim());
        let lane0 = shape(&envs[0]);
        for (i, e) in envs.iter().enumerate() {
            if shape(e) != lane0 {
                return Err(format!(
                    "lane {i} has (obs_dim, actions, window, token_dim) = {:?}, lane 0 has {:?}",
                    shape(e),
                    lane0
                ));
            }
        }
        let lanes = envs
            .into_iter()
            .enumerate()
            .map(|(i, env)| {
                let obs_dim = env.obs_dim();
                Lane {
                    env,
                    rng: StdRng::seed_from_u64(lane_seed(seed, i as u64)),
                    obs: vec![0.0; obs_dim],
                    episode_return: 0.0,
                    episode_len: 0,
                }
            })
            .collect();
        Ok(Self { lanes })
    }

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
}

impl<E: Environment + Send> VecEnv<E> {
    /// Steps every lane once. `choose` maps `(lane_index, lane_rng)` to the
    /// action index plus an arbitrary payload (rollout collection passes the
    /// action's log-probability through); it is called exactly once per
    /// lane. Lanes that finish their episode auto-reset.
    ///
    /// With one lane, all draws (including `choose`'s) come from the
    /// caller's `rng`, preserving the scalar code path's RNG stream. With
    /// multiple lanes each lane draws from its own stream and stepping is
    /// spread across rayon workers in contiguous chunks, so results do not
    /// depend on thread count.
    pub fn step_each<A, C>(&mut self, choose: C, rng: &mut StdRng) -> Vec<LaneStep<A>>
    where
        A: Send,
        C: Fn(usize, &mut StdRng) -> (usize, A) + Sync,
    {
        if self.is_scalar_compat() {
            let lane = &mut self.lanes[0];
            let (action, payload) = choose(0, rng);
            return vec![lane.step(action, payload, rng)];
        }
        let workers = rayon::current_num_threads().min(self.lanes.len()).max(1);
        if workers == 1 {
            return self
                .lanes
                .iter_mut()
                .enumerate()
                .map(|(i, lane)| {
                    lane.with_own_rng(|lane, rng| {
                        let (action, payload) = choose(i, rng);
                        lane.step(action, payload, rng)
                    })
                })
                .collect();
        }
        let chunk_len = self.lanes.len().div_ceil(workers);
        let mut results: Vec<Option<LaneStep<A>>> = Vec::new();
        results.resize_with(self.lanes.len(), || None);
        {
            let choose = &choose;
            let step_chunk = |base: usize,
                              lanes: &mut [Lane<E>],
                              out: &mut [Option<LaneStep<A>>]| {
                for (offset, (lane, slot)) in lanes.iter_mut().zip(out.iter_mut()).enumerate() {
                    let i = base + offset;
                    let mut lane_rng = std::mem::replace(&mut lane.rng, StdRng::seed_from_u64(0));
                    let (action, payload) = choose(i, &mut lane_rng);
                    *slot = Some(lane.step(action, payload, &mut lane_rng));
                    lane.rng = lane_rng;
                }
            };
            let mut lane_chunks = self.lanes.chunks_mut(chunk_len);
            let mut result_chunks = results.chunks_mut(chunk_len);
            // The caller participates: chunk 0 runs inline on this thread
            // and the scope's wait helps with the rest, so the worker count
            // (which includes this thread) matches the threads doing work.
            let first = lane_chunks.next().zip(result_chunks.next());
            rayon::scope(|scope| {
                for (chunk_idx, (lanes, out)) in lane_chunks.zip(result_chunks).enumerate() {
                    let base = (chunk_idx + 1) * chunk_len;
                    scope.spawn(move |_| step_chunk(base, lanes, out));
                }
                if let Some((lanes, out)) = first {
                    step_chunk(0, lanes, out);
                }
            });
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every lane must be stepped"))
            .collect()
    }

    /// Steps every lane once with a fused per-group *prepare* stage,
    /// overlapping batched policy inference with environment stepping.
    ///
    /// Lanes are partitioned into contiguous groups of `group_len` (the
    /// last group may be shorter). For each group, `prepare(base_lane,
    /// group_obs, group_rows)` runs first with the group's pre-step
    /// observations flattened row-major (rollout collection runs the
    /// batched policy forward here), then `choose(&ctx, local_row,
    /// lane_rng)` picks each lane's action from the prepared context and
    /// the lane steps. Groups are distributed across rayon workers, so one
    /// group's `prepare` overlaps other groups' environment stepping —
    /// unlike [`VecEnv::step_each`], where the caller must finish one
    /// whole-batch forward before any lane can move.
    ///
    /// Determinism: every random draw comes from the same per-lane streams
    /// (or, with one lane, the caller's RNG in [`VecEnv::step_each`]'s
    /// scalar-compatible order), so trajectories are bit-identical to
    /// `step_each` for **any** `group_len` and any worker count — provided
    /// `prepare` itself is group-local and draws no randomness. Callers
    /// whose `prepare` is batch-size-sensitive (blocked matmul kernels)
    /// should pick `group_len` on the kernel's row-block boundary; see
    /// `autocat_ppo::rollout`.
    ///
    /// # Panics
    ///
    /// Panics if `group_len` is zero.
    pub fn step_pipelined<A, G, P, C>(
        &mut self,
        group_len: usize,
        prepare: P,
        choose: C,
        rng: &mut StdRng,
    ) -> Vec<LaneStep<A>>
    where
        A: Send,
        P: Fn(usize, &[f32], usize) -> G + Sync,
        C: Fn(&G, usize, &mut StdRng) -> (usize, A) + Sync,
    {
        assert!(group_len > 0, "group_len must be positive");
        if self.is_scalar_compat() {
            let lane = &mut self.lanes[0];
            let ctx = prepare(0, &lane.obs, 1);
            let (action, payload) = choose(&ctx, 0, rng);
            return vec![lane.step(action, payload, rng)];
        }
        let obs_dim = self.obs_dim();
        let mut results: Vec<Option<LaneStep<A>>> = Vec::new();
        results.resize_with(self.lanes.len(), || None);
        {
            let prepare = &prepare;
            let choose = &choose;
            let run_group = move |base: usize,
                                  lanes: &mut [Lane<E>],
                                  out: &mut [Option<LaneStep<A>>]| {
                // Snapshot this group's observations before stepping
                // mutates them; groups own disjoint lane ranges, so the
                // concatenation over groups equals a pre-step obs_flat().
                let mut group_obs = Vec::with_capacity(lanes.len() * obs_dim);
                for lane in lanes.iter() {
                    group_obs.extend_from_slice(&lane.obs);
                }
                let ctx = prepare(base, &group_obs, lanes.len());
                for (local, (lane, slot)) in lanes.iter_mut().zip(out.iter_mut()).enumerate() {
                    let mut lane_rng = std::mem::replace(&mut lane.rng, StdRng::seed_from_u64(0));
                    let (action, payload) = choose(&ctx, local, &mut lane_rng);
                    *slot = Some(lane.step(action, payload, &mut lane_rng));
                    lane.rng = lane_rng;
                }
            };
            let mut lane_chunks = self.lanes.chunks_mut(group_len);
            let mut result_chunks = results.chunks_mut(group_len);
            // The caller participates: group 0 runs inline on this thread,
            // then helps the pool workers pipeline the rest.
            let first = lane_chunks.next().zip(result_chunks.next());
            rayon::scope(|scope| {
                for (group_idx, (lanes, out)) in lane_chunks.zip(result_chunks).enumerate() {
                    let base = (group_idx + 1) * group_len;
                    scope.spawn(move |_| run_group(base, lanes, out));
                }
                if let Some((lanes, out)) = first {
                    run_group(0, lanes, out);
                }
            });
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every lane must be stepped"))
            .collect()
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
    fn mismatched_lanes_are_rejected() {
        let a = CacheGuessingGame::new(EnvConfig::flush_reload_fa4()).unwrap();
        let b = CacheGuessingGame::new(EnvConfig::prime_probe_dm4()).unwrap();
        assert!(VecEnv::from_envs(vec![a, b], 1).is_err());
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

    #[test]
    fn pipelined_step_matches_step_each_for_any_group_len() {
        use rand::Rng;
        // Fused stepping must be bit-identical to step_each regardless of
        // how lanes are grouped (full, partial-last, degenerate groups).
        for group_len in [1usize, 2, 3, 4, 8] {
            let mut plain = VecEnv::new(5, game(), 33).unwrap();
            let mut fused = VecEnv::new(5, game(), 33).unwrap();
            let num_actions = plain.num_actions();
            let obs_dim = plain.obs_dim();
            let (mut ma, mut mb) = (rng(4), rng(4));
            plain.reset_all(&mut ma);
            fused.reset_all(&mut mb);
            for _ in 0..64 {
                let pre_step_obs = fused.obs_flat();
                let ra = plain.step_each(
                    |_, lane_rng| (lane_rng.gen_range(0..num_actions), ()),
                    &mut ma,
                );
                let rb = fused.step_pipelined(
                    group_len,
                    |base, group_obs, group_rows| {
                        // prepare sees this group's *pre-step* observations.
                        assert_eq!(group_obs.len(), group_rows * obs_dim);
                        let lo = base * obs_dim;
                        assert_eq!(group_obs, &pre_step_obs[lo..lo + group_obs.len()]);
                    },
                    |_, _, lane_rng| (lane_rng.gen_range(0..num_actions), ()),
                    &mut mb,
                );
                assert_eq!(ra, rb, "group_len={group_len}");
            }
        }
    }

    #[test]
    fn pipelined_step_is_scalar_compatible_at_one_lane() {
        use rand::Rng;
        // With a single lane the pipelined step must consume the caller's
        // RNG exactly like step_each (the scalar-compat contract), so a
        // trailing draw from each master RNG still agrees.
        let mut plain = VecEnv::new(1, game(), 12).unwrap();
        let mut fused = VecEnv::new(1, game(), 12).unwrap();
        let num_actions = plain.num_actions();
        let (mut ma, mut mb) = (rng(8), rng(8));
        plain.reset_all(&mut ma);
        fused.reset_all(&mut mb);
        for _ in 0..64 {
            let ra = plain.step_each(
                |_, lane_rng| (lane_rng.gen_range(0..num_actions), ()),
                &mut ma,
            );
            let rb = fused.step_pipelined(
                1,
                |_, _, _| (),
                |_, _, lane_rng| (lane_rng.gen_range(0..num_actions), ()),
                &mut mb,
            );
            assert_eq!(ra, rb);
        }
        assert_eq!(ma.gen::<u64>(), mb.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "group_len must be positive")]
    fn pipelined_step_rejects_zero_group_len() {
        let mut venv = VecEnv::new(2, game(), 1).unwrap();
        let mut master = rng(0);
        venv.reset_all(&mut master);
        let _ = venv.step_pipelined(0, |_, _, _| (), |_, _, _| (0, ()), &mut master);
    }
}
