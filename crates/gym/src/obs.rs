//! Observation encoding (paper Sec. IV-C, "RL State Space").
//!
//! The state is the Cartesian product over a window of `W` steps of
//! latency × action × step-index × victim-triggered subspaces. Each step
//! becomes one fixed-width token; the window is flattened for the MLP
//! backbone and reshaped to `(W, token_dim)` by the Transformer backbone.

/// The latency observation of a step (`S_lat = {hit, miss, N.A.}`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Latency {
    /// The attacker's access hit.
    Hit,
    /// The attacker's access missed.
    Miss,
    /// No latency visible (victim trigger, flush, guess, or masked mode).
    NotAvailable,
}

/// One step of history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Index of the action taken.
    pub action: usize,
    /// Observed latency.
    pub latency: Latency,
    /// Zero-based step index within the episode.
    pub step_index: usize,
    /// Whether the victim had been triggered at or before this step.
    pub victim_triggered: bool,
}

/// Encodes a history of [`StepRecord`]s into the flattened observation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsEncoder {
    window: usize,
    num_actions: usize,
}

impl ObsEncoder {
    /// Creates an encoder for the given window and action-space size.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(window: usize, num_actions: usize) -> Self {
        assert!(
            window > 0 && num_actions > 0,
            "window and num_actions must be positive"
        );
        Self {
            window,
            num_actions,
        }
    }

    /// Features per token: 3 (latency one-hot) + `num_actions` (action
    /// one-hot) + 1 (step fraction) + 1 (victim-triggered flag).
    pub fn token_dim(&self) -> usize {
        3 + self.num_actions + 2
    }

    /// Flattened observation dimension.
    pub fn obs_dim(&self) -> usize {
        self.window * self.token_dim()
    }

    /// The window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Encodes the most recent `window` records (most recent first) into a
    /// flat vector; unused slots are all-zero.
    ///
    /// When `mask_latency` is set, every latency is encoded as
    /// `NotAvailable` (the paper's batched real-hardware mode).
    pub fn encode(&self, history: &[StepRecord], mask_latency: bool) -> Vec<f32> {
        let token = self.token_dim();
        let mut obs = vec![0.0f32; self.obs_dim()];
        for (slot, rec) in history.iter().rev().take(self.window).enumerate() {
            let base = slot * token;
            let latency = if mask_latency {
                Latency::NotAvailable
            } else {
                rec.latency
            };
            let lat_idx = match latency {
                Latency::Hit => 0,
                Latency::Miss => 1,
                Latency::NotAvailable => 2,
            };
            obs[base + lat_idx] = 1.0;
            debug_assert!(rec.action < self.num_actions, "action out of range");
            obs[base + 3 + rec.action] = 1.0;
            obs[base + 3 + self.num_actions] = (rec.step_index as f32 + 1.0) / self.window as f32;
            obs[base + 3 + self.num_actions + 1] = if rec.victim_triggered { 1.0 } else { 0.0 };
        }
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(action: usize, latency: Latency, step: usize, trig: bool) -> StepRecord {
        StepRecord {
            action,
            latency,
            step_index: step,
            victim_triggered: trig,
        }
    }

    #[test]
    fn dimensions() {
        let e = ObsEncoder::new(4, 5);
        assert_eq!(e.token_dim(), 10);
        assert_eq!(e.obs_dim(), 40);
    }

    #[test]
    fn empty_history_is_all_zero() {
        let e = ObsEncoder::new(4, 3);
        assert!(e.encode(&[], false).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn most_recent_record_fills_slot_zero() {
        let e = ObsEncoder::new(2, 3);
        let h = vec![
            rec(0, Latency::Hit, 0, false),
            rec(2, Latency::Miss, 1, true),
        ];
        let obs = e.encode(&h, false);
        let token = e.token_dim();
        // Slot 0 = most recent (action 2, miss, triggered).
        assert_eq!(obs[1], 1.0, "miss one-hot in slot 0");
        assert_eq!(obs[3 + 2], 1.0, "action 2 one-hot in slot 0");
        assert_eq!(obs[3 + 3 + 1], 1.0, "triggered flag in slot 0");
        // Slot 1 = older (action 0, hit).
        assert_eq!(obs[token], 1.0, "hit one-hot in slot 1");
        assert_eq!(obs[token + 3], 1.0, "action 0 one-hot in slot 1");
    }

    #[test]
    fn window_truncates_old_history() {
        let e = ObsEncoder::new(2, 2);
        let h = vec![
            rec(0, Latency::Hit, 0, false),
            rec(1, Latency::Hit, 1, false),
            rec(0, Latency::Miss, 2, false),
        ];
        let obs = e.encode(&h, false);
        let token = e.token_dim();
        // Slot 0 = step 2 (action 0, miss), slot 1 = step 1 (action 1).
        assert_eq!(obs[1], 1.0);
        assert_eq!(obs[token + 3 + 1], 1.0);
        // The oldest record is dropped: total one-hot mass is 2 tokens.
        let lat_mass: f32 = (0..2)
            .map(|s| obs[s * token] + obs[s * token + 1] + obs[s * token + 2])
            .sum();
        assert_eq!(lat_mass, 2.0);
    }

    #[test]
    fn masking_forces_na() {
        let e = ObsEncoder::new(1, 2);
        let h = vec![rec(0, Latency::Hit, 0, false)];
        let obs = e.encode(&h, true);
        assert_eq!(obs[0], 0.0);
        assert_eq!(obs[2], 1.0, "masked latency must read N.A.");
    }

    #[test]
    fn step_fraction_increases() {
        let e = ObsEncoder::new(4, 2);
        let h = vec![
            rec(0, Latency::Hit, 0, false),
            rec(0, Latency::Hit, 3, false),
        ];
        let obs = e.encode(&h, false);
        let token = e.token_dim();
        let frac_recent = obs[3 + 2];
        let frac_old = obs[token + 3 + 2];
        assert!(frac_recent > frac_old);
        assert_eq!(frac_recent, 1.0); // step 3 of window 4
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_window_panics() {
        let _ = ObsEncoder::new(0, 3);
    }
}
