//! Categorical action distribution over logits.

use crate::matrix::{log_sum_exp, softmax_inplace};
use rand::Rng;

/// A categorical distribution parameterized by unnormalized logits.
///
/// Provides exactly what PPO needs: sampling, log-probabilities, entropy,
/// and the analytic gradients of the PPO surrogate/entropy terms with
/// respect to the logits.
#[derive(Clone, Debug, PartialEq)]
pub struct Categorical {
    logits: Vec<f32>,
    probs: Vec<f32>,
}

impl Categorical {
    /// Builds a distribution from logits.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty.
    pub fn from_logits(logits: &[f32]) -> Self {
        assert!(
            !logits.is_empty(),
            "categorical needs at least one category"
        );
        let mut probs = logits.to_vec();
        softmax_inplace(&mut probs);
        Self {
            logits: logits.to_vec(),
            probs,
        }
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.logits.len()
    }

    /// The normalized probabilities.
    pub fn probs(&self) -> &[f32] {
        &self.probs
    }

    /// Samples an action index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f32 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in self.probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        self.probs.len() - 1
    }

    /// The most probable action index (deterministic evaluation).
    pub fn argmax(&self) -> usize {
        self.probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Log-probability of action `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn log_prob(&self, a: usize) -> f32 {
        assert!(a < self.logits.len(), "action {a} out of range");
        self.logits[a] - log_sum_exp(&self.logits)
    }

    /// Shannon entropy of the distribution (nats).
    pub fn entropy(&self) -> f32 {
        let lse = log_sum_exp(&self.logits);
        -self
            .probs
            .iter()
            .zip(self.logits.iter())
            .map(|(&p, &l)| if p > 0.0 { p * (l - lse) } else { 0.0 })
            .sum::<f32>()
    }

    /// Gradient of `log_prob(a)` with respect to the logits:
    /// `d log p(a) / d logit_i = 1[i==a] - p_i`.
    pub fn dlogp_dlogits(&self, a: usize) -> Vec<f32> {
        let mut g: Vec<f32> = self.probs.iter().map(|&p| -p).collect();
        g[a] += 1.0;
        g
    }

    /// Gradient of the entropy with respect to the logits:
    /// `dH/d logit_i = -p_i * (log p_i + H)`.
    pub fn dentropy_dlogits(&self) -> Vec<f32> {
        let h = self.entropy();
        let lse = log_sum_exp(&self.logits);
        self.probs
            .iter()
            .zip(self.logits.iter())
            .map(|(&p, &l)| {
                let logp = l - lse;
                -p * (logp + h)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn probs_sum_to_one() {
        let d = Categorical::from_logits(&[0.0, 1.0, -1.0, 3.0]);
        let s: f32 = d.probs().iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_entropy_is_log_n() {
        let d = Categorical::from_logits(&[0.5, 0.5, 0.5, 0.5]);
        assert!((d.entropy() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn log_prob_matches_probs() {
        let d = Categorical::from_logits(&[2.0, -1.0, 0.3]);
        for a in 0..3 {
            assert!((d.log_prob(a).exp() - d.probs()[a]).abs() < 1e-5);
        }
    }

    #[test]
    fn sampling_frequency_approximates_probs() {
        let d = Categorical::from_logits(&[1.0, 0.0, -1.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        let n = 40_000;
        for _ in 0..n {
            counts[d.sample(&mut rng)] += 1;
        }
        for (a, &count) in counts.iter().enumerate() {
            let freq = count as f32 / n as f32;
            assert!(
                (freq - d.probs()[a]).abs() < 0.02,
                "action {a}: freq {freq} vs prob {}",
                d.probs()[a]
            );
        }
    }

    #[test]
    fn argmax_picks_largest_logit() {
        let d = Categorical::from_logits(&[0.1, 5.0, -2.0]);
        assert_eq!(d.argmax(), 1);
    }

    #[test]
    fn dlogp_gradient_check() {
        let logits = [0.5f32, -0.3, 1.2, 0.0];
        let d = Categorical::from_logits(&logits);
        let g = d.dlogp_dlogits(2);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits;
            lp[i] += eps;
            let mut lm = logits;
            lm[i] -= eps;
            let numeric = (Categorical::from_logits(&lp).log_prob(2)
                - Categorical::from_logits(&lm).log_prob(2))
                / (2.0 * eps);
            assert!(
                (numeric - g[i]).abs() < 1e-3,
                "i={i}: {numeric} vs {}",
                g[i]
            );
        }
    }

    #[test]
    fn dentropy_gradient_check() {
        let logits = [0.5f32, -0.3, 1.2];
        let d = Categorical::from_logits(&logits);
        let g = d.dentropy_dlogits();
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits;
            lp[i] += eps;
            let mut lm = logits;
            lm[i] -= eps;
            let numeric = (Categorical::from_logits(&lp).entropy()
                - Categorical::from_logits(&lm).entropy())
                / (2.0 * eps);
            assert!(
                (numeric - g[i]).abs() < 1e-3,
                "i={i}: {numeric} vs {}",
                g[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn empty_logits_panics() {
        let _ = Categorical::from_logits(&[]);
    }
}
