//! Categorical action distribution over logits, computed in one pass.
//!
//! [`Categorical::set_logits`] takes each row's exponentials
//! `e_i = exp(l_i − max)` once: they give the probabilities (the softmax)
//! and their sum gives the log-sum-exp `lse = max + ln(Σ e)`, which
//! [`Categorical::log_prob`], [`Categorical::entropy`] and the PPO loss
//! gradient ([`Categorical::grad_into`]) all read. A row of `n` logits
//! therefore costs `n` `expf` and one `logf`, where recomputing the
//! log-sum-exp per quantity cost five times that. Every result keeps the
//! per-element operations and their order that those separate passes
//! used, so the bits are the same: the `lse` of a row whose max is not
//! finite is that max, the entropy skips categories with `p = 0`, and the
//! sums run in ascending category order.
//!
//! A distribution refilled with [`Categorical::set_logits`] reuses its
//! storage, so the rollout and eval samplers and the loss row keep one per
//! thread and allocate nothing per row.

use crate::matrix::softmax_inplace;
use rand::Rng;

/// A categorical distribution parameterized by unnormalized logits.
///
/// Provides exactly what PPO needs: sampling, log-probabilities, entropy,
/// and the analytic gradient of the PPO surrogate and entropy terms with
/// respect to the logits. [`Categorical::default`] is an empty
/// distribution to refill with [`Categorical::set_logits`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Categorical {
    logits: Vec<f32>,
    probs: Vec<f32>,
    /// `ln Σ exp(l_i)`, from the softmax's own exponentials.
    lse: f32,
}

impl Categorical {
    /// Builds a distribution from logits.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty.
    pub fn from_logits(logits: &[f32]) -> Self {
        let mut dist = Self::default();
        dist.set_logits(logits);
        dist
    }

    /// Refills the distribution from `logits`, reusing its storage: one
    /// `exp` per logit and one `ln` (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty.
    pub fn set_logits(&mut self, logits: &[f32]) {
        assert!(
            !logits.is_empty(),
            "categorical needs at least one category"
        );
        self.logits.clear();
        self.logits.extend_from_slice(logits);
        self.probs.clear();
        self.probs.extend_from_slice(logits);
        let (max, sum) = softmax_inplace(&mut self.probs);
        self.lse = if max.is_finite() { max + sum.ln() } else { max };
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
    ///
    /// # Panics
    ///
    /// Panics on an empty distribution (a [`Categorical::default`] not yet
    /// refilled).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        assert!(!self.probs.is_empty(), "sampling an empty distribution");
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
        self.logits[a] - self.lse
    }

    /// Shannon entropy of the distribution (nats).
    pub fn entropy(&self) -> f32 {
        -self
            .probs
            .iter()
            .zip(self.logits.iter())
            .map(|(&p, &l)| if p > 0.0 { p * (l - self.lse) } else { 0.0 })
            .sum::<f32>()
    }

    /// Gradient of `log_prob(a)` with respect to the logits:
    /// `d log p(a) / d logit_i = 1[i==a] - p_i`.
    pub fn dlogp_dlogits(&self, a: usize) -> Vec<f32> {
        let mut g: Vec<f32> = self.probs.iter().map(|&p| -p).collect();
        g[a] += 1.0;
        g
    }

    /// The PPO loss row's logit gradient: writes
    /// `∂(c·log p(action) + k·H)/∂logit_i`, each term scaled by `inv`,
    /// into `out`, where `c = logp_coef` (`None` drops that term, as the
    /// clipped surrogate does) and `k = entropy_coef`. Returns the entropy
    /// `H`.
    ///
    /// Per element this is `0 + (c·(1[i==a] − p_i))·inv`, then
    /// `+ (k·(−p_i·((l_i − lse) + H)))·inv`: the operations, in order,
    /// of [`Categorical::dlogp_dlogits`] and of the entropy gradient
    /// `dH/dlogit_i = −p_i·(log p_i + H)` added into a zeroed row.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range or `out` is not one element per
    /// category.
    pub fn grad_into(
        &self,
        action: usize,
        logp_coef: Option<f32>,
        entropy_coef: f32,
        inv: f32,
        out: &mut [f32],
    ) -> f32 {
        assert!(action < self.logits.len(), "action {action} out of range");
        assert_eq!(out.len(), self.logits.len(), "dlogits length mismatch");
        let h = self.entropy();
        let rows = out.iter_mut().zip(&self.probs).zip(&self.logits);
        for (i, ((g, &p), &l)) in rows.enumerate() {
            let mut grad = 0.0f32;
            if let Some(c) = logp_coef {
                let dlogp = if i == action { -p + 1.0 } else { -p };
                grad += c * dlogp * inv;
            }
            let dent = -p * ((l - self.lse) + h);
            grad += entropy_coef * dent * inv;
            *g = grad;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

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
        let mut g = [0.0f32; 3];
        let h = d.grad_into(0, None, 1.0, 1.0, &mut g);
        assert_eq!(h.to_bits(), d.entropy().to_bits());
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

    /// The multi-pass formulas the one-pass row replaced: a softmax, then
    /// a fresh log-sum-exp for every log-probability, the entropy and
    /// each of the two gradient terms.
    mod multi_pass {
        pub fn log_sum_exp(row: &[f32]) -> f32 {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            if !max.is_finite() {
                return max;
            }
            let sum: f32 = row.iter().map(|&v| (v - max).exp()).sum();
            max + sum.ln()
        }

        pub fn probs(logits: &[f32]) -> Vec<f32> {
            let mut row = logits.to_vec();
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                let inv = 1.0 / sum;
                for v in row.iter_mut() {
                    *v *= inv;
                }
            }
            row
        }

        pub fn log_prob(logits: &[f32], a: usize) -> f32 {
            logits[a] - log_sum_exp(logits)
        }

        pub fn entropy(logits: &[f32]) -> f32 {
            let lse = log_sum_exp(logits);
            -probs(logits)
                .iter()
                .zip(logits.iter())
                .map(|(&p, &l)| if p > 0.0 { p * (l - lse) } else { 0.0 })
                .sum::<f32>()
        }

        pub fn dentropy_dlogits(logits: &[f32]) -> Vec<f32> {
            let h = entropy(logits);
            let lse = log_sum_exp(logits);
            probs(logits)
                .iter()
                .zip(logits.iter())
                .map(|(&p, &l)| {
                    let logp = l - lse;
                    -p * (logp + h)
                })
                .collect()
        }

        /// The loss row's logit gradient as the PPO update assembled it.
        pub fn grad(
            logits: &[f32],
            a: usize,
            logp_coef: Option<f32>,
            entropy_coef: f32,
            inv: f32,
        ) -> Vec<f32> {
            let mut dlogits = vec![0.0f32; logits.len()];
            if let Some(c) = logp_coef {
                let mut dlogp: Vec<f32> = probs(logits).iter().map(|&p| -p).collect();
                dlogp[a] += 1.0;
                for (g, d) in dlogits.iter_mut().zip(dlogp.iter()) {
                    *g += c * d * inv;
                }
            }
            for (g, d) in dlogits.iter_mut().zip(dentropy_dlogits(logits).iter()) {
                *g += entropy_coef * d * inv;
            }
            dlogits
        }

        pub fn sample(logits: &[f32], rng: &mut impl rand::Rng) -> usize {
            let probs = probs(logits);
            let u: f32 = rng.gen();
            let mut acc = 0.0;
            for (i, &p) in probs.iter().enumerate() {
                acc += p;
                if u < acc {
                    return i;
                }
            }
            probs.len() - 1
        }
    }

    /// Random rows of 1–64 logits at scales 0.01–60, plus the rows whose
    /// special cases the one pass must keep: all `−inf` (a non-finite
    /// max), a `+inf` logit, NaN logits, one category, equal logits and
    /// probabilities that underflow to zero.
    fn rows() -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        let mut rows: Vec<Vec<f32>> = vec![
            vec![f32::NEG_INFINITY; 5],
            vec![f32::NEG_INFINITY],
            vec![0.5, f32::INFINITY, -1.0],
            vec![0.3, f32::NAN, 1.0, -2.0],
            vec![f32::NAN; 3],
            vec![f32::NEG_INFINITY, 2.0, f32::NEG_INFINITY],
            vec![7.5],
            vec![-1e30],
            vec![0.0; 11],
            vec![-3.25; 64],
            vec![200.0, -200.0, 0.0, 150.0],
            vec![1e38, -1e38, 3e38],
        ];
        for _ in 0..20_000 {
            let len = rng.gen_range(1..=64usize);
            let scale = 0.01f32 * 6000f32.powf(rng.gen_range(0.0f32..1.0));
            let offset = rng.gen_range(-5.0f32..5.0);
            rows.push(
                (0..len)
                    .map(|_| offset + scale * rng.gen_range(-1.0f32..1.0))
                    .collect(),
            );
        }
        rows
    }

    /// Bit patterns with every NaN mapped to one: Rust leaves the sign and
    /// payload of a NaN result unspecified, so the compiler may pick
    /// either operand's NaN (or negate it) in either code.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|&x| bits_of(x)).collect()
    }

    fn bits_of(x: f32) -> u32 {
        if x.is_nan() {
            f32::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// The one-pass loss row against the multi-pass formulas: `logp`, the
    /// entropy and every `dlogits` element bit for bit, through one
    /// distribution refilled row after row, for every action of short rows
    /// and with and without the surrogate term.
    #[test]
    fn one_pass_loss_row_matches_the_multi_pass_formulas_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut dist = Categorical::default();
        let mut out = Vec::new();
        for logits in rows() {
            dist.set_logits(&logits);
            let n = logits.len();
            let actions: Vec<usize> = if n <= 4 {
                (0..n).collect()
            } else {
                vec![rng.gen_range(0..n)]
            };
            for a in actions {
                let logp_coef = match rng.gen_range(0..3) {
                    0 => None,
                    1 => Some(-rng.gen_range(-2.0f32..2.0) * rng.gen_range(0.0f32..3.0)),
                    _ => Some(rng.gen_range(-1e-3f32..1e-3)),
                };
                let entropy_coef = -[0.01f32, 0.02, 0.0, 0.5][rng.gen_range(0..4usize)];
                let inv = 1.0 / rng.gen_range(1..=256) as f32;
                out.resize(n, f32::NAN);
                let h = dist.grad_into(a, logp_coef, entropy_coef, inv, &mut out);
                let what = format!("{logits:?}, action {a}");
                let want = multi_pass::grad(&logits, a, logp_coef, entropy_coef, inv);
                assert_eq!(bits(&out), bits(&want), "dlogits, {what}");
                assert_eq!(
                    bits_of(dist.log_prob(a)),
                    bits_of(multi_pass::log_prob(&logits, a)),
                    "logp, {what}"
                );
                let entropy = bits_of(multi_pass::entropy(&logits));
                assert_eq!(bits_of(h), entropy, "entropy, {what}");
                assert_eq!(bits_of(dist.entropy()), entropy, "entropy, {what}");
            }
        }
    }

    /// The one-pass sampler's `(action, logp)` against sampling the
    /// multi-pass probabilities and recomputing the log-sum-exp, from
    /// equal RNG states: equal actions, equal `logp` bits, equal draws.
    #[test]
    fn one_pass_sampler_matches_the_multi_pass_formulas_bit_for_bit() {
        let mut dist = Categorical::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for logits in rows() {
            let mut reference = rng.clone();
            dist.set_logits(&logits);
            let action = dist.sample(&mut rng);
            let want = multi_pass::sample(&logits, &mut reference);
            assert_eq!(action, want, "{logits:?}");
            assert_eq!(
                bits_of(dist.log_prob(action)),
                bits_of(multi_pass::log_prob(&logits, action)),
                "{logits:?}"
            );
            assert_eq!(bits(dist.probs()), bits(&multi_pass::probs(&logits)));
            assert_eq!(rng.gen::<u64>(), reference.gen::<u64>(), "{logits:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn empty_logits_panics() {
        let _ = Categorical::from_logits(&[]);
    }

    #[test]
    #[should_panic(expected = "sampling an empty distribution")]
    fn sampling_an_unfilled_distribution_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let _ = Categorical::default().sample(&mut rng);
    }
}
