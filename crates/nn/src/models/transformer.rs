//! Transformer-encoder policy/value network (paper Sec. IV-C).
//!
//! The paper uses a BERT-style encoder: per-step tokens, one encoder layer
//! with multi-head self-attention, average pooling over steps to produce a
//! sequence embedding, then policy/value heads. This module reproduces that
//! structure with configurable (smaller) dimensions so CPU training stays
//! tractable.

use crate::layers::{Activation, ActivationKind, LayerNorm, Linear, MultiHeadAttention};
use crate::matrix::Matrix;
use crate::models::PolicyValueNet;
use crate::param::Param;
use rand::Rng;

/// Configuration for [`TransformerPolicy`].
#[derive(Clone, Debug, PartialEq)]
pub struct TransformerConfig {
    /// Number of tokens (the RL history window size).
    pub seq_len: usize,
    /// Features per token (per-step observation encoding width).
    pub token_dim: usize,
    /// Model (embedding) dimension.
    pub d_model: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Feed-forward hidden dimension.
    pub ff_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Gain for the policy-head initialization.
    pub policy_head_gain: f32,
}

impl TransformerConfig {
    /// Creates a config sized for the AutoCAT guessing game: the paper uses
    /// `d_model = 128`, 1 encoder layer, 8 heads, FFN 2048; we default to a
    /// CPU-friendly 64/4/256 and keep the paper's architecture shape.
    pub fn new(seq_len: usize, token_dim: usize, num_actions: usize) -> Self {
        Self {
            seq_len,
            token_dim,
            d_model: 64,
            num_heads: 4,
            ff_dim: 256,
            num_actions,
            policy_head_gain: 0.01,
        }
    }

    /// Uses the paper's full dimensions (128 model dim, 8 heads, FFN 2048).
    pub fn paper_sized(mut self) -> Self {
        self.d_model = 128;
        self.num_heads = 8;
        self.ff_dim = 2048;
        self
    }

    /// Overrides model dimension and head count.
    pub fn with_dims(mut self, d_model: usize, num_heads: usize, ff_dim: usize) -> Self {
        self.d_model = d_model;
        self.num_heads = num_heads;
        self.ff_dim = ff_dim;
        self
    }

    /// Flattened observation dimension (`seq_len * token_dim`).
    pub fn obs_dim(&self) -> usize {
        self.seq_len * self.token_dim
    }
}

/// A single-layer Transformer encoder with mean pooling and policy/value
/// heads, processing flattened `(seq_len * token_dim)` observations.
#[derive(Clone, Debug)]
pub struct TransformerPolicy {
    embed: Linear,
    pos: Param,
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ff1: Linear,
    ff_act: Activation,
    ff2: Linear,
    ln2: LayerNorm,
    policy_head: Linear,
    value_head: Linear,
    config: TransformerConfig,
}

impl TransformerPolicy {
    /// Creates a new Transformer policy.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `num_heads` or any dimension
    /// is zero.
    pub fn new(config: &TransformerConfig, rng: &mut impl Rng) -> Self {
        assert!(
            config.seq_len > 0 && config.token_dim > 0,
            "dimensions must be positive"
        );
        Self {
            embed: Linear::new(config.token_dim, config.d_model, rng),
            pos: Param::new(crate::init::random_uniform(
                config.seq_len,
                config.d_model,
                0.02,
                rng,
            )),
            attn: MultiHeadAttention::new(config.d_model, config.num_heads, rng),
            ln1: LayerNorm::new(config.d_model),
            ff1: Linear::new(config.d_model, config.ff_dim, rng),
            ff_act: Activation::new(ActivationKind::Relu),
            ff2: Linear::new(config.ff_dim, config.d_model, rng),
            ln2: LayerNorm::new(config.d_model),
            policy_head: Linear::with_gain(
                config.d_model,
                config.num_actions,
                config.policy_head_gain,
                rng,
            ),
            value_head: Linear::new(config.d_model, 1, rng),
            config: config.clone(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    fn tokens_from_row(&self, row: &[f32]) -> Matrix {
        Matrix::from_vec(self.config.seq_len, self.config.token_dim, row.to_vec())
    }

    /// Forward for one sequence, caching activations for a following
    /// `backward_single` call. Returns `(pooled_logits, value)`.
    fn forward_single(&mut self, row: &[f32]) -> (Vec<f32>, f32) {
        let tokens = self.tokens_from_row(row);
        let mut x = self.embed.forward(&tokens);
        // Add positional embeddings.
        for r in 0..x.rows() {
            let pos_row = self.pos.value.row(r).to_vec();
            for (a, b) in x.row_mut(r).iter_mut().zip(pos_row.iter()) {
                *a += b;
            }
        }
        let attn_out = self.attn.forward(&x);
        let mut res1 = x.clone();
        res1.add_assign(&attn_out);
        let y1 = self.ln1.forward(&res1);
        let ff = self
            .ff2
            .forward(&self.ff_act.forward(&self.ff1.forward(&y1)));
        let mut res2 = y1.clone();
        res2.add_assign(&ff);
        let y2 = self.ln2.forward(&res2);
        // Mean-pool over steps.
        let pooled = Matrix::from_row(&y2.mean_rows());
        let logits = self.policy_head.forward(&pooled);
        let value = self.value_head.forward(&pooled)[(0, 0)];
        (logits.row(0).to_vec(), value)
    }

    /// Forward for one sequence without touching any layer cache — the
    /// same math as [`TransformerPolicy::forward_single`], bit for bit,
    /// usable through `&self` from concurrent rollout lane groups.
    fn forward_single_inference(&self, row: &[f32]) -> (Vec<f32>, f32) {
        let tokens = self.tokens_from_row(row);
        let mut x = self.embed.forward_inference(&tokens);
        // Add positional embeddings.
        for r in 0..x.rows() {
            let pos_row = self.pos.value.row(r);
            for (a, b) in x.row_mut(r).iter_mut().zip(pos_row.iter()) {
                *a += b;
            }
        }
        let attn_out = self.attn.forward_inference(&x);
        let mut res1 = x;
        res1.add_assign(&attn_out);
        let y1 = self.ln1.forward_inference(&res1);
        let ff = self.ff2.forward_inference(
            &self
                .ff_act
                .forward_inference(&self.ff1.forward_inference(&y1)),
        );
        let mut res2 = y1;
        res2.add_assign(&ff);
        let y2 = self.ln2.forward_inference(&res2);
        // Mean-pool over steps.
        let pooled = Matrix::from_row(&y2.mean_rows());
        let logits = self.policy_head.forward_inference(&pooled);
        let value = self.value_head.forward_inference(&pooled)[(0, 0)];
        (logits.row(0).to_vec(), value)
    }

    /// Backward for the sequence last passed to `forward_single`.
    fn backward_single(&mut self, dlogits: &[f32], dvalue: f32) {
        let t = self.config.seq_len as f32;
        let mut dpooled = self.policy_head.backward(&Matrix::from_row(dlogits));
        dpooled.add_assign(&self.value_head.backward(&Matrix::from_row(&[dvalue])));
        // Un-pool: each step receives dpooled / T.
        let mut dy2 = Matrix::zeros(self.config.seq_len, self.config.d_model);
        for r in 0..dy2.rows() {
            for (d, &g) in dy2.row_mut(r).iter_mut().zip(dpooled.row(0).iter()) {
                *d = g / t;
            }
        }
        let dres2 = self.ln2.backward(&dy2);
        // res2 = y1 + ff(y1): gradient flows both through FFN and residual.
        let dff = self
            .ff1
            .backward(&self.ff_act.backward(&self.ff2.backward(&dres2)));
        let mut dy1 = dres2;
        dy1.add_assign(&dff);
        let dres1 = self.ln1.backward(&dy1);
        let dattn = self.attn.backward(&dres1);
        let mut dx = dres1;
        dx.add_assign(&dattn);
        // Positional-embedding gradients.
        for r in 0..dx.rows() {
            let src = dx.row(r).to_vec();
            for (g, &d) in self.pos.grad.row_mut(r).iter_mut().zip(src.iter()) {
                *g += d;
            }
        }
        // The token embedding is the input layer: no `dx` to compute.
        self.embed.backward_params(&dx);
    }
}

impl PolicyValueNet for TransformerPolicy {
    fn forward_inference(&self, obs: &Matrix) -> (Matrix, Vec<f32>) {
        assert_eq!(
            obs.cols(),
            self.config.obs_dim(),
            "observation dim mismatch"
        );
        let mut logits = Matrix::zeros(obs.rows(), self.config.num_actions);
        let mut values = Vec::with_capacity(obs.rows());
        for i in 0..obs.rows() {
            let (l, v) = self.forward_single_inference(obs.row(i));
            logits.row_mut(i).copy_from_slice(&l);
            values.push(v);
        }
        (logits, values)
    }

    fn train_batch(
        &mut self,
        obs: &Matrix,
        grad_fn: &mut dyn FnMut(usize, &[f32], f32) -> (Vec<f32>, f32),
    ) {
        assert_eq!(
            obs.cols(),
            self.config.obs_dim(),
            "observation dim mismatch"
        );
        for i in 0..obs.rows() {
            let (logits, value) = self.forward_single(obs.row(i));
            let (dlogits, dvalue) = grad_fn(i, &logits, value);
            assert_eq!(
                dlogits.len(),
                self.config.num_actions,
                "dlogits length mismatch"
            );
            self.backward_single(&dlogits, dvalue);
        }
    }

    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embed.visit_params(f);
        f(&mut self.pos);
        self.attn.visit_params(f);
        self.ln1.visit_params(f);
        self.ff1.visit_params(f);
        self.ff2.visit_params(f);
        self.ln2.visit_params(f);
        self.policy_head.visit_params(f);
        self.value_head.visit_params(f);
    }

    fn clone_box(&self) -> Box<dyn PolicyValueNet> {
        Box::new(self.clone())
    }

    fn num_params(&self) -> usize {
        self.embed.num_params()
            + self.pos.len()
            + self.attn.num_params()
            + self.ln1.num_params()
            + self.ff1.num_params()
            + self.ff2.num_params()
            + self.ln2.num_params()
            + self.policy_head.num_params()
            + self.value_head.num_params()
    }

    fn num_actions(&self) -> usize {
        self.config.num_actions
    }

    fn obs_dim(&self) -> usize {
        self.config.obs_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    fn tiny_config() -> TransformerConfig {
        TransformerConfig::new(4, 3, 2).with_dims(8, 2, 16)
    }

    #[test]
    fn forward_shapes() {
        let cfg = tiny_config();
        let mut net = TransformerPolicy::new(&cfg, &mut rng());
        let obs = Matrix::zeros(3, cfg.obs_dim());
        let (logits, values) = net.forward(&obs);
        assert_eq!(logits.rows(), 3);
        assert_eq!(logits.cols(), 2);
        assert_eq!(values.len(), 3);
    }

    #[test]
    fn train_batch_gradient_check_embed_weight() {
        let cfg = tiny_config();
        let mut net = TransformerPolicy::new(&cfg, &mut rng());
        let mut obs_rng = rand::rngs::StdRng::seed_from_u64(21);
        let obs = crate::init::random_uniform(2, cfg.obs_dim(), 1.0, &mut obs_rng);
        let w = [0.8f32, -1.2];
        let loss = |net: &mut TransformerPolicy| -> f32 {
            let (logits, values) = net.forward(&obs);
            let mut l = 0.0;
            for i in 0..obs.rows() {
                for a in 0..2 {
                    l += w[a] * logits[(i, a)];
                }
                l += 0.5 * values[i];
            }
            l
        };
        net.zero_grad();
        net.train_batch(&obs, &mut |_, _, _| (w.to_vec(), 0.5));
        let analytic = net.embed.w.grad[(1, 3)];
        let eps = 1e-2;
        let orig = net.embed.w.value[(1, 3)];
        net.embed.w.value[(1, 3)] = orig + eps;
        let lp = loss(&mut net);
        net.embed.w.value[(1, 3)] = orig - eps;
        let lm = loss(&mut net);
        net.embed.w.value[(1, 3)] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn train_batch_gradient_check_pos_embedding() {
        let cfg = tiny_config();
        let mut net = TransformerPolicy::new(&cfg, &mut rng());
        let mut obs_rng = rand::rngs::StdRng::seed_from_u64(22);
        let obs = crate::init::random_uniform(1, cfg.obs_dim(), 1.0, &mut obs_rng);
        let w = [1.0f32, 0.0];
        let loss = |net: &mut TransformerPolicy| -> f32 {
            let (logits, _) = net.forward(&obs);
            logits[(0, 0)]
        };
        net.zero_grad();
        net.train_batch(&obs, &mut |_, _, _| (w.to_vec(), 0.0));
        let analytic = net.pos.grad[(2, 1)];
        let eps = 1e-2;
        let orig = net.pos.value[(2, 1)];
        net.pos.value[(2, 1)] = orig + eps;
        let lp = loss(&mut net);
        net.pos.value[(2, 1)] = orig - eps;
        let lm = loss(&mut net);
        net.pos.value[(2, 1)] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn inference_forward_matches_cached_training_forward_bit_for_bit() {
        // The fused rollout samples actions from `forward_inference`
        // while `train_batch` re-runs the caching `forward_single`; PPO's
        // importance ratios assume both passes see the same policy.
        let cfg = tiny_config();
        let mut net = TransformerPolicy::new(&cfg, &mut rng());
        let mut obs_rng = rand::rngs::StdRng::seed_from_u64(33);
        let obs = crate::init::random_uniform(3, cfg.obs_dim(), 1.0, &mut obs_rng);
        let (logits, values) = net.forward_inference(&obs);
        net.zero_grad();
        net.train_batch(&obs, &mut |i, train_logits, train_value| {
            for (a, b) in logits.row(i).iter().zip(train_logits.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "logits diverge at row {i}");
            }
            assert_eq!(values[i].to_bits(), train_value.to_bits());
            (vec![0.0; cfg.num_actions], 0.0)
        });
    }

    #[test]
    fn paper_sized_config_dimensions() {
        let cfg = TransformerConfig::new(8, 10, 4).paper_sized();
        assert_eq!(cfg.d_model, 128);
        assert_eq!(cfg.num_heads, 8);
        assert_eq!(cfg.ff_dim, 2048);
    }

    #[test]
    fn num_params_positive_and_consistent() {
        let cfg = tiny_config();
        let net = TransformerPolicy::new(&cfg, &mut rng());
        let mut count = 0;
        let mut net2 = net.clone();
        net2.visit_params(&mut |p| count += p.len());
        assert_eq!(count, net.num_params());
    }
}
