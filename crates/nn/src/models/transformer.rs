//! Transformer-encoder policy/value network (paper Sec. IV-C).
//!
//! The paper uses a BERT-style encoder: per-step tokens, one encoder layer
//! with multi-head self-attention, average pooling over steps to produce a
//! sequence embedding, then policy/value heads. This module reproduces that
//! structure with configurable (smaller) dimensions so CPU training stays
//! tractable.

use crate::layers::{
    Activation, ActivationKind, AttentionTape, LayerNorm, LayerNormTape, Linear, MultiHeadAttention,
};
use crate::matrix::Matrix;
use crate::models::{row_loss, PolicyValueNet, RowGrad, RowLoss, Tape, TrainNet};
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

    /// Forward for one sequence: `(logits, value)`, keeping in `tape` what
    /// [`TransformerPolicy::backward_single`] reads (inference passes a
    /// scratch tape).
    fn forward_single(&self, row: &[f32], tape: &mut TransformerTape) -> (Vec<f32>, f32) {
        let tokens = self.tokens_from_row(row);
        let mut x = self.embed.forward_inference(&tokens);
        // Add positional embeddings.
        for r in 0..x.rows() {
            let pos_row = self.pos.value.row(r);
            for (a, b) in x.row_mut(r).iter_mut().zip(pos_row.iter()) {
                *a += b;
            }
        }
        let attn_out = self.attn.forward(&x, &mut tape.attn);
        let mut res1 = x.clone();
        res1.add_assign(&attn_out);
        let y1 = self.ln1.forward(&res1, &mut tape.ln1);
        let mut a = self.ff1.forward_inference(&y1);
        self.ff_act.forward_in_place(&mut a);
        let ff = self.ff2.forward_inference(&a);
        let mut res2 = y1.clone();
        res2.add_assign(&ff);
        let y2 = self.ln2.forward(&res2, &mut tape.ln2);
        // Mean-pool over steps.
        let pooled = Matrix::from_row(&y2.mean_rows());
        let logits = self.policy_head.forward_inference(&pooled);
        let value = self.value_head.forward_inference(&pooled)[(0, 0)];
        (tape.tokens, tape.x, tape.y1, tape.a, tape.pooled) = (tokens, x, y1, a, pooled);
        (logits.row(0).to_vec(), value)
    }

    /// Backward for the sequence whose forward wrote `tape`, accumulating
    /// into `grads` (one tensor per parameter, in `visit_params` order).
    fn backward_single(
        &self,
        tape: &TransformerTape,
        grads: &mut [Matrix],
        dlogits: &[f32],
        dvalue: f32,
    ) {
        let mut grads = grads;
        let mut next = |n: usize| {
            grads
                .split_off_mut(..n)
                .expect("one gradient tensor per parameter")
        };
        let (g_embed, g_pos, g_attn, g_ln1) = (next(2), next(1), next(8), next(2));
        let (g_ff1, g_ff2, g_ln2, g_policy, g_value) =
            (next(2), next(2), next(2), next(2), next(2));
        let t = self.config.seq_len as f32;
        let pooled = &tape.pooled;
        let mut dpooled = self
            .policy_head
            .backward(pooled, &Matrix::from_row(dlogits), g_policy);
        dpooled.add_assign(&self.value_head.backward(
            pooled,
            &Matrix::from_row(&[dvalue]),
            g_value,
        ));
        // Un-pool: each step receives dpooled / T.
        let mut dy2 = Matrix::zeros(self.config.seq_len, self.config.d_model);
        for r in 0..dy2.rows() {
            for (d, &g) in dy2.row_mut(r).iter_mut().zip(dpooled.row(0).iter()) {
                *d = g / t;
            }
        }
        let dres2 = self.ln2.backward(&tape.ln2, &dy2, g_ln2);
        // res2 = y1 + ff(y1): gradient flows both through FFN and residual.
        let mut da = self.ff2.backward(&tape.a, &dres2, g_ff2);
        self.ff_act.backward_in_place(&tape.a, &mut da);
        let dff = self.ff1.backward(&tape.y1, &da, g_ff1);
        let mut dy1 = dres2;
        dy1.add_assign(&dff);
        let dres1 = self.ln1.backward(&tape.ln1, &dy1, g_ln1);
        let dattn = self.attn.backward(&tape.x, &tape.attn, &dres1, g_attn);
        let mut dx = dres1;
        dx.add_assign(&dattn);
        // Positional-embedding gradients.
        for r in 0..dx.rows() {
            for (g, &d) in g_pos[0].row_mut(r).iter_mut().zip(dx.row(r)) {
                *g += d;
            }
        }
        // The token embedding is the input layer: no `dx` to compute.
        self.embed.backward_params(&tape.tokens, &dx, g_embed);
    }

    /// Trains the rows of `obs` that `rows` selects one sequence at a
    /// time (the [`TrainNet::train_shard`] protocol), each backward pass
    /// adding onto what `tape.grads` holds.
    fn accumulate_rows(&self, tape: &mut Tape, obs: &Matrix, rows: &[usize], loss: &mut RowLoss) {
        assert_eq!(
            obs.cols(),
            self.config.obs_dim(),
            "observation dim mismatch"
        );
        let mut dlogits = vec![0.0; self.config.num_actions];
        for (i, &row) in rows.iter().enumerate() {
            let (logits, value) = self.forward_single(obs.row(row), &mut tape.transformer);
            let dvalue = loss(i, &logits, value, &mut dlogits);
            self.backward_single(&tape.transformer, &mut tape.grads, &dlogits, dvalue);
        }
    }
}

/// What [`TransformerPolicy`]'s training forward keeps for the backward
/// pass of one sequence.
#[derive(Debug, Default)]
pub(crate) struct TransformerTape {
    /// The `(seq_len, token_dim)` tokens, the embedding's input.
    tokens: Matrix,
    /// Embedded tokens plus positions, the attention's input.
    x: Matrix,
    attn: AttentionTape,
    ln1: LayerNormTape,
    /// The first layer norm's output, `ff1`'s input.
    y1: Matrix,
    /// The feed-forward activation's output, `ff2`'s input.
    a: Matrix,
    ln2: LayerNormTape,
    /// The mean-pooled sequence, both heads' input.
    pooled: Matrix,
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
        let mut scratch = TransformerTape::default();
        for i in 0..obs.rows() {
            let (l, v) = self.forward_single(obs.row(i), &mut scratch);
            logits.row_mut(i).copy_from_slice(&l);
            values.push(v);
        }
        (logits, values)
    }

    /// Every row's backward pass adds onto the `Param::grad`s in turn:
    /// they move into a tape for the pass and back after it.
    fn train_batch(
        &mut self,
        obs: &Matrix,
        grad_fn: &mut dyn FnMut(usize, &[f32], f32) -> RowGrad,
    ) {
        let mut tape = Tape::default();
        self.visit_params(&mut |p| tape.grads.push(std::mem::take(&mut p.grad)));
        let rows: Vec<usize> = (0..obs.rows()).collect();
        self.accumulate_rows(&mut tape, obs, &rows, &mut row_loss(grad_fn));
        tape.swap_grads(self);
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

impl TrainNet for TransformerPolicy {
    fn train_shard(&self, tape: &mut Tape, obs: &Matrix, rows: &[usize], loss: &mut RowLoss) {
        tape.grads.iter_mut().for_each(Matrix::fill_zero);
        self.accumulate_rows(tape, obs, rows, loss);
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
        let net = TransformerPolicy::new(&cfg, &mut rng());
        let obs = Matrix::zeros(3, cfg.obs_dim());
        let (logits, values) = net.forward_inference(&obs);
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
            let (logits, values) = net.forward_inference(&obs);
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
            let (logits, _) = net.forward_inference(&obs);
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
