//! Multi-head self-attention over a single sequence.

use crate::layers::Linear;
use crate::matrix::Matrix;
use crate::param::Param;
use rand::Rng;

/// Multi-head self-attention for one sequence of shape `(seq_len, d_model)`.
///
/// The AutoCAT Transformer backbone (Sec. IV-C) uses a single encoder layer;
/// sequences here are short action/observation histories (the RL window), so
/// this implementation processes one sequence per forward/backward pair and
/// the model loops over a batch, accumulating parameter gradients.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    num_heads: usize,
    head_dim: usize,
}

/// What [`MultiHeadAttention::forward`] keeps for the backward pass (the
/// caller keeps the input `x`).
#[derive(Clone, Debug, Default)]
pub struct AttentionTape {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head attention weight matrices, each `(seq_len, seq_len)`.
    attn: Vec<Matrix>,
    /// The concatenated head outputs, `wo`'s input.
    concat: Matrix,
}

impl MultiHeadAttention {
    /// Creates a multi-head self-attention layer.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `num_heads`.
    pub fn new(d_model: usize, num_heads: usize, rng: &mut impl Rng) -> Self {
        assert!(
            d_model.is_multiple_of(num_heads),
            "d_model {} not divisible by num_heads {}",
            d_model,
            num_heads
        );
        Self {
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            num_heads,
            head_dim: d_model / num_heads,
        }
    }

    /// Model dimension.
    pub fn d_model(&self) -> usize {
        self.num_heads * self.head_dim
    }

    fn head_cols(&self, h: usize) -> std::ops::Range<usize> {
        h * self.head_dim..(h + 1) * self.head_dim
    }

    fn slice_head(&self, m: &Matrix, h: usize) -> Matrix {
        let range = self.head_cols(h);
        let mut out = Matrix::zeros(m.rows(), self.head_dim);
        for r in 0..m.rows() {
            out.row_mut(r).copy_from_slice(&m.row(r)[range.clone()]);
        }
        out
    }

    fn scatter_head(&self, dst: &mut Matrix, src: &Matrix, h: usize) {
        let range = self.head_cols(h);
        for r in 0..src.rows() {
            dst.row_mut(r)[range.clone()].copy_from_slice(src.row(r));
        }
    }

    /// Forward pass for one sequence `x: (seq_len, d_model)`: per-head
    /// scaled-dot-product attention, heads concatenated, then the output
    /// projection, keeping in `tape` what the backward pass reads.
    pub fn forward(&self, x: &Matrix, tape: &mut AttentionTape) -> Matrix {
        let q = self.wq.forward_inference(x);
        let k = self.wk.forward_inference(x);
        let v = self.wv.forward_inference(x);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let seq_len = q.rows();
        let mut concat = Matrix::zeros(seq_len, self.d_model());
        let mut attn = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let qh = self.slice_head(&q, h);
            let kh = self.slice_head(&k, h);
            let vh = self.slice_head(&v, h);
            let mut scores = qh.matmul_nt(&kh);
            scores.scale(scale);
            let weights = scores.softmax_rows();
            let out_h = weights.matmul(&vh);
            self.scatter_head(&mut concat, &out_h, h);
            attn.push(weights);
        }
        let y = self.wo.forward_inference(&concat);
        *tape = AttentionTape {
            q,
            k,
            v,
            attn,
            concat,
        };
        y
    }

    /// Backward pass for the sequence `x` whose forward wrote `tape`.
    ///
    /// Returns `dx` of shape `(seq_len, d_model)` and accumulates parameter
    /// gradients into `grads` (the layer's eight tensors in
    /// [`MultiHeadAttention::visit_params`] order).
    ///
    /// # Panics
    ///
    /// Panics unless `grads` holds exactly eight tensors.
    pub fn backward(
        &self,
        x: &Matrix,
        tape: &AttentionTape,
        dy: &Matrix,
        grads: &mut [Matrix],
    ) -> Matrix {
        let len = grads.len();
        let ([gq, gk, gv, go], []) = grads.as_chunks_mut::<2>() else {
            panic!("attention has 8 gradient tensors, got {len}");
        };
        let d_concat = self.wo.backward(&tape.concat, dy, go);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let seq_len = d_concat.rows();
        let d_model = self.d_model();
        let mut dq = Matrix::zeros(seq_len, d_model);
        let mut dk = Matrix::zeros(seq_len, d_model);
        let mut dv = Matrix::zeros(seq_len, d_model);
        for h in 0..self.num_heads {
            let d_out_h = self.slice_head(&d_concat, h);
            let qh = self.slice_head(&tape.q, h);
            let kh = self.slice_head(&tape.k, h);
            let vh = self.slice_head(&tape.v, h);
            let attn = &tape.attn[h];
            // dV_h = attn^T d_out_h
            let dvh = attn.matmul_tn(&d_out_h);
            // d_attn = d_out_h V_h^T
            let d_attn = d_out_h.matmul_nt(&vh);
            // Softmax backward (row-wise): ds = a * (da - sum(da * a))
            let mut d_scores = Matrix::zeros(seq_len, seq_len);
            for r in 0..seq_len {
                let a_row = attn.row(r);
                let da_row = d_attn.row(r);
                let dot: f32 = a_row.iter().zip(da_row.iter()).map(|(a, d)| a * d).sum();
                for c in 0..seq_len {
                    d_scores[(r, c)] = a_row[c] * (da_row[c] - dot);
                }
            }
            d_scores.scale(scale);
            // dQ_h = d_scores K_h ; dK_h = d_scores^T Q_h
            let dqh = d_scores.matmul(&kh);
            let dkh = d_scores.matmul_tn(&qh);
            self.scatter_head(&mut dq, &dqh, h);
            self.scatter_head(&mut dk, &dkh, h);
            self.scatter_head(&mut dv, &dvh, h);
        }
        let mut dx = self.wq.backward(x, &dq, gq);
        dx.add_assign(&self.wk.backward(x, &dk, gk));
        dx.add_assign(&self.wv.backward(x, &dv, gv));
        dx
    }

    /// Visits all parameters mutably (for the optimizer).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.wq.num_params() + self.wk.num_params() + self.wv.num_params() + self.wo.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    /// Zeroed gradient tensors for `mha`, in `visit_params` order.
    fn zero_grads(mha: &mut MultiHeadAttention) -> Vec<Matrix> {
        let mut grads = Vec::new();
        mha.visit_params(&mut |p| grads.push(Matrix::zeros(p.value.rows(), p.value.cols())));
        grads
    }

    /// A training forward then backward of `dy`: `(dx, grads)`.
    fn forward_backward(
        mha: &mut MultiHeadAttention,
        x: &Matrix,
        dy: &Matrix,
    ) -> (Matrix, Vec<Matrix>) {
        let mut tape = AttentionTape::default();
        mha.forward(x, &mut tape);
        let mut grads = zero_grads(mha);
        let dx = mha.backward(x, &tape, dy, &mut grads);
        (dx, grads)
    }

    #[test]
    fn output_shape_matches_input() {
        let mha = MultiHeadAttention::new(8, 2, &mut rng());
        let x = Matrix::full(5, 8, 0.1);
        let y = mha.forward(&x, &mut AttentionTape::default());
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 8);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let mha = MultiHeadAttention::new(4, 2, &mut rng());
        let x = Matrix::from_rows(&[&[1.0, 0.0, -1.0, 0.5], &[0.2, 0.3, 0.1, -0.2]]);
        let mut tape = AttentionTape::default();
        mha.forward(&x, &mut tape);
        assert_eq!(tape.attn.len(), 2);
        for attn in &tape.attn {
            for r in 0..attn.rows() {
                let s: f32 = attn.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut mha = MultiHeadAttention::new(4, 2, &mut rng());
        let x = Matrix::from_rows(&[
            &[0.5, -0.2, 0.1, 0.3],
            &[-0.4, 0.6, 0.0, -0.1],
            &[0.2, 0.2, -0.3, 0.4],
        ]);
        // Loss = weighted sum of outputs.
        let w = Matrix::from_rows(&[
            &[1.0, -1.0, 0.5, 2.0],
            &[0.3, 0.7, -0.2, 1.1],
            &[-0.6, 0.4, 0.9, -1.2],
        ]);
        let loss = |mha: &MultiHeadAttention, x: &Matrix| -> f32 {
            let y = mha.forward(x, &mut AttentionTape::default());
            y.as_slice()
                .iter()
                .zip(w.as_slice().iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let (dx, _) = forward_backward(&mut mha, &x, &w);
        let eps = 1e-3;
        for &(r, c) in &[(0usize, 0usize), (1, 2), (2, 3)] {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            let numeric = (loss(&mha, &xp) - loss(&mha, &xm)) / (2.0 * eps);
            assert!(
                (numeric - dx[(r, c)]).abs() < 3e-2,
                "dx[{r},{c}]: numeric {numeric} vs analytic {}",
                dx[(r, c)]
            );
        }
    }

    #[test]
    fn gradient_check_weights() {
        let mut mha = MultiHeadAttention::new(4, 1, &mut rng());
        let x = Matrix::from_rows(&[&[0.5, -0.2, 0.1, 0.3], &[-0.4, 0.6, 0.0, -0.1]]);
        let w = Matrix::from_rows(&[&[1.0, -1.0, 0.5, 2.0], &[0.3, 0.7, -0.2, 1.1]]);
        let loss = |mha: &MultiHeadAttention, x: &Matrix| -> f32 {
            let y = mha.forward(x, &mut AttentionTape::default());
            y.as_slice()
                .iter()
                .zip(w.as_slice().iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let (_, grads) = forward_backward(&mut mha, &x, &w);
        // `wq.w` is tensor 0 and `wo.w` tensor 6 of the walk.
        let analytic_q = grads[0][(1, 2)];
        let analytic_o = grads[6][(3, 0)];
        let eps = 1e-3;
        let orig = mha.wq.w.value[(1, 2)];
        mha.wq.w.value[(1, 2)] = orig + eps;
        let lp = loss(&mha, &x);
        mha.wq.w.value[(1, 2)] = orig - eps;
        let lm = loss(&mha, &x);
        mha.wq.w.value[(1, 2)] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic_q).abs() < 3e-2,
            "dWq: numeric {numeric} vs analytic {analytic_q}"
        );
        let orig = mha.wo.w.value[(3, 0)];
        mha.wo.w.value[(3, 0)] = orig + eps;
        let lp = loss(&mha, &x);
        mha.wo.w.value[(3, 0)] = orig - eps;
        let lm = loss(&mha, &x);
        mha.wo.w.value[(3, 0)] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic_o).abs() < 3e-2,
            "dWo: numeric {numeric} vs analytic {analytic_o}"
        );
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_heads_panics() {
        let _ = MultiHeadAttention::new(6, 4, &mut rng());
    }
}
