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
    cache: Option<AttnCache>,
}

#[derive(Clone, Debug)]
struct AttnCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head attention weight matrices, each `(seq_len, seq_len)`.
    attn: Vec<Matrix>,
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
            cache: None,
        }
    }

    /// Model dimension.
    pub fn d_model(&self) -> usize {
        self.num_heads * self.head_dim
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
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

    /// Shared attention compute for one projected `(q, k, v)` triple:
    /// per-head scaled-dot-product attention, heads concatenated. Returns
    /// the concatenated head outputs and the per-head attention weights.
    fn attend(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> (Matrix, Vec<Matrix>) {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let seq_len = q.rows();
        let mut concat = Matrix::zeros(seq_len, self.d_model());
        let mut attn_per_head = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let qh = self.slice_head(q, h);
            let kh = self.slice_head(k, h);
            let vh = self.slice_head(v, h);
            let mut scores = qh.matmul_nt(&kh);
            scores.scale(scale);
            let attn = scores.softmax_rows();
            let out_h = attn.matmul(&vh);
            self.scatter_head(&mut concat, &out_h, h);
            attn_per_head.push(attn);
        }
        (concat, attn_per_head)
    }

    /// Forward pass for one sequence `x: (seq_len, d_model)`, caching
    /// activations for a following [`MultiHeadAttention::backward`].
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let (concat, attn_per_head) = self.attend(&q, &k, &v);
        self.cache = Some(AttnCache {
            q,
            k,
            v,
            attn: attn_per_head,
        });
        self.wo.forward(&concat)
    }

    /// Forward pass without caching (inference only). Same math as
    /// [`MultiHeadAttention::forward`], bit for bit.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let q = self.wq.forward_inference(x);
        let k = self.wk.forward_inference(x);
        let v = self.wv.forward_inference(x);
        let (concat, _) = self.attend(&q, &k, &v);
        self.wo.forward_inference(&concat)
    }

    /// Backward pass for the sequence last passed to `forward`.
    ///
    /// Returns `dx` of shape `(seq_len, d_model)` and accumulates parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let d_concat = self.wo.backward(dy);
        let cache = self
            .cache
            .take()
            .expect("MultiHeadAttention::backward called before forward");
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let seq_len = d_concat.rows();
        let d_model = self.d_model();
        let mut dq = Matrix::zeros(seq_len, d_model);
        let mut dk = Matrix::zeros(seq_len, d_model);
        let mut dv = Matrix::zeros(seq_len, d_model);
        for h in 0..self.num_heads {
            let d_out_h = self.slice_head(&d_concat, h);
            let qh = self.slice_head(&cache.q, h);
            let kh = self.slice_head(&cache.k, h);
            let vh = self.slice_head(&cache.v, h);
            let attn = &cache.attn[h];
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
        let mut dx = self.wq.backward(&dq);
        dx.add_assign(&self.wk.backward(&dk));
        dx.add_assign(&self.wv.backward(&dv));
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

    #[test]
    fn output_shape_matches_input() {
        let mut mha = MultiHeadAttention::new(8, 2, &mut rng());
        let x = Matrix::full(5, 8, 0.1);
        let y = mha.forward(&x);
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 8);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let mut mha = MultiHeadAttention::new(4, 2, &mut rng());
        let x = Matrix::from_rows(&[&[1.0, 0.0, -1.0, 0.5], &[0.2, 0.3, 0.1, -0.2]]);
        mha.forward(&x);
        let cache = mha.cache.as_ref().unwrap();
        for attn in &cache.attn {
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
        let loss = |mha: &mut MultiHeadAttention, x: &Matrix| -> f32 {
            let y = mha.forward(x);
            y.as_slice()
                .iter()
                .zip(w.as_slice().iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        loss(&mut mha, &x);
        let dx = mha.backward(&w);
        let eps = 1e-3;
        for &(r, c) in &[(0usize, 0usize), (1, 2), (2, 3)] {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            let numeric = (loss(&mut mha, &xp) - loss(&mut mha, &xm)) / (2.0 * eps);
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
        let loss = |mha: &mut MultiHeadAttention, x: &Matrix| -> f32 {
            let y = mha.forward(x);
            y.as_slice()
                .iter()
                .zip(w.as_slice().iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        loss(&mut mha, &x);
        mha.backward(&w);
        let analytic_q = mha.wq.w.grad[(1, 2)];
        let analytic_o = mha.wo.w.grad[(3, 0)];
        let eps = 1e-3;
        let orig = mha.wq.w.value[(1, 2)];
        mha.wq.w.value[(1, 2)] = orig + eps;
        let lp = loss(&mut mha, &x);
        mha.wq.w.value[(1, 2)] = orig - eps;
        let lm = loss(&mut mha, &x);
        mha.wq.w.value[(1, 2)] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic_q).abs() < 3e-2,
            "dWq: numeric {numeric} vs analytic {analytic_q}"
        );
        let orig = mha.wo.w.value[(3, 0)];
        mha.wo.w.value[(3, 0)] = orig + eps;
        let lp = loss(&mut mha, &x);
        mha.wo.w.value[(3, 0)] = orig - eps;
        let lm = loss(&mut mha, &x);
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
