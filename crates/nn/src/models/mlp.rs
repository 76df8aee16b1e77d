//! MLP policy/value network.
//!
//! The training pass ([`TrainNet::train_shard`]) allocates nothing once
//! its [`Tape`] has seen a shard this large. The input layer compacts the
//! shard's observation rows straight into the tape's CSR buffer, with no
//! dense gather, and multiplies only their nonzeros. Every other product
//! (each trunk layer's output, the heads' logits and values, the loss
//! gradients and the backward pass's two gradient buffers) goes into a
//! matrix the tape owns, sized on first use. `tanh` and its derivative
//! run in place on those buffers. Each gradient tensor is written once
//! per pass, as the finished product, so a reused tape needs no zeroing
//! and the bits equal adding each product onto zeroed tensors. The input
//! layer's `dW` (observation width × first hidden width) is scattered
//! from the nonzeros only: the tape remembers which of its rows the last
//! pass wrote, and only those are cleared for the next.

use crate::layers::{Activation, ActivationKind, Linear};
use crate::matrix::Matrix;
use crate::models::{train_batch_via_shard, PolicyValueNet, RowGrad, RowLoss, Tape, TrainNet};
use crate::param::Param;
use crate::sparse::{SparseRows, TouchedRows};
use rand::Rng;

/// Configuration for [`MlpPolicy`].
#[derive(Clone, Debug, PartialEq)]
pub struct MlpConfig {
    /// Flattened observation dimension.
    pub obs_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hidden layer widths for the shared trunk.
    pub hidden: Vec<usize>,
    /// Trunk activation.
    pub activation: ActivationKind,
    /// Gain for the policy-head initialization (small values give a
    /// near-uniform initial policy, which helps PPO exploration).
    pub policy_head_gain: f32,
}

impl MlpConfig {
    /// Creates a config with the default trunk (two hidden layers of 128,
    /// tanh), matching common PPO baselines.
    pub fn new(obs_dim: usize, num_actions: usize) -> Self {
        Self {
            obs_dim,
            num_actions,
            hidden: vec![128, 128],
            activation: ActivationKind::Tanh,
            policy_head_gain: 0.01,
        }
    }

    /// Overrides the hidden layer widths.
    pub fn with_hidden(mut self, hidden: Vec<usize>) -> Self {
        self.hidden = hidden;
        self
    }

    /// Overrides the trunk activation.
    pub fn with_activation(mut self, activation: ActivationKind) -> Self {
        self.activation = activation;
        self
    }
}

/// A multi-layer perceptron with a shared trunk, categorical policy head and
/// scalar value head.
#[derive(Clone, Debug)]
pub struct MlpPolicy {
    trunk: Vec<(Linear, Activation)>,
    policy_head: Linear,
    value_head: Linear,
    obs_dim: usize,
    num_actions: usize,
}

impl MlpPolicy {
    /// Creates a new MLP policy with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `config.hidden` is empty or any dimension is zero.
    pub fn new(config: &MlpConfig, rng: &mut impl Rng) -> Self {
        assert!(
            !config.hidden.is_empty(),
            "MLP needs at least one hidden layer"
        );
        assert!(
            config.obs_dim > 0 && config.num_actions > 0,
            "dimensions must be positive"
        );
        let mut trunk = Vec::with_capacity(config.hidden.len());
        let mut in_dim = config.obs_dim;
        for &h in &config.hidden {
            assert!(h > 0, "hidden width must be positive");
            trunk.push((
                Linear::new(in_dim, h, rng),
                Activation::new(config.activation),
            ));
            in_dim = h;
        }
        Self {
            trunk,
            policy_head: Linear::with_gain(
                in_dim,
                config.num_actions,
                config.policy_head_gain,
                rng,
            ),
            value_head: Linear::new(in_dim, 1, rng),
            obs_dim: config.obs_dim,
            num_actions: config.num_actions,
        }
    }

    /// The trunk's inference pass. The input layer multiplies only the
    /// observation's nonzeros ([`Linear::forward_sparse_inference`]).
    fn trunk_forward_inference(&self, obs: &Matrix) -> Matrix {
        let ((input_layer, input_act), hidden) = self.trunk.split_first().expect("non-empty trunk");
        let mut h = input_layer.forward_sparse_inference(obs);
        input_act.forward_in_place(&mut h);
        for (lin, act) in hidden {
            h = lin.forward_inference(&h);
            act.forward_in_place(&mut h);
        }
        h
    }
}

/// What [`MlpPolicy`]'s training pass keeps in a shard's tape (module
/// docs). Every buffer is reshaped in place by the next pass.
#[derive(Debug, Default)]
pub(crate) struct MlpTape {
    /// The shard's observation rows as CSR: the input layer's input.
    csr: SparseRows,
    /// Each trunk layer's activation output: its own derivative's input
    /// and the next layer's input; the last is the features both heads
    /// read.
    hs: Vec<Matrix>,
    logits: Matrix,
    values: Matrix,
    /// The loss gradients the loss closure writes, row by row.
    dlogits: Matrix,
    dvalues: Matrix,
    /// The gradient flowing back through the trunk, and the buffer the
    /// next layer's input gradient is written into before the two swap.
    grad: Matrix,
    grad_next: Matrix,
    /// The rows of the input layer's `dW` in the tape's gradients that
    /// the last pass scattered into: the only ones the next pass zeroes.
    input_rows: TouchedRows,
}

impl MlpTape {
    /// The tape of gradients that are all zero.
    pub(crate) fn zeroed() -> Self {
        Self {
            input_rows: TouchedRows::none(),
            ..Self::default()
        }
    }

    /// The gradients were replaced: the next pass zeroes the whole `dW`.
    pub(crate) fn forget_grads(&mut self) {
        self.input_rows.forget();
    }
}

impl PolicyValueNet for MlpPolicy {
    fn forward_inference(&self, obs: &Matrix) -> (Matrix, Vec<f32>) {
        assert_eq!(obs.cols(), self.obs_dim, "observation dim mismatch");
        let features = self.trunk_forward_inference(obs);
        let logits = self.policy_head.forward_inference(&features);
        let values = self.value_head.forward_inference(&features).into_vec();
        (logits, values)
    }

    fn train_batch(
        &mut self,
        obs: &Matrix,
        grad_fn: &mut dyn FnMut(usize, &[f32], f32) -> RowGrad,
    ) {
        train_batch_via_shard(self, obs, grad_fn);
    }

    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for (lin, _) in &mut self.trunk {
            lin.visit_params(f);
        }
        self.policy_head.visit_params(f);
        self.value_head.visit_params(f);
    }

    fn clone_box(&self) -> Box<dyn PolicyValueNet> {
        Box::new(self.clone())
    }

    fn num_params(&self) -> usize {
        let trunk: usize = self.trunk.iter().map(|(l, _)| l.num_params()).sum();
        trunk + self.policy_head.num_params() + self.value_head.num_params()
    }

    fn num_actions(&self) -> usize {
        self.num_actions
    }

    fn obs_dim(&self) -> usize {
        self.obs_dim
    }
}

impl TrainNet for MlpPolicy {
    fn train_shard(&self, tape: &mut Tape, obs: &Matrix, rows: &[usize], loss: &mut RowLoss) {
        assert_eq!(obs.cols(), self.obs_dim, "observation dim mismatch");
        let Tape {
            grads,
            mlp:
                MlpTape {
                    csr,
                    hs,
                    logits,
                    values,
                    dlogits,
                    dvalues,
                    grad,
                    grad_next,
                    input_rows,
                },
            ..
        } = tape;
        let ((input_layer, input_act), hidden) = self.trunk.split_first().expect("non-empty trunk");
        hs.resize_with(self.trunk.len(), Matrix::default);
        csr.compact_rows(obs, rows);
        input_layer.forward_into(&*csr, &mut hs[0]);
        input_act.forward_in_place(&mut hs[0]);
        for (i, (lin, act)) in hidden.iter().enumerate() {
            let (inputs, outputs) = hs.split_at_mut(i + 1);
            lin.forward_into(&inputs[i], &mut outputs[0]);
            act.forward_in_place(&mut outputs[0]);
        }
        let features = &hs[hidden.len()];
        self.policy_head.forward_into(features, logits);
        self.value_head.forward_into(features, values);
        // The loss writes every element of both (the `RowLoss` contract).
        let batch = rows.len();
        dlogits.set_shape(batch, self.num_actions);
        dvalues.set_shape(batch, 1);
        for i in 0..batch {
            dvalues[(i, 0)] = loss(i, logits.row(i), values[(i, 0)], dlogits.row_mut(i));
        }
        // Two gradient tensors per `Linear`: the trunk's, then the heads'.
        let (trunk_grads, head_grads) = grads.split_at_mut(2 * self.trunk.len());
        let (policy_grads, value_grads) = head_grads.split_at_mut(2);
        self.policy_head
            .backward_into(features, dlogits, policy_grads, grad);
        self.value_head
            .backward_into(features, dvalues, value_grads, grad_next);
        grad.add_assign(grad_next);
        let mut layer_grads = trunk_grads.chunks_exact_mut(2).rev();
        for (i, (lin, act)) in hidden.iter().enumerate().rev() {
            act.backward_in_place(&hs[i + 1], grad);
            let layer = layer_grads.next().expect("a pair per layer");
            lin.backward_into(&hs[i], grad, layer, grad_next);
            std::mem::swap(grad, grad_next);
        }
        // Nothing reads the observation's gradient: skip the input
        // layer's `dx` product. Its `dW` is zeroed only where the last
        // pass scattered (see `input_rows`) before this pass scatters.
        input_act.backward_in_place(&hs[0], grad);
        let [dw, db] = layer_grads.next().expect("a pair per layer") else {
            unreachable!("chunks of two")
        };
        csr.matmul_tn_into_touched(grad, dw, input_rows);
        grad.sum_rows_into(db.as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    #[test]
    fn forward_shapes() {
        let net = MlpPolicy::new(&MlpConfig::new(6, 3), &mut rng());
        let obs = Matrix::zeros(4, 6);
        let (logits, values) = net.forward_inference(&obs);
        assert_eq!(logits.rows(), 4);
        assert_eq!(logits.cols(), 3);
        assert_eq!(values.len(), 4);
    }

    #[test]
    fn initial_policy_is_near_uniform() {
        let net = MlpPolicy::new(&MlpConfig::new(6, 4), &mut rng());
        let obs = Matrix::full(1, 6, 0.5);
        let (logits, _) = net.forward_inference(&obs);
        let probs = logits.softmax_rows();
        for &p in probs.row(0) {
            assert!((p - 0.25).abs() < 0.05, "prob {p} far from uniform");
        }
    }

    #[test]
    fn train_batch_gradient_check() {
        // L = sum_i (sum_a w_a * logit_{i,a} + value_i); check dL/dobs via
        // the trunk by perturbing a weight of the first layer.
        let cfg = MlpConfig::new(3, 2).with_hidden(vec![8]);
        let mut net = MlpPolicy::new(&cfg, &mut rng());
        let obs = Matrix::from_rows(&[&[0.3, -0.5, 0.8], &[1.0, 0.2, -0.4]]);
        let w = [1.5f32, -0.7];
        let loss = |net: &mut MlpPolicy| -> f32 {
            let (logits, values) = net.forward_inference(&obs);
            let mut l = 0.0;
            for i in 0..2 {
                for a in 0..2 {
                    l += w[a] * logits[(i, a)];
                }
                l += values[i];
            }
            l
        };
        net.zero_grad();
        net.train_batch(&obs, &mut |_, _, _| (w.to_vec(), 1.0));
        let analytic = net.trunk[0].0.w.grad[(1, 3)];
        let eps = 1e-3;
        let orig = net.trunk[0].0.w.value[(1, 3)];
        net.trunk[0].0.w.value[(1, 3)] = orig + eps;
        let lp = loss(&mut net);
        net.trunk[0].0.w.value[(1, 3)] = orig - eps;
        let lm = loss(&mut net);
        net.trunk[0].0.w.value[(1, 3)] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 2e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn num_params_counts_everything() {
        let cfg = MlpConfig::new(4, 3).with_hidden(vec![8, 8]);
        let net = MlpPolicy::new(&cfg, &mut rng());
        // (4*8+8) + (8*8+8) + (8*3+3) + (8*1+1) = 40+72+27+9 = 148
        assert_eq!(net.num_params(), 148);
    }

    #[test]
    #[should_panic(expected = "at least one hidden layer")]
    fn empty_hidden_panics() {
        let cfg = MlpConfig::new(4, 2).with_hidden(vec![]);
        let _ = MlpPolicy::new(&cfg, &mut rng());
    }

    /// The gradients `train_batch` must give from zero, computed with the
    /// dense forward and the full `backward` (input gradient included) on
    /// every layer: the reference for the sparse input layer and its
    /// parameter-only backward.
    fn reference_grad_bits(
        net: &mut MlpPolicy,
        obs: &Matrix,
        dl: &Matrix,
        dv: &Matrix,
    ) -> Vec<u32> {
        let mut grads = Tape::for_net(net).grads;
        let mut hs = vec![obs.clone()];
        for (lin, act) in &net.trunk {
            let mut h = lin.forward_inference(&hs[hs.len() - 1]);
            act.forward_in_place(&mut h);
            hs.push(h);
        }
        let features = &hs[net.trunk.len()];
        let (trunk_grads, head_grads) = grads.split_at_mut(2 * net.trunk.len());
        let (policy_grads, value_grads) = head_grads.split_at_mut(2);
        let mut grad = net.policy_head.backward(features, dl, policy_grads);
        grad.add_assign(&net.value_head.backward(features, dv, value_grads));
        let layers = net.trunk.iter().zip(trunk_grads.chunks_exact_mut(2));
        for (i, ((lin, act), g)) in layers.enumerate().rev() {
            act.backward_in_place(&hs[i + 1], &mut grad);
            grad = lin.backward(&hs[i], &grad, g);
        }
        grads
            .iter()
            .flat_map(|g| g.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn grad_bits(net: &mut MlpPolicy) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_params(&mut |p| bits.extend(p.grad.as_slice().iter().map(|g| g.to_bits())));
        bits
    }

    #[test]
    fn train_batch_gradients_match_the_full_backward_bit_for_bit() {
        for activation in [ActivationKind::Tanh, ActivationKind::Relu] {
            for hidden in [vec![7], vec![16, 9]] {
                let cfg = MlpConfig::new(6, 3)
                    .with_hidden(hidden)
                    .with_activation(activation);
                let mut net = MlpPolicy::new(&cfg, &mut rng());
                // Sparse one-hot rows and dense rows, like the cache
                // observations and hidden activations.
                let obs = Matrix::from_rows(&[
                    &[0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                    &[0.4, -1.2, 2.5, 0.0, -0.3, 0.9],
                    &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    &[-2.0, 0.7, 0.1, 3.3, -0.6, 0.0],
                ]);
                let dl = Matrix::from_rows(&[
                    &[0.5, -0.25, 1.0],
                    &[-1.5, 0.75, 0.1],
                    &[0.0, 2.0, -0.3],
                    &[0.9, -0.4, 0.05],
                ]);
                let dv = Matrix::from_vec(4, 1, vec![0.3, -1.1, 2.0, 0.0]);
                let expected = reference_grad_bits(&mut net, &obs, &dl, &dv);
                net.train_batch(&obs, &mut |i, _, _| (dl.row(i).to_vec(), dv[(i, 0)]));
                assert_eq!(grad_bits(&mut net), expected);
            }
        }
    }
}
