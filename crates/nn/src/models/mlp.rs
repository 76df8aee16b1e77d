//! MLP policy/value network.

use crate::layers::{Activation, ActivationKind, Linear};
use crate::matrix::Matrix;
use crate::models::PolicyValueNet;
use crate::param::Param;
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
        let mut h = input_act.forward_inference(&input_layer.forward_sparse_inference(obs));
        for (lin, act) in hidden {
            h = act.forward_inference(&lin.forward_inference(&h));
        }
        h
    }

    /// The trunk's training pass; the input layer caches the observation's
    /// CSR compaction ([`Linear::forward_sparse`]) for its backward.
    fn trunk_forward_train(&mut self, obs: &Matrix) -> Matrix {
        let ((input_layer, input_act), hidden) =
            self.trunk.split_first_mut().expect("non-empty trunk");
        let mut h = input_act.forward(&input_layer.forward_sparse(obs));
        for (lin, act) in hidden {
            h = act.forward(&lin.forward(&h));
        }
        h
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
        grad_fn: &mut dyn FnMut(usize, &[f32], f32) -> (Vec<f32>, f32),
    ) {
        assert_eq!(obs.cols(), self.obs_dim, "observation dim mismatch");
        let features = self.trunk_forward_train(obs);
        let logits = self.policy_head.forward(&features);
        let values = self.value_head.forward(&features);
        let batch = obs.rows();
        let mut dlogits = Matrix::zeros(batch, self.num_actions);
        let mut dvalues = Matrix::zeros(batch, 1);
        for i in 0..batch {
            let (dl, dv) = grad_fn(i, logits.row(i), values[(i, 0)]);
            assert_eq!(dl.len(), self.num_actions, "dlogits length mismatch");
            dlogits.row_mut(i).copy_from_slice(&dl);
            dvalues[(i, 0)] = dv;
        }
        let mut dfeat = self.policy_head.backward(&dlogits);
        dfeat.add_assign(&self.value_head.backward(&dvalues));
        let mut grad = dfeat;
        let (input_layer, hidden) = self.trunk.split_first_mut().expect("non-empty trunk");
        for (lin, act) in hidden.iter_mut().rev() {
            grad = lin.backward(&act.backward(&grad));
        }
        // Nothing reads the observation's gradient: skip the input
        // layer's `dx` product.
        let (lin, act) = input_layer;
        lin.backward_params(&act.backward(&grad));
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    #[test]
    fn forward_shapes() {
        let mut net = MlpPolicy::new(&MlpConfig::new(6, 3), &mut rng());
        let obs = Matrix::zeros(4, 6);
        let (logits, values) = net.forward(&obs);
        assert_eq!(logits.rows(), 4);
        assert_eq!(logits.cols(), 3);
        assert_eq!(values.len(), 4);
    }

    #[test]
    fn initial_policy_is_near_uniform() {
        let mut net = MlpPolicy::new(&MlpConfig::new(6, 4), &mut rng());
        let obs = Matrix::full(1, 6, 0.5);
        let (logits, _) = net.forward(&obs);
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
            let (logits, values) = net.forward(&obs);
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

    /// `train_batch` as it would run with the dense forward and the full
    /// `backward` (input gradient included) on every layer: the reference
    /// for the sparse input layer and its parameter-only backward.
    fn reference_train_batch(net: &mut MlpPolicy, obs: &Matrix, dl: &Matrix, dv: &Matrix) {
        let mut features = obs.clone();
        for (lin, act) in &mut net.trunk {
            features = act.forward(&lin.forward(&features));
        }
        net.policy_head.forward(&features);
        net.value_head.forward(&features);
        let mut grad = net.policy_head.backward(dl);
        grad.add_assign(&net.value_head.backward(dv));
        for (lin, act) in net.trunk.iter_mut().rev() {
            grad = lin.backward(&act.backward(&grad));
        }
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
                let mut reference = net.clone();
                net.train_batch(&obs, &mut |i, _, _| (dl.row(i).to_vec(), dv[(i, 0)]));
                reference_train_batch(&mut reference, &obs, &dl, &dv);
                assert_eq!(grad_bits(&mut net), grad_bits(&mut reference));
            }
        }
    }
}
