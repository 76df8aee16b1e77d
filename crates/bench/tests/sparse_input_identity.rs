//! The MLP's sparse input layer against a dense reference, on real
//! observations.
//!
//! `MlpPolicy` compacts each observation batch into CSR rows and runs its
//! input layer from the nonzeros only. These tests roll out `table4-6` and
//! `table4-17`, add full-window rows with every token feature set (25%
//! dense for `table4-6`: the density the old per-block census sent to the
//! dense kernel), and require the policy's inference logits and values
//! and its `train_batch` gradients to equal, bit for bit, a dense network
//! built from the same weights: `Linear` layers whose forward is
//! `Matrix::matmul` and whose full backward is `matmul_tn` plus the input
//! gradient.

use autocat::gym::VecEnv;
use autocat::nn::layers::{Activation, ActivationKind, Linear};
use autocat::nn::models::{MlpConfig, MlpPolicy, PolicyValueNet};
use autocat::nn::Matrix;
use autocat::ppo::rollout::collect;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The same network as an `MlpPolicy`, every layer on the dense path.
struct DenseMlp {
    trunk: Vec<(Linear, Activation)>,
    policy: Linear,
    value: Linear,
    /// The observation, then each trunk layer's output, from the latest
    /// `forward`.
    hs: Vec<Matrix>,
}

impl DenseMlp {
    /// Copies `net`'s weights (its `visit_params` order: each trunk layer's
    /// `w` then `b`, the policy head, the value head).
    fn copy_of(net: &mut MlpPolicy) -> Self {
        let mut values = Vec::new();
        net.visit_params(&mut |p| values.push(p.value.clone()));
        let trunk_len = (values.len() - 4) / 2;
        let mut values = values.into_iter();
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = || {
            let (w, b) = (values.next().unwrap(), values.next().unwrap());
            let mut lin = Linear::new(w.rows(), w.cols(), &mut rng);
            (lin.w.value, lin.b.value) = (w, b);
            lin
        };
        let trunk = (0..trunk_len)
            .map(|_| (layer(), Activation::new(ActivationKind::Tanh)))
            .collect();
        Self {
            trunk,
            policy: layer(),
            value: layer(),
            hs: Vec::new(),
        }
    }

    fn forward(&mut self, obs: &Matrix) -> (Matrix, Matrix) {
        self.hs = vec![obs.clone()];
        for (lin, act) in &self.trunk {
            let mut h = lin.forward_inference(&self.hs[self.hs.len() - 1]);
            act.forward_in_place(&mut h);
            self.hs.push(h);
        }
        let features = &self.hs[self.trunk.len()];
        (
            self.policy.forward_inference(features),
            self.value.forward_inference(features),
        )
    }

    /// The full backward on every layer, input gradient included, from
    /// zero: the gradient bits in `visit_params` order.
    fn backward_grad_bits(&self, dlogits: &Matrix, dvalues: &Matrix) -> Vec<u32> {
        let zeros = |lin: &Linear| {
            [
                Matrix::zeros(lin.in_dim(), lin.out_dim()),
                Matrix::zeros(1, lin.out_dim()),
            ]
        };
        let mut trunk_grads: Vec<[Matrix; 2]> =
            self.trunk.iter().map(|(lin, _)| zeros(lin)).collect();
        let (mut policy_grads, mut value_grads) = (zeros(&self.policy), zeros(&self.value));
        let features = &self.hs[self.trunk.len()];
        let mut grad = self.policy.backward(features, dlogits, &mut policy_grads);
        grad.add_assign(&self.value.backward(features, dvalues, &mut value_grads));
        for (i, (lin, act)) in self.trunk.iter().enumerate().rev() {
            act.backward_in_place(&self.hs[i + 1], &mut grad);
            grad = lin.backward(&self.hs[i], &grad, &mut trunk_grads[i]);
        }
        trunk_grads
            .iter()
            .chain([&policy_grads, &value_grads])
            .flatten()
            .flat_map(|g| g.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A `horizon`-step rollout of `scenario` under a fresh policy, plus a
/// block of full-window rows: each real row's every token gets a latency,
/// an action, a step fraction and the victim flag.
fn observations(scenario: &str, net: &mut MlpPolicy, seed: u64) -> Matrix {
    let env = autocat_scenario::lookup(scenario)
        .expect("registry scenario")
        .build_env()
        .expect("env builds");
    let mut venv = VecEnv::new(8, env, seed).expect("vec env");
    let mut rng = StdRng::seed_from_u64(seed);
    let batch = collect(&mut venv, net, 256, 0.99, 0.95, &mut rng);
    let (tokens, width) = (venv.window(), venv.token_dim());
    let mut rows: Vec<f32> = batch.obs.as_slice().to_vec();
    for r in 0..8 {
        let mut row = batch.obs.row(r * 31).to_vec();
        for (t, token) in row.chunks_exact_mut(width).enumerate() {
            token.iter_mut().for_each(|v| *v = 0.0);
            token[(r + t) % 3] = 1.0;
            token[3 + (r * 5 + t) % (width - 5)] = 1.0;
            token[width - 2] = (t + 1) as f32 / tokens as f32;
            token[width - 1] = 1.0;
        }
        rows.extend_from_slice(&row);
    }
    Matrix::from_vec(rows.len() / venv.obs_dim(), venv.obs_dim(), rows)
}

fn check(scenario: &str, hidden: Vec<usize>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let probe = autocat_scenario::lookup(scenario)
        .unwrap()
        .build_env()
        .unwrap();
    let venv = VecEnv::new(1, probe, seed).unwrap();
    let cfg = MlpConfig::new(venv.obs_dim(), venv.num_actions()).with_hidden(hidden);
    let mut net = MlpPolicy::new(&cfg, &mut rng);
    let obs = observations(scenario, &mut net, seed);
    let (rows, cols) = (obs.rows(), obs.cols());
    let nnz = |r: usize| obs.row(r).iter().filter(|&&v| v != 0.0).count();
    let mean = (0..rows).map(nnz).sum::<usize>() as f32 / rows as f32;
    assert!(
        mean < cols as f32 / 8.0,
        "{scenario}: rollout rows are sparse"
    );
    if scenario == "table4-6" {
        assert!(
            (rows - 8..rows).all(|r| 4 * nnz(r) >= cols),
            "{scenario}: the full-window rows are at least 25% dense"
        );
    }

    let mut dense = DenseMlp::copy_of(&mut net);
    let (ref_logits, ref_values) = dense.forward(&obs);
    let (logits, values) = net.forward_inference(&obs);
    assert_eq!(
        bits(logits.as_slice()),
        bits(ref_logits.as_slice()),
        "{scenario} logits"
    );
    assert_eq!(
        bits(&values),
        bits(ref_values.as_slice()),
        "{scenario} values"
    );

    // Row-dependent loss gradients, some rows zero.
    let dl = Matrix::from_vec(
        rows,
        net.num_actions(),
        (0..rows * net.num_actions())
            .map(|i| {
                if i % 7 == 0 {
                    0.0
                } else {
                    ((i % 11) as f32 - 5.0) / 8.0
                }
            })
            .collect(),
    );
    let dv = Matrix::from_vec(
        rows,
        1,
        (0..rows).map(|i| ((i % 5) as f32 - 2.0) / 4.0).collect(),
    );
    net.zero_grad();
    net.train_batch(&obs, &mut |i, _, _| (dl.row(i).to_vec(), dv[(i, 0)]));
    let mut got = Vec::new();
    net.visit_params(&mut |p| got.extend(bits(p.grad.as_slice())));
    assert_eq!(
        got,
        dense.backward_grad_bits(&dl, &dv),
        "{scenario} gradients"
    );
}

#[test]
fn table4_6_policy_matches_the_dense_reference_bit_for_bit() {
    check("table4-6", vec![64, 64], 3);
}

#[test]
fn table4_17_policy_matches_the_dense_reference_bit_for_bit() {
    check("table4-17", vec![128, 48], 5);
}
