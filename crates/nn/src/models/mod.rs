//! Policy/value network models: MLP and Transformer-encoder backbones.

mod mlp;
mod transformer;

pub use mlp::{MlpConfig, MlpPolicy};
pub use transformer::{TransformerConfig, TransformerPolicy};

use crate::matrix::Matrix;
use crate::param::Param;

/// Per-row loss gradients returned by a training callback:
/// `(dL/dlogits, dL/dvalue)`.
pub type RowGrad = (Vec<f32>, f32);

/// A network with a categorical policy head and a scalar value head.
///
/// PPO interacts with models exclusively through this trait so the MLP and
/// Transformer backbones (paper Sec. IV-C / VI-B) are interchangeable.
///
/// Implementations must be `Send + Sync`: the fused rollout shares one
/// `&dyn PolicyValueNet` across lane groups so each group's
/// [`PolicyValueNet::forward_inference`] overlaps with the other groups'
/// environment stepping, and the sharded update runs every shard's
/// [`TrainNet::train_shard`] against one `&` network.
pub trait PolicyValueNet: Send + Sync {
    /// Batched inference pass through `&self`: returns `(logits, values)`
    /// where `logits` is `(batch, num_actions)` and `values` has one entry
    /// per row of `obs`.
    ///
    /// Must not retain gradient state. This is the pass rollout
    /// collection and evaluation use; taking `&self` is what lets the
    /// fused rollout run it concurrently from several lane groups.
    fn forward_inference(&self, obs: &Matrix) -> (Matrix, Vec<f32>);

    /// Training pass over a minibatch.
    ///
    /// For each row `i` of `obs` the model produces `(logits_i, value_i)` and
    /// invokes `grad_fn(i, logits_i, value_i)`, which must return the loss
    /// gradients `(dL/dlogits_i, dL/dvalue_i)`. The model then backpropagates
    /// and accumulates parameter gradients (call [`PolicyValueNet::zero_grad`]
    /// first and an optimizer step afterwards).
    fn train_batch(&mut self, obs: &Matrix, grad_fn: &mut dyn FnMut(usize, &[f32], f32) -> RowGrad);

    /// Zeroes all accumulated gradients.
    fn zero_grad(&mut self);

    /// Visits every parameter (for optimizer updates and grad clipping).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Clones the full model (weights, gradients, optimizer moments)
    /// behind a fresh box. The benchmark's probe trains such a clone
    /// beside the trainer's network.
    fn clone_box(&self) -> Box<dyn PolicyValueNet>;

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize;

    /// Size of the action space.
    fn num_actions(&self) -> usize;

    /// Flattened observation dimension this model expects.
    fn obs_dim(&self) -> usize;
}

/// A network whose training pass reads its weights through `&self`: what
/// the trainer holds, so every gradient shard runs against the one set of
/// weights, each with its own [`Tape`].
pub trait TrainNet: PolicyValueNet {
    /// One shard's training pass over `obs`, with the per-row protocol of
    /// [`PolicyValueNet::train_batch`]. What the backward pass needs goes
    /// into `tape`, and the parameter gradients accumulate into
    /// `tape.grads`, which must hold one tensor per parameter, shaped like
    /// it, in [`PolicyValueNet::visit_params`] order. The model's own
    /// `Param::grad`s are not touched.
    fn train_shard(
        &self,
        tape: &mut Tape,
        obs: &Matrix,
        grad_fn: &mut dyn FnMut(usize, &[f32], f32) -> RowGrad,
    );
}

/// One gradient shard's training state: the gradient tensors its
/// backward pass accumulates into, and what each training forward keeps
/// for that backward pass. Reused pass after pass, so a shard allocates
/// its activation storage once.
#[derive(Debug, Default)]
pub struct Tape {
    /// One gradient tensor per parameter, in `visit_params` order.
    pub grads: Vec<Matrix>,
    mlp: mlp::MlpTape,
    transformer: transformer::TransformerTape,
}

impl Tape {
    /// A tape whose gradients are zero tensors shaped like `net`'s
    /// parameters.
    pub fn for_net(net: &mut dyn PolicyValueNet) -> Self {
        let mut tape = Self::default();
        net.visit_params(&mut |p| {
            tape.grads
                .push(Matrix::zeros(p.value.rows(), p.value.cols()))
        });
        tape
    }

    /// Swaps the gradient tensors with `net`'s `Param::grad`s, in
    /// `visit_params` order: no copy.
    ///
    /// # Panics
    ///
    /// Panics unless the tape holds one tensor per parameter.
    pub fn swap_grads(&mut self, net: &mut dyn PolicyValueNet) {
        let mut grads = self.grads.iter_mut();
        net.visit_params(&mut |p| {
            let g = grads.next().expect("tape has fewer tensors than the model");
            std::mem::swap(&mut p.grad, g);
        });
        assert!(
            grads.next().is_none(),
            "tape has more tensors than the model"
        );
    }
}

/// [`PolicyValueNet::train_batch`] through [`TrainNet::train_shard`]: moves
/// each `Param::grad` into a tape, runs the pass and moves the tensors
/// back, so the gradients accumulate onto what the parameters held.
fn train_batch_on_tape(
    net: &mut dyn TrainNet,
    obs: &Matrix,
    grad_fn: &mut dyn FnMut(usize, &[f32], f32) -> RowGrad,
) {
    let mut tape = Tape::default();
    net.visit_params(&mut |p| tape.grads.push(std::mem::take(&mut p.grad)));
    net.train_shard(&mut tape, obs, grad_fn);
    tape.swap_grads(net);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn loss_grad(i: usize, logits: &[f32], value: f32) -> RowGrad {
        let dl = logits.iter().map(|&l| 0.5 * l - 0.1 * i as f32).collect();
        (dl, value - 0.3)
    }

    fn bits(grads: &[Matrix]) -> Vec<u32> {
        grads
            .iter()
            .flat_map(|g| g.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Three threads train their own batches into their own tapes against
    /// one shared `net`, twice: first on another thread's batch, so the
    /// second pass starts from a tape holding a different batch's
    /// activations. Each tape must then hold, bit for bit, what
    /// `train_batch` accumulates from zero on a private clone, and the
    /// shared net's own gradients stay zero.
    fn check_shared_net<N: TrainNet + Clone>(mut net: N) {
        let mut rng = StdRng::seed_from_u64(1);
        let obs_dim = net.obs_dim();
        let batches: Vec<Matrix> = [5usize, 1, 9]
            .into_iter()
            .map(|rows| {
                let data = (0..rows * obs_dim)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => rng.gen_range(-1.0f32..1.0),
                        _ => 0.0,
                    })
                    .collect();
                Matrix::from_vec(rows, obs_dim, data)
            })
            .collect();
        let mut tapes: Vec<Tape> = batches.iter().map(|_| Tape::for_net(&mut net)).collect();
        for shift in [1, 0] {
            std::thread::scope(|scope| {
                for (k, tape) in tapes.iter_mut().enumerate() {
                    let (net, obs) = (&net, &batches[(k + shift) % batches.len()]);
                    scope.spawn(move || {
                        tape.grads.iter_mut().for_each(Matrix::fill_zero);
                        net.train_shard(tape, obs, &mut loss_grad);
                    });
                }
            });
        }
        for (tape, obs) in tapes.iter().zip(&batches) {
            let mut clone = net.clone();
            clone.zero_grad();
            clone.train_batch(obs, &mut loss_grad);
            let mut expected = Vec::new();
            clone.visit_params(&mut |p| expected.push(p.grad.clone()));
            assert_eq!(bits(&tape.grads), bits(&expected), "{} rows", obs.rows());
        }
        let mut own = Vec::new();
        net.visit_params(&mut |p| own.push(p.grad.clone()));
        assert!(own.iter().all(|g| g.as_slice().iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn mlp_shards_train_one_shared_net_into_their_own_tapes() {
        let cfg = MlpConfig::new(12, 4).with_hidden(vec![8, 6]);
        check_shared_net(MlpPolicy::new(&cfg, &mut StdRng::seed_from_u64(2)));
    }

    #[test]
    fn transformer_shards_train_one_shared_net_into_their_own_tapes() {
        let cfg = TransformerConfig::new(4, 3, 4).with_dims(8, 2, 16);
        check_shared_net(TransformerPolicy::new(&cfg, &mut StdRng::seed_from_u64(3)));
    }
}
