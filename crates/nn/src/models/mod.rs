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
/// Implementations must be `Send + Sync`: the data-parallel trainer clones
/// the model into per-shard replicas ([`PolicyValueNet::clone_box`]) and
/// runs each replica's forward/backward on a worker thread, and the fused
/// rollout shares one `&dyn PolicyValueNet` across lane groups so each
/// group's [`PolicyValueNet::forward_inference`] overlaps with the other
/// groups' environment stepping.
pub trait PolicyValueNet: Send + Sync {
    /// Batched inference pass through `&self`: returns `(logits, values)`
    /// where `logits` is `(batch, num_actions)` and `values` has one entry
    /// per row of `obs`.
    ///
    /// Must not retain gradient state (it takes `&self`, so layer caches
    /// are untouchable by construction). This is the pass rollout
    /// collection and evaluation use; taking `&self` is what lets the
    /// fused rollout run it concurrently from several lane groups.
    fn forward_inference(&self, obs: &Matrix) -> (Matrix, Vec<f32>);

    /// Batched inference pass via `&mut self` — a convenience wrapper over
    /// [`PolicyValueNet::forward_inference`] for callers holding a mutable
    /// handle. Same result, bit for bit.
    fn forward(&mut self, obs: &Matrix) -> (Matrix, Vec<f32>) {
        self.forward_inference(obs)
    }

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

    /// Clones the full model (weights, gradients, optimizer moments,
    /// caches) behind a fresh box — how the sharded trainer builds its
    /// per-worker replicas.
    fn clone_box(&self) -> Box<dyn PolicyValueNet>;

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize;

    /// Size of the action space.
    fn num_actions(&self) -> usize;

    /// Flattened observation dimension this model expects.
    fn obs_dim(&self) -> usize;
}
