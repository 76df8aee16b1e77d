//! Policy/value network models: MLP and Transformer-encoder backbones.

mod mlp;
mod transformer;

pub use mlp::{MlpConfig, MlpPolicy};
pub use transformer::{TransformerConfig, TransformerPolicy};

use crate::matrix::Matrix;
use crate::param::Param;
use crate::sparse::SparseRows;

/// Per-row loss gradients returned by a training callback:
/// `(dL/dlogits, dL/dvalue)`.
pub type RowGrad = (Vec<f32>, f32);

/// A training shard's per-row loss: `loss(i, logits_i, value_i, dlogits)`
/// for row `i` of the shard writes `dL/dlogits_i` into `dlogits` (one
/// element per action, every one written) and returns `dL/dvalue_i`. The
/// model hands it a row of storage it reuses, so the loss allocates
/// nothing per row.
pub type RowLoss<'a> = dyn FnMut(usize, &[f32], f32, &mut [f32]) -> f32 + 'a;

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
    /// Whether [`TrainNet::train_shard`] reads the batch as CSR
    /// ([`ShardInput::sparse`]): a caller compacts the batch only for a
    /// net that does.
    fn reads_sparse(&self) -> bool {
        false
    }

    /// Packs what every shard of a minibatch reads from the current
    /// weights into `packed`, reusing its storage. Run it after the
    /// weights last changed and before the shards: a pack is stale once
    /// an optimizer step writes the weights it was made from.
    fn pack_for_shards(&self, _packed: &mut ShardPacks) {}

    /// One shard's training pass over the rows of `input`'s batch that
    /// `rows` selects, in that order: row `i` of the shard is
    /// `input.obs.row(rows[i])`, and `loss` is called once per shard row,
    /// in order. What the backward pass needs goes into `tape`, and the
    /// shard's parameter gradients are **written** into `tape.grads`,
    /// which must hold one tensor per parameter, shaped like it, in
    /// [`PolicyValueNet::visit_params`] order: whatever the tensors held
    /// is replaced, so a reused tape needs no zeroing. The model's own
    /// `Param::grad`s are not touched.
    fn train_shard(&self, tape: &mut Tape, input: &ShardInput, rows: &[usize], loss: &mut RowLoss);
}

/// What [`TrainNet::pack_for_shards`] builds once per minibatch from the
/// weights, for every shard to read: the MLP's `Wᵀ` panels and its heads
/// side by side. Storage reused pack after pack.
#[derive(Debug, Default)]
pub struct ShardPacks {
    mlp: mlp::MlpPacks,
}

/// The read-only input every shard of one minibatch shares: the batch,
/// dense and, for a net that [`TrainNet::reads_sparse`], as CSR, and the
/// net's [`ShardPacks`] of its current weights.
#[derive(Clone, Copy, Debug)]
pub struct ShardInput<'a> {
    /// The batch's observations, one row per transition.
    pub obs: &'a Matrix,
    /// The same rows compacted ([`SparseRows::compact`]); `None` for a
    /// net that does not read them so.
    pub sparse: Option<&'a SparseRows>,
    /// The net's packs, made since its weights last changed.
    pub packed: &'a ShardPacks,
}

/// The CSR and packs of `obs` that `net` reads, owned: what one training
/// call outside the trainer builds for its shard input.
fn owned_input(net: &dyn TrainNet, obs: &Matrix) -> (Option<SparseRows>, ShardPacks) {
    let sparse = net.reads_sparse().then(|| SparseRows::from_dense(obs));
    let mut packed = ShardPacks::default();
    net.pack_for_shards(&mut packed);
    (sparse, packed)
}

/// One gradient shard's training state: the gradient tensors its
/// backward pass writes, and what each training forward keeps for that
/// backward pass. Reused pass after pass, so a shard allocates its
/// activation storage once. Only the model's training pass and
/// [`Tape::swap_grads`] write the gradients, so a model may keep track of
/// what they hold (the MLP remembers which input-layer rows are nonzero).
#[derive(Debug, Default)]
pub struct Tape {
    /// One gradient tensor per parameter, in `visit_params` order.
    grads: Vec<Matrix>,
    mlp: mlp::MlpTape,
    transformer: transformer::TransformerTape,
}

impl Tape {
    /// A tape whose gradients are zero tensors shaped like `net`'s
    /// parameters.
    pub fn for_net(net: &mut dyn PolicyValueNet) -> Self {
        let mut tape = Self {
            mlp: mlp::MlpTape::zeroed(),
            ..Self::default()
        };
        net.visit_params(&mut |p| {
            tape.grads
                .push(Matrix::zeros(p.value.rows(), p.value.cols()))
        });
        tape
    }

    /// The gradient tensors the last training pass wrote, in
    /// `visit_params` order.
    pub fn grads(&self) -> &[Matrix] {
        &self.grads
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
        self.mlp.forget_grads();
    }
}

/// `grad_fn`, [`PolicyValueNet::train_batch`]'s callback, as a
/// [`RowLoss`]: its returned gradient is copied into the row.
fn row_loss(
    grad_fn: &mut dyn FnMut(usize, &[f32], f32) -> RowGrad,
) -> impl FnMut(usize, &[f32], f32, &mut [f32]) -> f32 + '_ {
    move |i, logits, value, dlogits| {
        let (dl, dv) = grad_fn(i, logits, value);
        assert_eq!(dl.len(), dlogits.len(), "dlogits length mismatch");
        dlogits.copy_from_slice(&dl);
        dv
    }
}

/// [`PolicyValueNet::train_batch`] through [`TrainNet::train_shard`]: one
/// pass over every row of `obs` into a fresh tape, whose tensors are then
/// added onto the `Param::grad`s, one finished sum per tensor. A model
/// whose pass writes each gradient tensor once (the MLP) gets what adding
/// each of its products onto the parameters directly gives.
fn train_batch_via_shard(
    net: &mut dyn TrainNet,
    obs: &Matrix,
    grad_fn: &mut dyn FnMut(usize, &[f32], f32) -> RowGrad,
) {
    let mut tape = Tape::for_net(net);
    let rows: Vec<usize> = (0..obs.rows()).collect();
    let (sparse, packed) = owned_input(net, obs);
    let input = ShardInput {
        obs,
        sparse: sparse.as_ref(),
        packed: &packed,
    };
    net.train_shard(&mut tape, &input, &rows, &mut row_loss(grad_fn));
    let mut grads = tape.grads.iter();
    net.visit_params(&mut |p| {
        p.grad
            .add_assign(grads.next().expect("tape has fewer tensors than the model"))
    });
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

    /// Three threads train their own row selections of one observation
    /// matrix into their own tapes against one shared `net` and one shard
    /// input, built once (CSR and packs) and read by all three, twice:
    /// first on another thread's rows, so the second pass starts from a
    /// tape holding a different selection's activations and gradients.
    /// Each tape must then hold, bit for bit, what `train_batch`
    /// accumulates from zero on a private clone over the gathered rows,
    /// and the shared net's own gradients stay zero.
    fn check_shared_net<N: TrainNet + Clone>(mut net: N) {
        let mut rng = StdRng::seed_from_u64(1);
        let obs_dim = net.obs_dim();
        let obs = Matrix::from_vec(
            12,
            obs_dim,
            (0..12 * obs_dim)
                .map(|_| match rng.gen_range(0..3) {
                    0 => rng.gen_range(-1.0f32..1.0),
                    _ => 0.0,
                })
                .collect(),
        );
        let selections: [Vec<usize>; 3] = [vec![4, 0, 11, 2, 7], vec![9], (0..12).rev().collect()];
        let mut tapes: Vec<Tape> = selections.iter().map(|_| Tape::for_net(&mut net)).collect();
        let (sparse, packed) = owned_input(&net, &obs);
        assert_eq!(sparse.is_some(), net.reads_sparse());
        let input = ShardInput {
            obs: &obs,
            sparse: sparse.as_ref(),
            packed: &packed,
        };
        for shift in [1, 0] {
            std::thread::scope(|scope| {
                for (k, tape) in tapes.iter_mut().enumerate() {
                    let (net, input) = (&net, &input);
                    let rows = &selections[(k + shift) % selections.len()];
                    scope.spawn(move || {
                        net.train_shard(tape, input, rows, &mut row_loss(&mut loss_grad));
                    });
                }
            });
        }
        for (tape, rows) in tapes.iter().zip(&selections) {
            let mut clone = net.clone();
            clone.zero_grad();
            clone.train_batch(&obs.gather_rows(rows), &mut loss_grad);
            let mut expected = Vec::new();
            clone.visit_params(&mut |p| expected.push(p.grad.clone()));
            assert_eq!(bits(&tape.grads), bits(&expected), "rows {rows:?}");
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
