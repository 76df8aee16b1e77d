//! Minimal neural-network substrate for the AutoCAT reproduction.
//!
//! The AutoCAT paper trains its RL agent with PPO on top of either an MLP or
//! a Transformer-encoder backbone (Sec. IV-C / VI-B). Mature autograd crates
//! are not available offline, so this crate hand-rolls exactly what PPO
//! needs:
//!
//! * [`Matrix`] — a dense row-major `f32` matrix with the linear-algebra
//!   kernels used by the layers.
//! * [`SparseRows`] — a CSR row batch and the two kernels (`x·W` and
//!   `xᵀ·dy` from the nonzeros only) an MLP's input layer runs on the
//!   one-hot observation.
//! * [`layers`] — `Linear`, activations, `LayerNorm`, multi-head
//!   self-attention. Each holds only its parameters; its manual backward
//!   pass reads what the training forward saved and accumulates into the
//!   gradient tensors it is handed.
//! * [`models`] — [`models::MlpPolicy`] and [`models::TransformerPolicy`],
//!   both implementing [`models::PolicyValueNet`] (shared trunk, categorical
//!   policy head, scalar value head) and [`models::TrainNet`], whose
//!   `train_shard` trains through `&self` into a per-shard
//!   [`models::Tape`], reading one [`models::ShardInput`] that every
//!   shard of a minibatch shares.
//! * [`math`] — `tanh` as a port of glibc 2.36's fdlibm `tanhf`, scalar
//!   and as a tier-dispatched slice kernel: the same bits on every host.
//! * [`optim::Adam`] — the Adam optimizer (per-parameter moments).
//! * [`grad`] — the data-parallel sharded PPO update's reduction: shard
//!   gradients added in fixed order with the global norm in the same pass
//!   ([`grad::reduce_grads`]), plus the weight snapshot/load and
//!   [`grad::GradBuffer`], the copy-out reference the benchmark probe
//!   calls.
//! * [`dist::Categorical`] — sampling, log-probabilities and entropy for the
//!   discrete action distribution, plus the analytic gradients PPO needs.
//! * [`value`] — the workspace's hand-rolled TOML/JSON document model and
//!   its only serialization, shared by scenario files, checkpoints and
//!   sweep reports.
//! * [`state`] — backbone-agnostic parameter/optimizer (de)serialization:
//!   any [`models::PolicyValueNet`] checkpoints through its `visit_params`
//!   walk, bit-exactly, with no per-model code.
//!
//! # Design notes
//!
//! Everything is `f32` and row-major. Activations and weights are dense;
//! [`Matrix::matmul`] is register-blocked (see [`Matrix::MM_ROW_BLOCK`])
//! because PPO rollout throughput on this workload is dominated by
//! small-batch policy forwards. The one sparse operand is the MLP's
//! input: the observation window is a few one-hot tokens, so the input
//! layer reads it as [`SparseRows`] (compacted once per batch, each
//! shard's rows copied out of that) and multiplies only the nonzeros,
//! forward and backward, with the same bits the dense kernels give (for
//! finite weights). Backward passes are hand-derived per layer; a model's
//! tape is a fixed struct of the activations its backward reads, not a
//! recorded graph. Determinism is a hard requirement across the workspace —
//! same seed, same trajectories, same checkpoints — so nothing in this
//! crate reads wall-clock time, thread identity or global RNG state.
//!
//! # Example
//!
//! ```
//! use autocat_nn::models::{MlpConfig, MlpPolicy, PolicyValueNet};
//! use autocat_nn::Matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = MlpPolicy::new(&MlpConfig::new(8, 4), &mut rng);
//! let obs = Matrix::zeros(1, 8);
//! let (logits, values) = net.forward_inference(&obs);
//! assert_eq!(logits.cols(), 4);
//! assert_eq!(values.len(), 1);
//! ```

pub mod dist;
pub mod grad;
pub mod init;
pub mod layers;
pub mod math;
pub mod matrix;
pub mod models;
pub mod optim;
pub mod param;
pub mod sparse;
pub mod state;
pub mod value;

pub use dist::Categorical;
pub use grad::GradBuffer;
pub use matrix::{Matrix, NtPanels};
pub use optim::Adam;
pub use param::Param;
pub use sparse::SparseRows;
