//! Neural-network layers with manual backward passes.
//!
//! A layer holds only its parameters. A training forward hands what the
//! backward pass needs to the caller's tape (a layer's `…Tape` type, or
//! just the input or output the caller keeps), and the backward pass reads
//! the weights through `&self`, takes that tape, and accumulates parameter
//! gradients into the gradient tensors it is given, one per parameter in
//! the layer's `visit_params` order. So any number of threads can train
//! against one set of weights, each with its own tape.

mod activation;
mod attention;
mod layernorm;
mod linear;

pub use activation::{Activation, ActivationKind};
pub use attention::{AttentionTape, MultiHeadAttention};
pub use layernorm::{LayerNorm, LayerNormTape};
pub(crate) use linear::SideBySide;
pub use linear::{Linear, LinearInput};
