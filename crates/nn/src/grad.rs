//! Gradient and parameter plumbing for the data-parallel trainer.
//!
//! The sharded PPO update (see `autocat-ppo`) runs each minibatch shard
//! against its own model replica on a worker thread, then reduces the
//! shards' gradients into the primary model **in fixed shard order** so
//! the result is bit-identical no matter how many threads did the work.
//! This module provides the three pieces that makes possible:
//!
//! * [`GradBuffer`] — a detached copy of a model's accumulated gradients,
//!   harvested from a replica after its backward pass
//!   ([`GradBuffer::harvest_into`] refills an existing buffer in place);
//! * [`GradBuffer::accumulate_into`] — the fixed-order reduction step,
//!   adding a shard's buffer into a model's live gradients;
//! * [`snapshot_param_values`] / [`load_param_values`] — weight
//!   synchronization, so every replica computes against the exact bytes
//!   the primary model holds ([`snapshot_param_values_into`] reuses a
//!   snapshot buffer).
//!
//! Everything here works through the same visitor idiom as
//! [`crate::optim::clip_global_grad_norm`]: the caller passes a closure
//! that applies a `FnMut(&mut Param)` to every parameter (models expose
//! `visit_params`), which keeps this module independent of any concrete
//! backbone. The visitation order is the model's fixed parameter walk, so
//! a buffer harvested from a replica always lines up with the primary it
//! was cloned from.

use crate::matrix::Matrix;
use crate::param::Param;

/// The visitor signature models expose as `visit_params`.
type ParamVisitor<'a> = dyn FnMut(&mut Param) + 'a;

/// A detached copy of every gradient tensor of one model, in parameter
/// visitation order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GradBuffer {
    grads: Vec<Matrix>,
}

impl GradBuffer {
    /// Copies the accumulated gradients out of a model (one worker's shard
    /// result, ready for the fixed-order reduction).
    pub fn harvest(visit: impl FnMut(&mut ParamVisitor)) -> Self {
        let mut buf = Self { grads: Vec::new() };
        buf.harvest_into(visit);
        buf
    }

    /// [`GradBuffer::harvest`] into this buffer, reusing its tensors'
    /// storage: no allocation once it has held the same model's gradients.
    pub fn harvest_into(&mut self, visit: impl FnMut(&mut ParamVisitor)) {
        copy_params_into(&mut self.grads, |p| &p.grad, visit);
    }

    /// Adds this buffer into a model's live gradients.
    ///
    /// Call once per shard, in shard order, after zeroing the model's
    /// gradients: the reduction order is then fixed by the shard layout
    /// alone, never by which thread finished first.
    ///
    /// # Panics
    ///
    /// Panics if the buffer does not match the model's parameter walk
    /// (tensor count or shape) — that is a programming error, the buffer
    /// was harvested from a different architecture.
    pub fn accumulate_into(&self, mut visit: impl FnMut(&mut ParamVisitor)) {
        let mut index = 0usize;
        visit(&mut |p: &mut Param| {
            let shard = self
                .grads
                .get(index)
                .expect("GradBuffer has fewer tensors than the model");
            p.grad.add_assign(shard);
            index += 1;
        });
        assert_eq!(
            index,
            self.grads.len(),
            "GradBuffer has more tensors than the model"
        );
    }

    /// Number of gradient tensors in the buffer.
    pub fn num_tensors(&self) -> usize {
        self.grads.len()
    }
}

/// Copies every parameter *value* out of a model, in visitation order
/// (gradients and optimizer moments are not included).
pub fn snapshot_param_values(visit: impl FnMut(&mut ParamVisitor)) -> Vec<Matrix> {
    let mut values = Vec::new();
    snapshot_param_values_into(&mut values, visit);
    values
}

/// [`snapshot_param_values`] into `values`, reusing its tensors' storage:
/// no allocation once it has held the same model's snapshot.
pub fn snapshot_param_values_into(values: &mut Vec<Matrix>, visit: impl FnMut(&mut ParamVisitor)) {
    copy_params_into(values, |p| &p.value, visit);
}

/// Copies one tensor of every parameter into `out`, in visitation order,
/// overwriting `out`'s existing tensors in place and growing or
/// truncating it to the model's tensor count.
fn copy_params_into(
    out: &mut Vec<Matrix>,
    field: fn(&Param) -> &Matrix,
    mut visit: impl FnMut(&mut ParamVisitor),
) {
    let mut index = 0usize;
    visit(&mut |p: &mut Param| {
        match out.get_mut(index) {
            Some(dst) => dst.clone_from(field(p)),
            None => out.push(field(p).clone()),
        }
        index += 1;
    });
    out.truncate(index);
}

/// Overwrites a model's parameter values with a snapshot taken by
/// [`snapshot_param_values`] from an identically-shaped model (weight
/// sync from the primary to a replica before a shard's forward pass).
///
/// # Panics
///
/// Panics if the snapshot does not match the model's parameter walk.
pub fn load_param_values(values: &[Matrix], mut visit: impl FnMut(&mut ParamVisitor)) {
    let mut index = 0usize;
    visit(&mut |p: &mut Param| {
        let src = values
            .get(index)
            .expect("snapshot has fewer tensors than the model");
        assert_eq!(
            (src.rows(), src.cols()),
            (p.value.rows(), p.value.cols()),
            "snapshot tensor {index} shape mismatch"
        );
        p.value.as_mut_slice().copy_from_slice(src.as_slice());
        index += 1;
    });
    assert_eq!(
        index,
        values.len(),
        "snapshot has more tensors than the model"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(rows: usize, cols: usize, fill: f32) -> Param {
        let mut p = Param::zeros(rows, cols);
        p.grad = Matrix::full(rows, cols, fill);
        p
    }

    #[test]
    fn harvest_then_accumulate_doubles_gradients() {
        let mut a = param(2, 3, 1.5);
        let mut b = param(1, 2, -0.25);
        let buf = GradBuffer::harvest(|f| {
            f(&mut a);
            f(&mut b);
        });
        assert_eq!(buf.num_tensors(), 2);
        buf.accumulate_into(|f| {
            f(&mut a);
            f(&mut b);
        });
        assert!(a.grad.as_slice().iter().all(|&g| g == 3.0));
        assert!(b.grad.as_slice().iter().all(|&g| g == -0.5));
    }

    #[test]
    fn fixed_order_reduction_is_order_of_calls_not_threads() {
        // Reducing shard buffers in a fixed order is exactly "call
        // accumulate_into sequentially": verify additivity over two
        // distinct buffers.
        let mut p = param(1, 2, 0.0);
        let mut s1 = param(1, 2, 1.0);
        let mut s2 = param(1, 2, 10.0);
        let b1 = GradBuffer::harvest(|f| f(&mut s1));
        let b2 = GradBuffer::harvest(|f| f(&mut s2));
        b1.accumulate_into(|f| f(&mut p));
        b2.accumulate_into(|f| f(&mut p));
        assert!(p.grad.as_slice().iter().all(|&g| g == 11.0));
    }

    #[test]
    #[should_panic(expected = "more tensors")]
    fn tensor_count_mismatch_panics() {
        let mut a = param(1, 1, 0.0);
        let mut b = param(1, 1, 0.0);
        let buf = GradBuffer::harvest(|f| {
            f(&mut a);
            f(&mut b);
        });
        buf.accumulate_into(|f| f(&mut a));
    }

    #[test]
    fn snapshot_round_trips_values_only() {
        let mut src = param(2, 2, 7.0);
        src.value = Matrix::full(2, 2, 3.25);
        src.m = Matrix::full(2, 2, 9.0);
        let snap = snapshot_param_values(|f| f(&mut src));

        let mut dst = param(2, 2, 5.0);
        load_param_values(&snap, |f| f(&mut dst));
        assert_eq!(dst.value, src.value);
        // Gradients and moments are untouched by a weight sync.
        assert!(dst.grad.as_slice().iter().all(|&g| g == 5.0));
        assert!(dst.m.as_slice().iter().all(|&m| m == 0.0));
    }

    #[test]
    fn in_place_refills_match_fresh_copies() {
        let mut a = param(2, 3, 1.5);
        let mut b = param(1, 2, -0.25);
        a.value = Matrix::full(2, 3, 4.0);
        // Stale contents of the wrong shapes and count must be replaced.
        let mut buf = GradBuffer {
            grads: vec![Matrix::full(5, 5, 9.0); 3],
        };
        buf.harvest_into(|f| {
            f(&mut a);
            f(&mut b);
        });
        let fresh = GradBuffer::harvest(|f| {
            f(&mut a);
            f(&mut b);
        });
        assert_eq!(buf, fresh);
        let mut values = vec![Matrix::zeros(1, 1)];
        snapshot_param_values_into(&mut values, |f| {
            f(&mut a);
            f(&mut b);
        });
        let fresh = snapshot_param_values(|f| {
            f(&mut a);
            f(&mut b);
        });
        assert_eq!(values, fresh);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn snapshot_shape_mismatch_panics() {
        let mut src = param(2, 2, 0.0);
        let snap = snapshot_param_values(|f| f(&mut src));
        let mut dst = param(2, 3, 0.0);
        load_param_values(&snap, |f| f(&mut dst));
    }
}
