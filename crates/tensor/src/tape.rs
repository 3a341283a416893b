//! Arena-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation as a node referencing earlier nodes by
//! [`NodeId`]. Because nodes can only reference earlier nodes, the node list
//! is already a topological order and the backward pass is a single reverse
//! sweep. Operations are explicit [`crate::ops::Op`] enum variants with
//! hand-written backward rules — no closures, so every rule is independently
//! unit-testable and gradient-checked.

use crate::ops::Op;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Identifier of a node on a [`Tape`]. Only valid for the tape that created
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index of this node in its tape.
    pub fn index(self) -> usize {
        self.0
    }
}

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) op: Op,
    /// Whether gradients should flow into/through this node. Constants are
    /// excluded from the backward sweep (their subtrees still propagate).
    pub(crate) needs_grad: bool,
}

/// The autodiff tape: an append-only arena of operation nodes.
///
/// Typical usage:
/// ```
/// use ood_tensor::{Tape, Tensor};
/// let mut tape = Tape::new();
/// let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
/// let y = tape.mul(x, x); // y = x^2
/// let loss = tape.sum(y);
/// let grads = tape.backward(loss);
/// assert_eq!(grads.get(x).unwrap().data(), &[2.0, 4.0]);
/// ```
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    /// Bytes held by node values, mirrored into the global profiling
    /// counters (added on push, released on drop).
    arena_bytes: u64,
}

/// Gradients produced by [`Tape::backward`], indexed by [`NodeId`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the backward root with respect to `id`, if any
    /// gradient reached it.
    pub fn get(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(|g| g.as_ref())
    }

    /// Like [`Gradients::get`] but returns a zero tensor of the given shape
    /// when no gradient reached the node.
    ///
    /// Allocation-free in both arms: present gradients are returned as an
    /// O(1) copy-on-write clone, absent ones as a cached shared-zeros
    /// tensor — callers that only read never trigger a buffer copy.
    pub fn get_or_zeros(&self, id: NodeId, shape: &Shape) -> Tensor {
        self.get(id)
            .cloned()
            .unwrap_or_else(|| crate::pool::shared_zeros(shape))
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The value held at a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// The shape of a node's value.
    pub fn shape(&self, id: NodeId) -> &Shape {
        self.nodes[id.0].value.shape()
    }

    /// Record a differentiable leaf (a parameter or an input that needs
    /// gradients).
    pub fn leaf(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Leaf, true)
    }

    /// Record a constant: gradients are not tracked for it.
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Leaf, false)
    }

    /// Re-enter a node's value as a fresh constant, cutting the gradient
    /// connection (like `detach()` in other frameworks). O(1): the
    /// constant shares the node's copy-on-write buffer instead of copying
    /// it.
    pub fn detach(&mut self, id: NodeId) -> NodeId {
        let v = self.nodes[id.0].value.clone();
        self.constant(v)
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> NodeId {
        let bytes = (value.numel() * std::mem::size_of::<f32>()) as u64;
        crate::profile::record_op(&op, value.numel(), self.nodes.len() + 1, bytes);
        self.arena_bytes += bytes;
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Record an op: computes the forward value via [`Op::forward`] and marks
    /// the node as needing grad iff any input does.
    pub(crate) fn record(&mut self, op: Op) -> NodeId {
        let value = op.forward(self);
        let needs_grad = op.inputs().iter().any(|i| self.nodes[i.0].needs_grad);
        self.push(value, op, needs_grad)
    }

    /// Reverse-mode sweep from `root`, which must hold a single element.
    ///
    /// # Panics
    /// Panics if `root`'s value is not a single element.
    pub fn backward(&self, root: NodeId) -> Gradients {
        crate::profile::record_backward();
        assert_eq!(
            self.nodes[root.0].value.numel(),
            1,
            "backward root must be a scalar, got shape {}",
            self.nodes[root.0].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        // Cached shared-ones seed: backward is called once per step, and
        // the seed shape repeats forever — no per-call allocation.
        grads[root.0] = Some(crate::pool::shared_ones(self.nodes[root.0].value.shape()));
        for i in (0..=root.0).rev() {
            let Some(grad) = grads[i].take() else {
                continue;
            };
            let node = &self.nodes[i];
            if node.needs_grad {
                for (input, g) in node.op.backward(self, &node.value, &grad) {
                    if !self.nodes[input.0].needs_grad {
                        continue;
                    }
                    match &mut grads[input.0] {
                        Some(acc) => acc.axpy(1.0, &g),
                        slot @ None => *slot = Some(g),
                    }
                }
            }
            grads[i] = Some(grad);
        }
        Gradients { grads }
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        crate::profile::release_bytes(self.arena_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_value() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::scalar(3.0));
        assert_eq!(t.value(x).item(), 3.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn backward_through_square() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec(vec![1.0, -2.0, 3.0], [3]));
        let y = t.mul(x, x);
        let s = t.sum(y);
        let g = t.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn constants_block_gradients() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::scalar(2.0));
        let c = t.constant(Tensor::scalar(5.0));
        let y = t.mul(x, c);
        let g = t.backward(y);
        assert_eq!(g.get(x).unwrap().item(), 5.0);
        assert!(g.get(c).is_none());
    }

    #[test]
    fn detach_cuts_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::scalar(2.0));
        let y = t.mul(x, x);
        let yd = t.detach(y);
        let z = t.mul(yd, x); // z = detach(x^2) * x — grad wrt x is x^2 only
        let g = t.backward(z);
        assert_eq!(g.get(x).unwrap().item(), 4.0);
    }

    #[test]
    fn gradient_accumulates_over_fanout() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::scalar(3.0));
        let a = t.mul(x, x); // x^2
        let b = t.add(a, x); // x^2 + x
        let g = t.backward(b);
        assert_eq!(g.get(x).unwrap().item(), 7.0); // 2x + 1
    }

    #[test]
    #[should_panic(expected = "backward root must be a scalar")]
    fn backward_requires_scalar_root() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let _ = t.backward(x);
    }

    #[test]
    fn get_or_zeros_for_unreached() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let y = t.leaf(Tensor::scalar(1.0));
        let g = t.backward(y);
        let gx = g.get_or_zeros(x, &Shape::new(&[2]));
        assert_eq!(gx.data(), &[0.0, 0.0]);
    }
}
