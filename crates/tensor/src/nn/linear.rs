//! Fully connected layer.

use super::module::{Module, Param};
use super::xavier_uniform;
use crate::rng::Rng;
use crate::tape::{NodeId, Tape};
use crate::tensor::Tensor;

/// A dense affine map `x @ W + b` with `W: [in, out]`, `b: [out]`.
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Xavier-initialized linear layer with bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        Self::with_bias(in_dim, out_dim, true, rng)
    }

    /// Linear layer with an optional bias term.
    pub fn with_bias(in_dim: usize, out_dim: usize, bias: bool, rng: &mut Rng) -> Self {
        Linear {
            weight: Param::new(xavier_uniform(in_dim, out_dim, rng)),
            bias: bias.then(|| Param::new(Tensor::zeros([out_dim]))),
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass on `[n, in]`, producing `[n, out]`.
    pub fn forward(&mut self, tape: &mut Tape, x: NodeId) -> NodeId {
        self.forward_with(tape, x, false)
    }

    /// `relu(forward(x))`, with the ReLU as the epilogue of one
    /// [`Tape::linear_relu`] op when the layer has a bias. Bitwise-equal
    /// to `forward` then [`Tape::relu`], because the pre-activation feeds
    /// only the ReLU.
    pub fn forward_relu(&mut self, tape: &mut Tape, x: NodeId) -> NodeId {
        self.forward_with(tape, x, true)
    }

    fn forward_with(&mut self, tape: &mut Tape, x: NodeId, relu: bool) -> NodeId {
        let (_, c) = tape.shape(x).as_matrix();
        assert_eq!(c, self.in_dim, "Linear: input dim {c} != {}", self.in_dim);
        let w = self.weight.bind(tape);
        let Some(b) = &mut self.bias else {
            let h = tape.matmul(x, w);
            return if relu { tape.relu(h) } else { h };
        };
        let b = b.bind(tape);
        if relu {
            tape.linear_relu(x, w, b)
        } else {
            tape.linear(x, w, b)
        }
    }
}

impl Module for Linear {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_param_count() {
        let mut rng = Rng::seed_from(0);
        let mut l = Linear::new(4, 3, &mut rng);
        assert_eq!(l.num_params(), 4 * 3 + 3);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros([5, 4]));
        let y = l.forward(&mut tape, x);
        assert_eq!(tape.shape(y).dims(), &[5, 3]);
    }

    #[test]
    fn no_bias_variant() {
        let mut rng = Rng::seed_from(0);
        let mut l = Linear::with_bias(4, 3, false, &mut rng);
        assert_eq!(l.num_params(), 12);
    }

    #[test]
    fn gradient_reaches_weights() {
        let mut rng = Rng::seed_from(1);
        let mut l = Linear::new(2, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones([3, 2]));
        let y = l.forward(&mut tape, x);
        let s = tape.sum(y);
        let g = tape.backward(s);
        let wid = l.params_mut()[0].bound_node().unwrap();
        let gw = g.get(wid).unwrap();
        assert!(gw.data().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "input dim")]
    fn rejects_wrong_input_dim() {
        let mut rng = Rng::seed_from(2);
        let mut l = Linear::new(4, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros([5, 5]));
        let _ = l.forward(&mut tape, x);
    }
}
