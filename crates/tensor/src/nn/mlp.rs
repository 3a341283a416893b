//! Multi-layer perceptron with optional batch normalization.

use super::batchnorm::BatchNorm1d;
use super::linear::Linear;
use super::module::{Module, Param};
use crate::rng::Rng;
use crate::tape::{NodeId, Tape};
use crate::Mode;

/// An MLP of `Linear → [BatchNorm] → ReLU` blocks with a final Linear.
///
/// This is the update function used inside GIN layers (`Linear → BN → ReLU →
/// Linear` as in the GIN paper) and the 2-layer classifier head the paper
/// uses on top of the graph representation.
pub struct Mlp {
    layers: Vec<Linear>,
    norms: Vec<Option<BatchNorm1d>>,
}

impl Mlp {
    /// Build an MLP through the given layer sizes, e.g. `[in, hidden, out]`
    /// gives two Linear layers. `batch_norm` inserts BatchNorm after every
    /// hidden Linear (never after the output layer).
    pub fn new(sizes: &[usize], batch_norm: bool, rng: &mut Rng) -> Self {
        assert!(
            sizes.len() >= 2,
            "MLP needs at least input and output sizes"
        );
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        let mut norms = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            layers.push(Linear::new(sizes[i], sizes[i + 1], rng));
            let is_last = i == sizes.len() - 2;
            norms.push((batch_norm && !is_last).then(|| BatchNorm1d::new(sizes[i + 1])));
        }
        Mlp { layers, norms }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim()
    }

    /// Forward pass on `[n, in]` → `[n, out]`. Every hidden ReLU is the
    /// epilogue of the op before it (the BatchNorm, or the Linear when
    /// there is none), which no other op reads.
    pub fn forward(&mut self, tape: &mut Tape, x: NodeId, mode: Mode) -> NodeId {
        self.forward_with(tape, x, mode, false)
    }

    /// `relu(forward(x))`, the last ReLU fused the same way — the update
    /// `GinConv` and the virtual node apply.
    pub fn forward_relu(&mut self, tape: &mut Tape, x: NodeId, mode: Mode) -> NodeId {
        self.forward_with(tape, x, mode, true)
    }

    fn forward_with(&mut self, tape: &mut Tape, x: NodeId, mode: Mode, relu: bool) -> NodeId {
        let n_layers = self.layers.len();
        let mut h = x;
        for (i, (layer, norm)) in self
            .layers
            .iter_mut()
            .zip(self.norms.iter_mut())
            .enumerate()
        {
            h = match norm {
                // Norms sit only on hidden layers, which end in the ReLU.
                Some(bn) => {
                    let z = layer.forward(tape, h);
                    bn.forward_relu(tape, z, mode)
                }
                None if relu || i + 1 < n_layers => layer.forward_relu(tape, h),
                None => layer.forward(tape, h),
            };
        }
        h
    }
}

impl Module for Mlp {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        for (l, n) in self.layers.iter_mut().zip(self.norms.iter_mut()) {
            out.extend(l.params_mut());
            if let Some(bn) = n {
                out.extend(bn.params_mut());
            }
        }
        out
    }

    fn buffers_mut(&mut self) -> Vec<&mut crate::tensor::Tensor> {
        self.norms
            .iter_mut()
            .flatten()
            .flat_map(|bn| bn.buffers_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn shapes() {
        let mut rng = Rng::seed_from(1);
        let mut mlp = Mlp::new(&[4, 8, 3], false, &mut rng);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 3);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros([2, 4]));
        let y = mlp.forward(&mut tape, x, Mode::Eval);
        assert_eq!(tape.shape(y).dims(), &[2, 3]);
    }

    #[test]
    fn param_count_with_and_without_bn() {
        let mut rng = Rng::seed_from(2);
        let mut plain = Mlp::new(&[4, 8, 3], false, &mut rng);
        assert_eq!(plain.num_params(), (4 * 8 + 8) + (8 * 3 + 3));
        let mut bn = Mlp::new(&[4, 8, 3], true, &mut rng);
        assert_eq!(bn.num_params(), (4 * 8 + 8) + 16 + (8 * 3 + 3));
    }

    #[test]
    fn all_params_receive_gradients() {
        let mut rng = Rng::seed_from(3);
        let mut mlp = Mlp::new(&[3, 5, 2], true, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::randn([6, 3], &mut rng));
        let y = mlp.forward(&mut tape, x, Mode::Train);
        let s = tape.sum(y);
        let g = tape.backward(s);
        for p in mlp.params_mut() {
            assert!(
                g.get(p.bound_node().unwrap()).is_some(),
                "param {} got no gradient",
                p.key()
            );
        }
    }
}
