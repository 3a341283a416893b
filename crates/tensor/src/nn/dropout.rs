//! Inverted dropout.

use crate::pool;
use crate::rng::Rng;
use crate::tape::{NodeId, Tape};
use crate::tensor::Tensor;
use crate::Mode;

/// Inverted dropout: at train time each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1-p)`; at eval time it is the
/// identity.
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Dropout with drop probability `p ∈ [0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        Dropout { p }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Forward pass; the RNG drives the mask at train time.
    pub fn forward(&self, tape: &mut Tape, x: NodeId, mode: Mode, rng: &mut Rng) -> NodeId {
        if !mode.is_train() || self.p == 0.0 {
            return x;
        }
        let shape = tape.shape(x).clone();
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        // The mask is the largest per-step buffer: recycle it through the
        // pool. Every element is written, in the same RNG order.
        let mut mask_data = pool::take_raw(shape.numel());
        for m in &mut mask_data {
            *m = if rng.bernoulli(keep) { scale } else { 0.0 };
        }
        let mask = tape.constant(Tensor::from_vec(mask_data, shape));
        tape.mul(x, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let d = Dropout::new(0.5);
        let mut rng = Rng::seed_from(1);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([4, 4]));
        let y = d.forward(&mut tape, x, Mode::Eval, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn train_preserves_expectation() {
        let d = Dropout::new(0.3);
        let mut rng = Rng::seed_from(2);
        let mut total = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let mut tape = Tape::new();
            let x = tape.leaf(Tensor::ones([10, 10]));
            let y = d.forward(&mut tape, x, Mode::Train, &mut rng);
            total += tape.value(y).mean();
        }
        let avg = total / trials as f32;
        assert!((avg - 1.0).abs() < 0.02, "mean after dropout {avg}");
    }

    #[test]
    fn zero_p_is_identity_even_in_train() {
        let d = Dropout::new(0.0);
        let mut rng = Rng::seed_from(3);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 2]));
        let y = d.forward(&mut tape, x, Mode::Train, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn rejects_p_one() {
        let _ = Dropout::new(1.0);
    }

    #[test]
    fn gradient_respects_mask() {
        let d = Dropout::new(0.5);
        let mut rng = Rng::seed_from(4);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones([8, 8]));
        let y = d.forward(&mut tape, x, Mode::Train, &mut rng);
        let s = tape.sum(y);
        let g = tape.backward(s);
        let gx = g.get(x).unwrap();
        let yv = tape.value(y);
        for (gv, yvv) in gx.data().iter().zip(yv.data().iter()) {
            if *yvv == 0.0 {
                assert_eq!(*gv, 0.0);
            } else {
                assert!((*gv - 2.0).abs() < 1e-6);
            }
        }
    }
}
