//! The Adam optimizer.

use super::{clip_grad, Optimizer};
use crate::nn::Param;
use crate::tape::Gradients;
use crate::tensor::Tensor;
use std::collections::HashMap;

struct Moments {
    m: Tensor,
    v: Tensor,
    t: u64,
}

/// Adam (Kingma & Ba) with optional decoupled weight decay and gradient
/// clipping; the default optimizer for every model in this workspace, as in
/// the paper's implementation details (learning rate 1e-4 / 1e-3).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    max_grad_norm: f32,
    state: HashMap<u64, Moments>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            max_grad_norm: 0.0,
            state: HashMap::new(),
        }
    }

    /// Enable decoupled weight decay (AdamW-style).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Enable per-parameter gradient-norm clipping.
    pub fn with_grad_clip(mut self, max_norm: f32) -> Self {
        self.max_grad_norm = max_norm;
        self
    }

    /// One Adam update of `p` from the gradient `g`, with no tape: the body
    /// of [`Optimizer::step`] for a single parameter, for callers that
    /// compute their gradients by hand.
    ///
    /// The moments and the parameter are written in one pass per element,
    /// with the same expressions in the same order as the tensor-op
    /// formulation `m·β1 + g·(1−β1)`, `v·β2 + (g·g)·(1−β2)`.
    pub fn update(&mut self, p: &mut Param, g: &Tensor) {
        let g = clip_grad(g, self.max_grad_norm);
        let st = self.state.entry(p.key()).or_insert_with(|| Moments {
            m: Tensor::zeros(p.value.shape().clone()),
            v: Tensor::zeros(p.value.shape().clone()),
            t: 0,
        });
        st.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(st.t as i32);
        let bc2 = 1.0 - b2.powi(st.t as i32);
        let (lr, eps) = (self.lr, self.eps);
        let decay = -lr * self.weight_decay;
        let m = st.m.data_mut();
        let v = st.v.data_mut();
        let pd = p.value.data_mut();
        for (i, &gi) in g.data().iter().enumerate() {
            m[i] = m[i] * b1 + gi * (1.0 - b1);
            v[i] = v[i] * b2 + (gi * gi) * (1.0 - b2);
            if self.weight_decay > 0.0 {
                pd[i] += decay * pd[i];
            }
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            pd[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    /// Export the per-parameter moment state positionally, in the order of
    /// `params`, for checkpointing: two tensors per parameter (`m`, then
    /// `v`) plus the step counter `t`. Parameters that never received a
    /// gradient export zero moments with `t = 0`, which is behaviorally
    /// identical to having no state at all.
    pub fn export_state(&self, params: &[&Param]) -> (Vec<Tensor>, Vec<u64>) {
        let mut tensors = Vec::with_capacity(2 * params.len());
        let mut steps = Vec::with_capacity(params.len());
        for p in params {
            match self.state.get(&p.key()) {
                Some(st) => {
                    tensors.push(st.m.clone());
                    tensors.push(st.v.clone());
                    steps.push(st.t);
                }
                None => {
                    tensors.push(Tensor::zeros(p.value.shape().clone()));
                    tensors.push(Tensor::zeros(p.value.shape().clone()));
                    steps.push(0);
                }
            }
        }
        (tensors, steps)
    }

    /// Restore moment state exported by [`Adam::export_state`] into this
    /// optimizer, re-keying it to `params` (parameter keys are
    /// process-local, so a resumed run maps state by position instead).
    ///
    /// # Errors
    /// Fails if the counts or any moment shape disagrees with `params`.
    pub fn import_state(
        &mut self,
        params: &[&Param],
        tensors: &[Tensor],
        steps: &[u64],
    ) -> Result<(), String> {
        if tensors.len() != 2 * params.len() || steps.len() != params.len() {
            return Err(format!(
                "optimizer state mismatch: {} moment tensors / {} steps for {} params",
                tensors.len(),
                steps.len(),
                params.len()
            ));
        }
        for (i, p) in params.iter().enumerate() {
            let m = &tensors[2 * i];
            let v = &tensors[2 * i + 1];
            if m.shape() != p.value.shape() || v.shape() != p.value.shape() {
                return Err(format!(
                    "optimizer moment shape mismatch at param {i}: {} vs {}",
                    m.shape(),
                    p.value.shape()
                ));
            }
            self.state.insert(
                p.key(),
                Moments {
                    m: m.clone(),
                    v: v.clone(),
                    t: steps[i],
                },
            );
        }
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: Vec<&mut Param>, grads: &Gradients) {
        for p in params {
            let Some(node) = p.bound_node() else { continue };
            if let Some(g) = grads.get(node) {
                self.update(p, g);
            }
            p.clear_binding();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::tape::Tape;

    #[test]
    fn converges_on_quadratic() {
        let mut p = Param::new(Tensor::scalar(-5.0));
        let mut opt = Adam::new(0.2);
        for _ in 0..200 {
            let mut tape = Tape::new();
            let x = p.bind(&mut tape);
            let c = tape.constant(Tensor::scalar(3.0));
            let d = tape.sub(x, c);
            let loss = tape.square(d);
            let g = tape.backward(loss);
            opt.step(vec![&mut p], &g);
        }
        assert!((p.value.item() - 3.0).abs() < 1e-2, "{}", p.value.item());
    }

    #[test]
    fn fits_linear_regression() {
        // y = 2x + 1 ; fit w, b.
        let mut rng = Rng::seed_from(1);
        let xs = Tensor::randn([64, 1], &mut rng);
        let ys = xs.mul_scalar(2.0).add_scalar(1.0);
        let mut w = Param::new(Tensor::zeros([1, 1]));
        let mut b = Param::new(Tensor::zeros([1]));
        let mut opt = Adam::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut tape = Tape::new();
            let x = tape.constant(xs.clone());
            let wid = w.bind(&mut tape);
            let bid = b.bind(&mut tape);
            let wx = tape.matmul(x, wid);
            let pred = tape.add(wx, bid);
            let y = tape.constant(ys.clone());
            let d = tape.sub(pred, y);
            let sq = tape.square(d);
            let loss = tape.mean(sq);
            last = tape.value(loss).item();
            let g = tape.backward(loss);
            opt.step(vec![&mut w, &mut b], &g);
        }
        assert!(last < 1e-3, "final loss {last}");
        assert!((w.value.item() - 2.0).abs() < 0.05);
        assert!((b.value.item() - 1.0).abs() < 0.05);
    }

    #[test]
    fn learning_rate_setter() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    fn state_roundtrip_resumes_identically() {
        // Train a few steps, export, continue vs import-into-fresh: the two
        // trajectories must match bitwise.
        let quad_step = |p: &mut Param, opt: &mut Adam| {
            let mut tape = Tape::new();
            let x = p.bind(&mut tape);
            let c = tape.constant(Tensor::scalar(3.0));
            let d = tape.sub(x, c);
            let loss = tape.square(d);
            let g = tape.backward(loss);
            opt.step(vec![p], &g);
        };
        let mut p = Param::new(Tensor::scalar(-5.0));
        let mut opt = Adam::new(0.2);
        for _ in 0..10 {
            quad_step(&mut p, &mut opt);
        }
        let (tensors, steps) = opt.export_state(&[&p]);
        let mut p2 = Param::new(p.value.clone());
        let mut opt2 = Adam::new(0.2);
        opt2.import_state(&[&p2], &tensors, &steps).unwrap();
        for _ in 0..10 {
            quad_step(&mut p, &mut opt);
            quad_step(&mut p2, &mut opt2);
            assert_eq!(p.value.data(), p2.value.data());
        }
    }

    #[test]
    fn import_rejects_shape_mismatch() {
        let p = Param::new(Tensor::zeros([3]));
        let mut opt = Adam::new(0.1);
        let bad = vec![Tensor::zeros([2]), Tensor::zeros([2])];
        assert!(opt.import_state(&[&p], &bad, &[1]).is_err());
        assert!(opt.import_state(&[&p], &[], &[]).is_err());
    }

    #[test]
    fn export_without_steps_is_zero_state() {
        let p = Param::new(Tensor::zeros([2, 2]));
        let opt = Adam::new(0.1);
        let (tensors, steps) = opt.export_state(&[&p]);
        assert_eq!(tensors.len(), 2);
        assert_eq!(steps, vec![0]);
        assert!(tensors.iter().all(|t| t.data().iter().all(|&x| x == 0.0)));
    }

    #[test]
    fn one_pass_update_matches_the_tensor_op_formulation_bitwise() {
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (b1, b2, eps, lr, wd) = (0.9f32, 0.999f32, 1e-8f32, 0.01f32, 0.1f32);
        let mut rng = Rng::seed_from(3);
        let mut p = Param::new(Tensor::randn([37], &mut rng));
        let mut reference = p.value.clone();
        let (mut m, mut v) = (Tensor::zeros([37]), Tensor::zeros([37]));
        let mut opt = Adam::new(lr).with_weight_decay(wd);
        for t in 1..=5 {
            let g = Tensor::randn([37], &mut rng);
            opt.update(&mut p, &g);
            m = m.mul_scalar(b1).add(&g.mul_scalar(1.0 - b1));
            v = v.mul_scalar(b2).add(&g.map(|x| x * x).mul_scalar(1.0 - b2));
            let (bc1, bc2) = (1.0 - b1.powi(t), 1.0 - b2.powi(t));
            let pv = reference.clone();
            reference.axpy(-lr * wd, &pv);
            for (i, slot) in reference.data_mut().iter_mut().enumerate() {
                *slot -= lr * (m.data()[i] / bc1) / ((v.data()[i] / bc2).sqrt() + eps);
            }
            assert_eq!(bits(&p.value), bits(&reference), "step {t}");
        }
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut p = Param::new(Tensor::scalar(1.0));
        let mut opt = Adam::new(0.01).with_weight_decay(0.1);
        for _ in 0..10 {
            let mut tape = Tape::new();
            let x = p.bind(&mut tape);
            let z = tape.mul_scalar(x, 0.0);
            let g = tape.backward(z);
            opt.step(vec![&mut p], &g);
        }
        assert!(p.value.item() < 1.0);
    }
}
