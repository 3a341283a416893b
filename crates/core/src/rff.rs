//! Random Fourier features (Eq. 4 of the paper).
//!
//! The RFF function space is `H_RFF = {h : x → √2·cos(wx + φ)}` with
//! `w ~ N(0,1)`, `φ ~ Uniform(0, 2π)`. For a representation matrix
//! `Z ∈ R^{n×d}`, `Q` functions are sampled **per dimension** and applied
//! element-wise, giving `Q` feature matrices of shape `[n, d]` whose
//! column `i` is `f_q(Z_{*i})`. As `Q` grows, vanishing weighted
//! cross-covariance between dimensions approaches true statistical
//! independence (the paper's Variant-1 ablation; `Q = 1` is the paper's
//! default, `Q = 5` is called "solid enough" by its reference \[58\]).

use std::rc::Rc;
use tensor::rng::Rng;
use tensor::{ops, NodeId, Tape, Tensor};

/// Sampled RFF parameters for a `d`-dimensional representation: `Q`
/// frequency/phase rows, each applied to all `d` dimensions.
#[derive(Clone, Debug)]
pub struct RffParams {
    /// Frequencies `[Q, d]`, drawn `N(0, 1)`.
    pub w: Tensor,
    /// Phases `[Q, d]`, drawn `Uniform(0, 2π)`.
    pub phi: Tensor,
    /// Per-function `[d]` row tensors `(w_q, φ_q)`, split out of `w`/`phi`
    /// once at sample time and held behind `Rc` so [`RffParams::apply`]
    /// shares them with every fused `cos_feature` node instead of cloning
    /// each row into a fresh constant on every batch of every epoch.
    rows: Vec<(Rc<Tensor>, Rc<Tensor>)>,
}

impl RffParams {
    /// Sample `q` random Fourier functions per dimension.
    pub fn sample(d: usize, q: usize, rng: &mut Rng) -> Self {
        assert!(q >= 1, "need at least one RFF function");
        let w = Tensor::randn([q, d], rng);
        let phi = Tensor::rand_uniform([q, d], 0.0, 2.0 * std::f32::consts::PI, rng);
        let rows = (0..q)
            .map(|qi| (Rc::new(row_of(&w, qi)), Rc::new(row_of(&phi, qi))))
            .collect();
        RffParams { w, phi, rows }
    }

    /// Number of functions `Q`.
    pub fn q(&self) -> usize {
        self.w.shape().dim(0)
    }

    /// Representation dimension `d`.
    pub fn d(&self) -> usize {
        self.w.shape().dim(1)
    }

    /// Apply on the tape: returns `Q` nodes, each `[n, d]`, where entry
    /// `(n, i)` of output `q` is `√2·cos(w_{q,i}·Z_{n,i} + φ_{q,i})`.
    pub fn apply(&self, tape: &mut Tape, z: NodeId) -> Vec<NodeId> {
        let (_, d) = tape.shape(z).as_matrix();
        assert_eq!(
            d,
            self.d(),
            "RFF params sampled for d={}, got d={d}",
            self.d()
        );
        let sqrt2 = std::f32::consts::SQRT_2;
        self.rows
            .iter()
            .map(|(w_row, phi_row)| {
                // One fused node per function: the rows are captured by the
                // op through the shared `Rc`s, so applying Q functions costs
                // Q tape nodes and a single output buffer each, instead of
                // the old mul→add→cos→mul_scalar chain with two constant
                // clones per call.
                tape.cos_feature(z, w_row.clone(), phi_row.clone(), sqrt2)
            })
            .collect()
    }

    /// The `Q` feature matrices of a fixed `z` (`[n, d]`), without a tape:
    /// the same kernel and values as [`RffParams::apply`].
    pub fn features(&self, z: &Tensor) -> Vec<Tensor> {
        assert_eq!(z.ncols(), self.d(), "RFF params sampled for d={}", self.d());
        self.rows
            .iter()
            .map(|(w_row, phi_row)| ops::cos_feature(z, w_row, phi_row, std::f32::consts::SQRT_2))
            .collect()
    }
}

/// Extract row `i` of a matrix as a `[d]` vector tensor.
fn row_of(t: &Tensor, i: usize) -> Tensor {
    Tensor::from_vec(t.row(i).to_vec(), [t.ncols()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_bounds() {
        let mut rng = Rng::seed_from(1);
        let params = RffParams::sample(4, 3, &mut rng);
        assert_eq!(params.q(), 3);
        assert_eq!(params.d(), 4);
        let mut tape = Tape::new();
        let z = tape.leaf(Tensor::randn([10, 4], &mut rng));
        let feats = params.apply(&mut tape, z);
        assert_eq!(feats.len(), 3);
        for f in &feats {
            assert_eq!(tape.shape(*f).dims(), &[10, 4]);
            // |√2·cos| ≤ √2
            let v = tape.value(*f);
            assert!(v
                .data()
                .iter()
                .all(|x| x.abs() <= std::f32::consts::SQRT_2 + 1e-5));
        }
    }

    #[test]
    fn deterministic_given_params() {
        let mut rng = Rng::seed_from(2);
        let params = RffParams::sample(3, 2, &mut rng);
        let z_data = Tensor::randn([5, 3], &mut rng);
        let run = || {
            let mut tape = Tape::new();
            let z = tape.leaf(z_data.clone());
            let feats = params.apply(&mut tape, z);
            tape.value(feats[0]).clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn matches_scalar_formula() {
        let mut rng = Rng::seed_from(3);
        let params = RffParams::sample(2, 1, &mut rng);
        let z_data = Tensor::from_vec(vec![0.5, -1.0], [1, 2]);
        let mut tape = Tape::new();
        let z = tape.leaf(z_data.clone());
        let feats = params.apply(&mut tape, z);
        let v = tape.value(feats[0]);
        for i in 0..2 {
            let expected = std::f32::consts::SQRT_2
                * (params.w.at(0, i) * z_data.at(0, i) + params.phi.at(0, i)).cos();
            assert!((v.at(0, i) - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_flow_through_rff() {
        let mut rng = Rng::seed_from(4);
        let params = RffParams::sample(3, 2, &mut rng);
        let z_data = Tensor::randn([4, 3], &mut rng);
        tensor::check::assert_gradients(&[z_data], 1e-3, 2e-2, move |tape, ids| {
            let feats = params.apply(tape, ids[0]);
            let mut acc = tape.square(feats[0]);
            for f in &feats[1..] {
                let sq = tape.square(*f);
                acc = tape.add(acc, sq);
            }
            tape.sum(acc)
        });
    }

    #[test]
    #[should_panic(expected = "sampled for d=")]
    fn dimension_mismatch_rejected() {
        let mut rng = Rng::seed_from(5);
        let params = RffParams::sample(3, 1, &mut rng);
        let mut tape = Tape::new();
        let z = tape.leaf(Tensor::zeros([2, 5]));
        let _ = params.apply(&mut tape, z);
    }
}
