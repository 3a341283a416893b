//! Diagnostics for representation dependence.
//!
//! These utilities quantify what OOD-GNN's reweighting actually changes:
//! the (weighted) pairwise dependence between representation dimensions,
//! before and after learning weights. They power the workspace's ablation
//! analysis and give downstream users a way to inspect trained models.

use crate::decorrelation::{decorrelation_loss, DecorrelationKind};
use crate::error::OodGnnError;
use tensor::rng::Rng;
use tensor::{Tape, Tensor};

/// Summary of pairwise dependence in a representation matrix under given
/// sample weights.
#[derive(Debug, Clone, Copy)]
pub struct DependenceReport {
    /// Mean absolute weighted Pearson correlation over dimension pairs.
    pub mean_abs_correlation: f32,
    /// Largest absolute pairwise correlation.
    pub max_abs_correlation: f32,
    /// The decorrelation objective value (RFF, q=1) at these weights.
    pub rff_objective: f32,
}

/// Weighted Pearson correlation matrix statistics of `z` (`[n, d]`) under
/// weights `w` (`[n]`), plus the RFF objective at a fixed seed.
///
/// # Errors
/// [`OodGnnError::Shape`] when `w` does not hold one weight per row of `z`.
pub fn dependence_report(
    z: &Tensor,
    w: &Tensor,
    seed: u64,
) -> Result<DependenceReport, OodGnnError> {
    let (n, d) = z.shape().as_matrix();
    if w.numel() != n {
        return Err(OodGnnError::Shape(format!(
            "dependence_report needs one weight per row: got {} weights for {n} rows",
            w.numel()
        )));
    }
    // Weighted column means/stds.
    let wsum: f32 = w.data().iter().sum();
    let mut means = vec![0f32; d];
    for i in 0..n {
        for (j, m) in means.iter_mut().enumerate() {
            *m += w.data()[i] * z.at(i, j);
        }
    }
    for m in &mut means {
        *m /= wsum.max(1e-12);
    }
    let mut cov = vec![0f32; d * d];
    for i in 0..n {
        for a in 0..d {
            let ca = z.at(i, a) - means[a];
            for b in a..d {
                let cb = z.at(i, b) - means[b];
                cov[a * d + b] += w.data()[i] * ca * cb;
            }
        }
    }
    let mut mean_abs = 0f32;
    let mut max_abs = 0f32;
    let mut pairs = 0usize;
    for a in 0..d {
        for b in (a + 1)..d {
            let denom = (cov[a * d + a] * cov[b * d + b]).sqrt().max(1e-12);
            let r = (cov[a * d + b] / denom).abs();
            mean_abs += r;
            max_abs = max_abs.max(r);
            pairs += 1;
        }
    }
    if pairs > 0 {
        mean_abs /= pairs as f32;
    }
    let rff_objective = {
        let mut rng = Rng::seed_from(seed);
        let mut tape = Tape::new();
        let zn = tape.constant(z.clone());
        let wn = tape.leaf(w.reshape([n]));
        let l = decorrelation_loss(
            &mut tape,
            zn,
            wn,
            &DecorrelationKind::Rff { q: 1 },
            &mut rng,
        )?;
        tape.value(l).item()
    };
    Ok(DependenceReport {
        mean_abs_correlation: mean_abs,
        max_abs_correlation: max_abs,
        rff_objective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_columns_have_low_dependence() {
        let mut rng = Rng::seed_from(1);
        let z = Tensor::randn([256, 4], &mut rng);
        let w = Tensor::ones([256]);
        let rep = dependence_report(&z, &w, 7).unwrap();
        assert!(rep.mean_abs_correlation < 0.1, "{rep:?}");
    }

    #[test]
    fn duplicated_columns_have_max_dependence() {
        let mut rng = Rng::seed_from(2);
        let col: Vec<f32> = (0..128).map(|_| rng.normal()).collect();
        let mut data = Vec::new();
        for &c in &col {
            data.push(c);
            data.push(c);
        }
        let z = Tensor::from_vec(data, [128, 2]);
        let w = Tensor::ones([128]);
        let rep = dependence_report(&z, &w, 7).unwrap();
        assert!(rep.max_abs_correlation > 0.999, "{rep:?}");
    }

    #[test]
    fn downweighting_correlated_rows_lowers_dependence() {
        // Half the rows carry a perfect correlation, half are independent.
        let mut rng = Rng::seed_from(3);
        let n = 128;
        let mut data = Vec::new();
        for i in 0..n {
            let x = rng.normal();
            let y = if i < n / 2 { x } else { rng.normal() };
            data.push(x);
            data.push(y);
        }
        let z = Tensor::from_vec(data, [n, 2]);
        let uniform = Tensor::ones([n]);
        let mut down = Tensor::ones([n]);
        for i in 0..n / 2 {
            down.data_mut()[i] = 0.05;
        }
        let before = dependence_report(&z, &uniform, 7).unwrap();
        let after = dependence_report(&z, &down, 7).unwrap();
        assert!(
            after.mean_abs_correlation < before.mean_abs_correlation,
            "{before:?} -> {after:?}"
        );
    }

    #[test]
    fn weight_count_mismatch_is_a_typed_error() {
        let mut rng = Rng::seed_from(4);
        let z = Tensor::randn([8, 2], &mut rng);
        let w = Tensor::ones([5]);
        let err = dependence_report(&z, &w, 7).unwrap_err();
        assert!(matches!(err, OodGnnError::Shape(_)), "{err}");
    }

    #[test]
    fn weight_stats_uniform() {
        let s = crate::weights::weight_stats(&[1.0; 8]);
        assert_eq!(s.mean, 1.0);
        assert_eq!(s.std, 0.0);
        assert!((s.ess / 8.0 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weight_stats_concentrated() {
        let mut w = vec![0.01f32; 10];
        w[0] = 9.91;
        let s = crate::weights::weight_stats(&w);
        assert!(s.ess / 10.0 < 0.2, "{s:?}");
        assert!(s.max > 9.0);
    }
}
