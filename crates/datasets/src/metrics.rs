//! Evaluation metrics: accuracy, (multi-task) ROC-AUC, RMSE — the three
//! metrics of the paper's Table 1.

use tensor::Tensor;

/// Classification accuracy from logits `[n, classes]` and class targets.
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> f32 {
    assert_eq!(
        logits.nrows(),
        targets.len(),
        "accuracy: row/target mismatch"
    );
    if targets.is_empty() {
        return 0.0;
    }
    let preds = logits.argmax_rows();
    let correct = preds
        .iter()
        .zip(targets.iter())
        .filter(|(p, t)| p == t)
        .count();
    correct as f32 / targets.len() as f32
}

/// Binary ROC-AUC from scores and {0,1} labels via the rank statistic
/// (Mann–Whitney U), with midrank tie handling. Returns `None` when only
/// one class is present.
pub fn roc_auc_binary(scores: &[f32], labels: &[f32]) -> Option<f32> {
    assert_eq!(scores.len(), labels.len());
    let n_pos = labels.iter().filter(|&&y| y > 0.5).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    // Sort indices by score; assign midranks to ties.
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0f64; scores.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[idx[k]] = midrank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = labels
        .iter()
        .zip(ranks.iter())
        .filter(|(&y, _)| y > 0.5)
        .map(|(_, &r)| r)
        .sum();
    let u = rank_sum_pos - (n_pos as f64 * (n_pos as f64 + 1.0)) / 2.0;
    Some((u / (n_pos as f64 * n_neg as f64)) as f32)
}

/// Multi-task ROC-AUC: per-task AUC over observed entries (`mask` = 1),
/// averaged over tasks where both classes occur — OGB's evaluator protocol.
/// Returns 0.5 if no task is scoreable.
pub fn roc_auc_multitask(scores: &Tensor, labels: &Tensor, mask: &Tensor) -> f32 {
    let (n, t) = scores.shape().as_matrix();
    assert_eq!(labels.shape().dims(), &[n, t]);
    assert_eq!(mask.shape().dims(), &[n, t]);
    let mut aucs = Vec::new();
    for task in 0..t {
        let mut s = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            if mask.at(i, task) > 0.5 {
                s.push(scores.at(i, task));
                y.push(labels.at(i, task));
            }
        }
        if let Some(a) = roc_auc_binary(&s, &y) {
            aucs.push(a);
        }
    }
    if aucs.is_empty() {
        0.5
    } else {
        aucs.iter().sum::<f32>() / aucs.len() as f32
    }
}

/// Root mean squared error over all prediction/target entries.
pub fn rmse(preds: &Tensor, targets: &Tensor) -> f32 {
    assert_eq!(preds.shape(), targets.shape(), "rmse shape mismatch");
    let n = preds.numel();
    if n == 0 {
        return 0.0;
    }
    let sq: f32 = preds
        .data()
        .iter()
        .zip(targets.data().iter())
        .map(|(p, t)| (p - t) * (p - t))
        .sum();
    (sq / n as f32).sqrt()
}

/// Mean and sample standard deviation of repeated runs.
pub fn mean_std(values: &[f32]) -> (f32, f32) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f32;
    let mean = values.iter().sum::<f32>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / (n - 1.0);
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], [3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let s = [0.1, 0.2, 0.8, 0.9];
        let y = [0.0, 0.0, 1.0, 1.0];
        assert!((roc_auc_binary(&s, &y).unwrap() - 1.0).abs() < 1e-6);
        let y_inv = [1.0, 1.0, 0.0, 0.0];
        assert!(roc_auc_binary(&s, &y_inv).unwrap().abs() < 1e-6);
    }

    #[test]
    fn auc_random_is_half() {
        // Identical scores => AUC 0.5 by midrank.
        let s = [0.5; 10];
        let y = [0., 1., 0., 1., 0., 1., 0., 1., 0., 1.];
        assert!((roc_auc_binary(&s, &y).unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn auc_single_class_is_none() {
        assert!(roc_auc_binary(&[0.1, 0.9], &[1.0, 1.0]).is_none());
    }

    #[test]
    fn auc_known_partial() {
        // scores: pos {0.8, 0.4}, neg {0.6, 0.2}: pairs won 3/4 -> 0.75
        let s = [0.8, 0.4, 0.6, 0.2];
        let y = [1.0, 1.0, 0.0, 0.0];
        assert!((roc_auc_binary(&s, &y).unwrap() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn multitask_auc_respects_mask() {
        // Task 0 perfectly ranked; task 1 has an observed wrong pair but is
        // masked out entirely except one class -> skipped.
        let scores = Tensor::from_vec(vec![0.9, 0.1, 0.1, 0.9], [2, 2]);
        let labels = Tensor::from_vec(vec![1.0, 1.0, 0.0, 0.0], [2, 2]);
        let mask = Tensor::from_vec(vec![1.0, 1.0, 1.0, 0.0], [2, 2]);
        let auc = roc_auc_multitask(&scores, &labels, &mask);
        assert!((auc - 1.0).abs() < 1e-6);
    }

    #[test]
    fn multitask_auc_averages_tasks() {
        let scores = Tensor::from_vec(vec![0.9, 0.1, 0.1, 0.9], [2, 2]);
        let labels = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        let mask = Tensor::ones([2, 2]);
        // Task 0: perfect (1.0); task 1: perfect (1.0).
        assert!((roc_auc_multitask(&scores, &labels, &mask) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rmse_known() {
        let p = Tensor::from_vec(vec![1.0, 2.0], [2, 1]);
        let t = Tensor::from_vec(vec![0.0, 4.0], [2, 1]);
        // sqrt((1 + 4)/2)
        assert!((rmse(&p, &t) - (2.5f32).sqrt()).abs() < 1e-6);
        assert_eq!(rmse(&p, &p), 0.0);
    }

    #[test]
    fn mean_std_known() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-6);
        assert!((s - 1.0).abs() < 1e-6);
        let (m1, s1) = mean_std(&[5.0]);
        assert_eq!((m1, s1), (5.0, 0.0));
    }
}
