//! Train/validation/test index sets and the scaffold split.
//!
//! The paper's Table 1 "Split Method" column names two OOD shifts. The
//! **size-based** one (train on small graphs, test on larger — the
//! TRIANGLES/COLLAB/PROTEINS/D&D shift) is built by each generator in
//! `ood-datasets`, which knows its own size ranges. The
//! **scaffold-based** one (structurally disjoint molecule groups — the OGB
//! shift) is [`scaffold_split`].

use crate::dataset::GraphDataset;

/// Index sets for train/validation/test.
#[derive(Clone, Debug, Default)]
pub struct Split {
    /// Training indices.
    pub train: Vec<usize>,
    /// Validation indices.
    pub val: Vec<usize>,
    /// Test indices.
    pub test: Vec<usize>,
}

impl Split {
    /// Validate that the split is a partition of disjoint indices within
    /// `len` (not necessarily covering — size splits may drop mid-range
    /// graphs).
    pub fn validate(&self, len: usize) -> Result<(), String> {
        let mut seen = vec![false; len];
        for (name, ids) in [
            ("train", &self.train),
            ("val", &self.val),
            ("test", &self.test),
        ] {
            for &i in ids {
                if i >= len {
                    return Err(format!("{name} index {i} out of range {len}"));
                }
                if seen[i] {
                    return Err(format!("index {i} appears in multiple splits"));
                }
                seen[i] = true;
            }
        }
        Ok(())
    }

    /// Total number of assigned indices.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// True if all three sets are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Scaffold-based OOD split: order scaffold groups by descending size and
/// fill train, then val, then test — structurally distinct molecules end up
/// in different subsets (the OGB scaffold-split protocol).
///
/// # Panics
/// Panics if any graph lacks a scaffold id.
pub fn scaffold_split(ds: &GraphDataset, train_frac: f32, val_frac: f32) -> Split {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, g) in ds.graphs().iter().enumerate() {
        let s = g
            .scaffold()
            .unwrap_or_else(|| panic!("graph {i} has no scaffold id"));
        groups.entry(s).or_default().push(i);
    }
    // Largest scaffolds first (OGB convention) with scaffold id as
    // deterministic tiebreak.
    let mut ordered: Vec<(u32, Vec<usize>)> = groups.into_iter().collect();
    ordered.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
    let n = ds.len();
    let n_train = (n as f32 * train_frac).round() as usize;
    let n_val = (n as f32 * val_frac).round() as usize;
    let mut split = Split::default();
    for (_, members) in ordered {
        if split.train.len() + members.len() <= n_train || split.train.is_empty() {
            split.train.extend(members);
        } else if split.val.len() + members.len() <= n_val || split.val.is_empty() {
            split.val.extend(members);
        } else {
            split.test.extend(members);
        }
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Label, TaskType};
    use crate::graph::Graph;
    use tensor::Tensor;

    #[test]
    fn scaffold_split_keeps_groups_intact() {
        let mut graphs = Vec::new();
        for i in 0..30 {
            let mut g = Graph::new(2, Tensor::zeros([2, 1]), Label::Class(0));
            g.add_undirected_edge(0, 1);
            g.set_scaffold((i / 5) as u32); // 6 scaffolds of 5 graphs
            graphs.push(g);
        }
        let ds = GraphDataset::new("sc", graphs, TaskType::MultiClass { classes: 1 });
        let s = scaffold_split(&ds, 0.5, 0.2);
        s.validate(30).unwrap();
        assert_eq!(s.len(), 30);
        // No scaffold may span two subsets.
        let subset_of = |i: usize| -> u8 {
            if s.train.contains(&i) {
                0
            } else if s.val.contains(&i) {
                1
            } else {
                2
            }
        };
        for sc in 0..6u32 {
            let members: Vec<usize> = (0..30)
                .filter(|&i| ds.graph(i).scaffold() == Some(sc))
                .collect();
            let first = subset_of(members[0]);
            assert!(
                members.iter().all(|&m| subset_of(m) == first),
                "scaffold {sc} split across subsets"
            );
        }
    }

    #[test]
    fn scaffold_split_test_nonempty() {
        let mut graphs = Vec::new();
        for i in 0..100 {
            let mut g = Graph::new(2, Tensor::zeros([2, 1]), Label::Class(0));
            g.add_undirected_edge(0, 1);
            g.set_scaffold((i / 4) as u32);
            graphs.push(g);
        }
        let ds = GraphDataset::new("sc", graphs, TaskType::MultiClass { classes: 1 });
        let s = scaffold_split(&ds, 0.8, 0.1);
        assert!(!s.test.is_empty());
        assert!(s.train.len() >= 70);
    }

    #[test]
    fn validate_detects_overlap() {
        let s = Split {
            train: vec![0, 1],
            val: vec![1],
            test: vec![],
        };
        assert!(s.validate(3).is_err());
    }

    #[test]
    fn validate_detects_out_of_range() {
        let s = Split {
            train: vec![5],
            val: vec![],
            test: vec![],
        };
        assert!(s.validate(3).is_err());
    }
}
