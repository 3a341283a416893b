//! Dataset containers, task types and labels.

use crate::graph::Graph;
use tensor::Tensor;

/// A graph-level label. The three variants correspond to the paper's three
/// task types (Table 1): multi-class classification, (multi-task) binary
/// classification and regression.
#[derive(Clone, Debug, PartialEq)]
pub enum Label {
    /// Single-label multi-class classification (class index).
    Class(usize),
    /// Multi-task binary classification: per-task {0,1} values with an
    /// observation mask (1 = observed), matching OGB's missing labels.
    MultiBinary {
        /// Per-task target in {0, 1}.
        values: Vec<f32>,
        /// Per-task observation mask in {0, 1}.
        mask: Vec<f32>,
    },
    /// Regression targets.
    Regression(Vec<f32>),
}

impl Label {
    /// The class index, panicking for non-classification labels.
    pub fn class(&self) -> usize {
        match self {
            Label::Class(c) => *c,
            other => panic!("expected Class label, got {other:?}"),
        }
    }
}

/// The prediction task of a dataset, which determines the model head size,
/// the loss and the evaluation metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskType {
    /// Multi-class classification with `classes` classes (metric: accuracy).
    MultiClass {
        /// Number of classes.
        classes: usize,
    },
    /// `tasks` parallel binary classification tasks (metric: mean ROC-AUC).
    BinaryClassification {
        /// Number of binary tasks.
        tasks: usize,
    },
    /// Regression with `targets` outputs (metric: RMSE).
    Regression {
        /// Number of regression targets.
        targets: usize,
    },
}

impl TaskType {
    /// Output dimension the model head must produce.
    pub fn output_dim(&self) -> usize {
        match self {
            TaskType::MultiClass { classes } => *classes,
            TaskType::BinaryClassification { tasks } => *tasks,
            TaskType::Regression { targets } => *targets,
        }
    }

    /// True for regression tasks (lower metric is better).
    pub fn is_regression(&self) -> bool {
        matches!(self, TaskType::Regression { .. })
    }
}

/// A named collection of graphs with uniform task and feature schema.
pub struct GraphDataset {
    name: String,
    graphs: Vec<Graph>,
    task: TaskType,
    feature_dim: usize,
}

impl GraphDataset {
    /// Build a dataset, validating that every graph shares the feature
    /// dimension and a label consistent with `task`.
    ///
    /// # Panics
    /// Panics on schema violations — generators are expected to be correct.
    pub fn new(name: impl Into<String>, graphs: Vec<Graph>, task: TaskType) -> Self {
        assert!(!graphs.is_empty(), "empty dataset");
        let feature_dim = graphs[0].feature_dim();
        for (i, g) in graphs.iter().enumerate() {
            assert_eq!(g.feature_dim(), feature_dim, "graph {i} feature dim");
            g.validate().unwrap_or_else(|e| panic!("graph {i}: {e}"));
            match (&task, g.label()) {
                (TaskType::MultiClass { classes }, Label::Class(c)) => {
                    assert!(c < classes, "graph {i} class {c} out of range");
                }
                (TaskType::BinaryClassification { tasks }, Label::MultiBinary { values, mask }) => {
                    assert_eq!(values.len(), *tasks, "graph {i} task count");
                    assert_eq!(mask.len(), *tasks, "graph {i} mask count");
                }
                (TaskType::Regression { targets }, Label::Regression(v)) => {
                    assert_eq!(v.len(), *targets, "graph {i} target count");
                }
                (t, l) => panic!("graph {i}: label {l:?} does not match task {t:?}"),
            }
        }
        GraphDataset {
            name: name.into(),
            graphs,
            task,
            feature_dim,
        }
    }

    /// Dataset name (e.g. `"TRIANGLES"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All graphs.
    pub fn graphs(&self) -> &[Graph] {
        &self.graphs
    }

    /// Number of graphs.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True if empty (never: construction requires ≥1 graph).
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The prediction task.
    pub fn task(&self) -> TaskType {
        self.task
    }

    /// Node feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// A graph by index.
    pub fn graph(&self, i: usize) -> &Graph {
        &self.graphs[i]
    }

    /// Summary statistics: (num graphs, avg nodes, avg undirected edges).
    pub fn stats(&self) -> (usize, f32, f32) {
        let n = self.len();
        let nodes: usize = self.graphs.iter().map(|g| g.num_nodes()).sum();
        let edges: usize = self.graphs.iter().map(|g| g.num_edges()).sum();
        (n, nodes as f32 / n as f32, edges as f32 / n as f32)
    }

    /// Stack class labels into a target vector (classification datasets).
    pub fn class_labels(&self, indices: &[usize]) -> Vec<usize> {
        indices
            .iter()
            .map(|&i| self.graphs[i].label().class())
            .collect()
    }

    /// Stack multi-binary labels into `(targets, mask)` matrices of shape
    /// `[n, tasks]`.
    pub fn binary_labels(&self, indices: &[usize]) -> (Tensor, Tensor) {
        let tasks = match self.task {
            TaskType::BinaryClassification { tasks } => tasks,
            t => panic!("binary_labels on {t:?}"),
        };
        let n = indices.len();
        let mut values = Tensor::zeros([n, tasks]);
        let mut mask = Tensor::zeros([n, tasks]);
        for (row, &i) in indices.iter().enumerate() {
            match self.graphs[i].label() {
                Label::MultiBinary { values: v, mask: m } => {
                    for t in 0..tasks {
                        *values.at_mut(row, t) = v[t];
                        *mask.at_mut(row, t) = m[t];
                    }
                }
                l => panic!("graph {i} label {l:?}"),
            }
        }
        (values, mask)
    }

    /// Stack regression targets into a `[n, targets]` matrix.
    pub fn regression_targets(&self, indices: &[usize]) -> Tensor {
        let targets = match self.task {
            TaskType::Regression { targets } => targets,
            t => panic!("regression_targets on {t:?}"),
        };
        let n = indices.len();
        let mut out = Tensor::zeros([n, targets]);
        for (row, &i) in indices.iter().enumerate() {
            match self.graphs[i].label() {
                Label::Regression(v) => {
                    for (t, &val) in v.iter().enumerate().take(targets) {
                        *out.at_mut(row, t) = val;
                    }
                }
                l => panic!("graph {i} label {l:?}"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with_class(c: usize, nodes: usize) -> Graph {
        let mut g = Graph::new(nodes, Tensor::zeros([nodes, 2]), Label::Class(c));
        if nodes >= 2 {
            g.add_undirected_edge(0, 1);
        }
        g
    }

    #[test]
    fn dataset_construction_and_stats() {
        let ds = GraphDataset::new(
            "toy",
            vec![graph_with_class(0, 3), graph_with_class(1, 5)],
            TaskType::MultiClass { classes: 2 },
        );
        assert_eq!(ds.len(), 2);
        let (n, avg_nodes, avg_edges) = ds.stats();
        assert_eq!(n, 2);
        assert_eq!(avg_nodes, 4.0);
        assert_eq!(avg_edges, 1.0);
        assert_eq!(ds.class_labels(&[0, 1]), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "class 5 out of range")]
    fn class_out_of_range_rejected() {
        let _ = GraphDataset::new(
            "bad",
            vec![graph_with_class(5, 3)],
            TaskType::MultiClass { classes: 2 },
        );
    }

    #[test]
    #[should_panic(expected = "does not match task")]
    fn label_task_mismatch_rejected() {
        let _ = GraphDataset::new(
            "bad",
            vec![graph_with_class(0, 3)],
            TaskType::Regression { targets: 1 },
        );
    }

    #[test]
    fn binary_label_stacking() {
        let mut g = Graph::new(
            2,
            Tensor::zeros([2, 1]),
            Label::MultiBinary {
                values: vec![1.0, 0.0],
                mask: vec![1.0, 0.0],
            },
        );
        g.add_undirected_edge(0, 1);
        let ds = GraphDataset::new("b", vec![g], TaskType::BinaryClassification { tasks: 2 });
        let (v, m) = ds.binary_labels(&[0]);
        assert_eq!(v.data(), &[1.0, 0.0]);
        assert_eq!(m.data(), &[1.0, 0.0]);
    }

    #[test]
    fn regression_target_stacking() {
        let g = Graph::new(1, Tensor::zeros([1, 1]), Label::Regression(vec![2.5]));
        let ds = GraphDataset::new("r", vec![g], TaskType::Regression { targets: 1 });
        let t = ds.regression_targets(&[0]);
        assert_eq!(t.data(), &[2.5]);
    }

    #[test]
    fn task_output_dims() {
        assert_eq!(TaskType::MultiClass { classes: 10 }.output_dim(), 10);
        assert_eq!(
            TaskType::BinaryClassification { tasks: 12 }.output_dim(),
            12
        );
        assert_eq!(TaskType::Regression { targets: 1 }.output_dim(), 1);
        assert!(TaskType::Regression { targets: 1 }.is_regression());
        assert!(!TaskType::MultiClass { classes: 2 }.is_regression());
    }
}
