//! The [`Graph`] value type: nodes, directed edge list, dense node features
//! and a label.

use crate::dataset::Label;
use tensor::Tensor;

/// A single attributed graph with a graph-level label.
///
/// Edges are stored as a directed edge list; undirected graphs store both
/// orientations (use [`Graph::add_undirected_edge`]). Node features are a
/// dense `[num_nodes, feature_dim]` matrix.
#[derive(Clone, Debug)]
pub struct Graph {
    num_nodes: usize,
    /// Directed edges as (source, destination) node indices.
    edges: Vec<(u32, u32)>,
    features: Tensor,
    label: Label,
    /// Optional scaffold/group identifier used by scaffold splitting
    /// (OGB-style); `None` for datasets without scaffold structure.
    scaffold: Option<u32>,
}

impl Graph {
    /// Create a graph with `num_nodes` nodes, no edges, the given feature
    /// matrix (`[num_nodes, f]`) and label.
    ///
    /// # Panics
    /// Panics if the feature matrix row count disagrees with `num_nodes`.
    pub fn new(num_nodes: usize, features: Tensor, label: Label) -> Self {
        assert_eq!(
            features.shape().dim(0),
            num_nodes,
            "feature rows {} != num_nodes {num_nodes}",
            features.shape().dim(0)
        );
        Graph {
            num_nodes,
            edges: Vec::new(),
            features,
            label,
            scaffold: None,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges (an undirected edge counts twice).
    pub fn num_directed_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of undirected edges (directed count halved).
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// The directed edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Node feature matrix `[num_nodes, f]`.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// Mutable node feature matrix (used by noise-injection test variants).
    pub fn features_mut(&mut self) -> &mut Tensor {
        &mut self.features
    }

    /// Feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.features.shape().dim(1)
    }

    /// Graph label.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// Scaffold/group id, if assigned.
    pub fn scaffold(&self) -> Option<u32> {
        self.scaffold
    }

    /// Assign a scaffold/group id (used for scaffold splits).
    pub fn set_scaffold(&mut self, scaffold: u32) {
        self.scaffold = Some(scaffold);
    }

    /// Add a directed edge.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_directed_edge(&mut self, src: usize, dst: usize) {
        assert!(
            src < self.num_nodes && dst < self.num_nodes,
            "edge ({src},{dst}) out of range"
        );
        self.edges.push((src as u32, dst as u32));
    }

    /// Add an undirected edge (records both directions).
    pub fn add_undirected_edge(&mut self, a: usize, b: usize) {
        self.add_directed_edge(a, b);
        self.add_directed_edge(b, a);
    }

    /// True if the directed edge (src, dst) exists.
    pub fn has_edge(&self, src: usize, dst: usize) -> bool {
        self.edges.contains(&(src as u32, dst as u32))
    }

    /// Out-degree of every node.
    pub fn degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.num_nodes];
        for &(s, _) in &self.edges {
            d[s as usize] += 1;
        }
        d
    }

    /// Adjacency lists (out-neighbors per node), sorted and deduplicated.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.num_nodes];
        for &(s, t) in &self.edges {
            adj[s as usize].push(t);
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        adj
    }

    /// Validate structural invariants (edge endpoints in range, features
    /// matching node count). Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.features.shape().dim(0) != self.num_nodes {
            return Err(format!(
                "feature rows {} != num_nodes {}",
                self.features.shape().dim(0),
                self.num_nodes
            ));
        }
        for &(s, t) in &self.edges {
            if s as usize >= self.num_nodes || t as usize >= self.num_nodes {
                return Err(format!("edge ({s},{t}) out of range {}", self.num_nodes));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Graph {
        let mut g = Graph::new(3, Tensor::zeros([3, 2]), Label::Class(0));
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(1, 2);
        g
    }

    #[test]
    fn edge_counts() {
        let g = simple();
        assert_eq!(g.num_directed_edges(), 4);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn degrees_and_adjacency() {
        let g = simple();
        assert_eq!(g.degrees(), vec![1, 2, 1]);
        let adj = g.adjacency();
        assert_eq!(adj[1], vec![0, 2]);
    }

    #[test]
    fn validate_ok() {
        assert!(simple().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut g = simple();
        g.add_directed_edge(0, 7);
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn feature_mismatch_panics() {
        let _ = Graph::new(3, Tensor::zeros([2, 2]), Label::Class(0));
    }

    #[test]
    fn scaffold_roundtrip() {
        let mut g = simple();
        assert_eq!(g.scaffold(), None);
        g.set_scaffold(7);
        assert_eq!(g.scaffold(), Some(7));
    }
}
