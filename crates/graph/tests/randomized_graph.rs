//! Randomized tests for the graph data model: batching invariants,
//! permutation invariance of triangle counting, degree sums and
//! connectivity.
//! Each property runs over a fixed fan of seeds through the in-tree
//! [`Rng`].

use ood_graph::algo::{is_connected, triangle_count, undirected_degrees};
use ood_graph::{Graph, GraphBatch, Label};
use tensor::rng::Rng;
use tensor::Tensor;

/// A random undirected graph with 2–11 nodes and up to 29 candidate edges.
fn random_graph(rng: &mut Rng) -> Graph {
    let n = rng.range_inclusive(2, 11);
    let n_edges = rng.below(30);
    let mut g = Graph::new(n, Tensor::zeros([n, 2]), Label::Class(0));
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..n_edges {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b && seen.insert((a.min(b), a.max(b))) {
            g.add_undirected_edge(a, b);
        }
    }
    g
}

#[test]
fn triangle_count_is_permutation_invariant() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let g = random_graph(&mut rng);
        let n = g.num_nodes();
        let perm = rng.permutation(n);
        let mut h = Graph::new(n, Tensor::zeros([n, 2]), Label::Class(0));
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in g.edges() {
            let (pa, pb) = (perm[a as usize], perm[b as usize]);
            if seen.insert((pa.min(pb), pa.max(pb))) {
                h.add_undirected_edge(pa, pb);
            }
        }
        assert_eq!(triangle_count(&g), triangle_count(&h), "seed {seed}");
    }
}

#[test]
fn degrees_sum_to_twice_edges() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let g = random_graph(&mut rng);
        let total: usize = undirected_degrees(&g).iter().sum();
        assert_eq!(total, 2 * g.num_edges(), "seed {seed}");
    }
}

#[test]
fn batching_preserves_node_and_edge_counts() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let count = rng.range_inclusive(1, 5);
        let graphs: Vec<Graph> = (0..count).map(|_| random_graph(&mut rng)).collect();
        let refs: Vec<&Graph> = graphs.iter().collect();
        let batch = GraphBatch::from_graphs(&refs);
        let total_nodes: usize = graphs.iter().map(|g| g.num_nodes()).sum();
        let total_edges: usize = graphs.iter().map(|g| g.num_directed_edges()).sum();
        assert_eq!(batch.num_nodes(), total_nodes, "seed {seed}");
        assert_eq!(batch.num_edges(), total_edges, "seed {seed}");
        // Batch vector is sorted and spans all graphs.
        assert!(batch.batch.windows(2).all(|w| w[0] <= w[1]), "seed {seed}");
        assert_eq!(
            batch.batch.last().copied(),
            Some(graphs.len() - 1),
            "seed {seed}"
        );
        // Edges never cross graph boundaries.
        for (&s, &d) in batch.edge_src.iter().zip(batch.edge_dst.iter()) {
            assert_eq!(batch.batch[s], batch.batch[d], "seed {seed}");
        }
    }
}

#[test]
fn gcn_norms_are_positive_and_bounded() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let g = random_graph(&mut rng);
        let batch = GraphBatch::from_graphs(&[&g]);
        for v in batch.gcn_edge_norm() {
            assert!(v > 0.0 && v <= 1.0, "seed {seed}: edge norm {v}");
        }
        for v in batch.gcn_self_norm() {
            assert!(v > 0.0 && v <= 1.0, "seed {seed}: self norm {v}");
        }
    }
}

#[test]
fn connectivity_is_monotone_under_edge_addition() {
    for seed in 0..64 {
        let mut rng = Rng::seed_from(seed);
        let g = random_graph(&mut rng);
        // Adding a spanning path makes any graph connected.
        let mut h = g.clone();
        for i in 1..h.num_nodes() {
            h.add_undirected_edge(i - 1, i);
        }
        assert!(is_connected(&h), "seed {seed}");
    }
}
