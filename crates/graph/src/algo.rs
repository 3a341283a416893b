//! Classic graph algorithms used by the synthetic generators and tests:
//! exact triangle counting, connectivity, node degrees.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Exact triangle count via the node-iterator algorithm: for every node,
/// count adjacent neighbor pairs; every triangle is counted three times.
///
/// Treats the graph as undirected (edges are deduplicated symmetrically).
pub fn triangle_count(g: &Graph) -> usize {
    let adj = g.adjacency();
    let n = g.num_nodes();
    // Neighbor bitsets via sorted adjacency + binary search.
    let mut count = 0usize;
    for u in 0..n {
        let nu = &adj[u];
        for (i, &v) in nu.iter().enumerate() {
            if (v as usize) <= u {
                continue;
            }
            for &w in &nu[i + 1..] {
                if (w as usize) <= u || w == v {
                    continue;
                }
                if adj[v as usize].binary_search(&w).is_ok() {
                    count += 1;
                }
            }
        }
    }
    count
}

/// True if the graph is connected (ignoring direction). Empty and
/// single-node graphs are connected.
pub fn is_connected(g: &Graph) -> bool {
    let n = g.num_nodes();
    if n <= 1 {
        return true;
    }
    let mut adj = vec![Vec::new(); n];
    for &(s, t) in g.edges() {
        adj[s as usize].push(t as usize);
        adj[t as usize].push(s as usize);
    }
    let mut seen = vec![false; n];
    let mut queue = VecDeque::from([0usize]);
    seen[0] = true;
    let mut visited = 1usize;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                visited += 1;
                queue.push_back(v);
            }
        }
    }
    visited == n
}

/// Undirected degree (number of distinct neighbors) of every node.
pub fn undirected_degrees(g: &Graph) -> Vec<usize> {
    g.adjacency().iter().map(|a| a.len()).collect()
}

/// One-hot encode node degrees, clamped to `max_deg` (features used by the
/// TRIANGLES dataset: "node features are set as one-hot degrees").
pub fn one_hot_degree_features(g: &Graph, max_deg: usize) -> tensor::Tensor {
    let degs = undirected_degrees(g);
    let mut feats = tensor::Tensor::zeros([g.num_nodes(), max_deg + 1]);
    for (i, &d) in degs.iter().enumerate() {
        let d = d.min(max_deg);
        *feats.at_mut(i, d) = 1.0;
    }
    feats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Label;
    use tensor::Tensor;

    fn empty(n: usize) -> Graph {
        Graph::new(n, Tensor::zeros([n, 1]), Label::Class(0))
    }

    fn complete(n: usize) -> Graph {
        let mut g = empty(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_undirected_edge(i, j);
            }
        }
        g
    }

    #[test]
    fn triangle_count_known_graphs() {
        assert_eq!(triangle_count(&complete(3)), 1);
        assert_eq!(triangle_count(&complete(4)), 4);
        assert_eq!(triangle_count(&complete(5)), 10);
        // C(n,3) for complete graphs
        assert_eq!(triangle_count(&complete(7)), 35);
    }

    #[test]
    fn path_has_no_triangles() {
        let mut g = empty(5);
        for i in 1..5 {
            g.add_undirected_edge(i - 1, i);
        }
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn cycle_four_has_no_triangles_but_with_chord_one() {
        let mut g = empty(4);
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(1, 2);
        g.add_undirected_edge(2, 3);
        g.add_undirected_edge(3, 0);
        assert_eq!(triangle_count(&g), 0);
        g.add_undirected_edge(0, 2);
        assert_eq!(triangle_count(&g), 2);
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&complete(4)));
        assert!(is_connected(&empty(1)));
        let mut g = empty(4);
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(2, 3);
        assert!(!is_connected(&g));
    }

    #[test]
    fn degree_one_hot() {
        let mut g = empty(3);
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(1, 2);
        let f = one_hot_degree_features(&g, 3);
        assert_eq!(f.shape().dims(), &[3, 4]);
        assert_eq!(f.row(0), &[0., 1., 0., 0.]);
        assert_eq!(f.row(1), &[0., 0., 1., 0.]);
    }

    #[test]
    fn degree_clamped_to_max() {
        let g = complete(6); // degree 5 everywhere
        let f = one_hot_degree_features(&g, 3);
        assert_eq!(f.row(0), &[0., 0., 0., 1.]);
    }
}
