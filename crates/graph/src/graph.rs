//! Compact undirected graph representation.
//!
//! The simulator and the algorithms only ever need neighbourhood queries and
//! iteration, so the graph is stored in CSR (compressed sparse row) form:
//! immutable, cache-friendly and cheap to clone by reference. Construction
//! goes through [`GraphBuilder`], which deduplicates parallel edges and
//! rejects self-loops (the radio-network model has neither).

use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a vertex; vertices are always `0..n`.
pub type NodeId = usize;

/// An immutable, undirected, simple graph in CSR form.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated, sorted adjacency lists.
    neighbors: Vec<NodeId>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl Graph {
    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// Self-loops are ignored; parallel edges are collapsed. Panics if an
    /// endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Creates the empty graph (no vertices, no edges).
    pub fn empty() -> Self {
        Graph {
            offsets: vec![0],
            neighbors: Vec::new(),
            num_edges: 0,
        }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Neighbourhood `N(v)` as a sorted slice.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree Δ of the graph (0 for an empty/edgeless graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if `{u, v}` is an edge. `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u >= self.num_nodes() || v >= self.num_nodes() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The raw CSR arrays `(offsets, neighbors, num_edges)`.
    ///
    /// This is the serialization surface of the dataset layer
    /// (`radio_graph::dataset`): two graphs are byte-identical exactly when
    /// these parts are equal, and [`Graph::from_csr_parts`] round-trips them.
    pub fn csr_parts(&self) -> (&[usize], &[NodeId], usize) {
        (&self.offsets, &self.neighbors, self.num_edges)
    }

    /// Reassembles a graph from raw CSR arrays, validating every structural
    /// invariant the rest of the crate relies on: `offsets` is non-empty,
    /// starts at 0, is monotone, and ends at `neighbors.len()`; every
    /// neighbor id is in range and no adjacency list contains a self-loop,
    /// duplicates, or out-of-order entries; and `num_edges` equals the
    /// handshake count. Returns a description of the first violation, so
    /// corrupt dataset artifacts are rejected instead of panicking later.
    pub fn from_csr_parts(
        offsets: Vec<usize>,
        neighbors: Vec<NodeId>,
        num_edges: usize,
    ) -> Result<Graph, String> {
        if offsets.is_empty() {
            return Err("offsets array is empty".into());
        }
        if offsets[0] != 0 {
            return Err(format!("offsets[0] = {} (must be 0)", offsets[0]));
        }
        if *offsets.last().expect("non-empty") != neighbors.len() {
            return Err(format!(
                "offsets end at {} but there are {} neighbor entries",
                offsets.last().expect("non-empty"),
                neighbors.len()
            ));
        }
        let n = offsets.len() - 1;
        let mut forward = 0usize;
        for v in 0..n {
            if offsets[v] > offsets[v + 1] {
                return Err(format!(
                    "offsets not monotone at vertex {v}: {} > {}",
                    offsets[v],
                    offsets[v + 1]
                ));
            }
            let row = &neighbors[offsets[v]..offsets[v + 1]];
            for (i, &u) in row.iter().enumerate() {
                if u >= n {
                    return Err(format!("neighbor {u} of vertex {v} out of range n={n}"));
                }
                if u == v {
                    return Err(format!("self-loop at vertex {v}"));
                }
                if i > 0 && row[i - 1] >= u {
                    return Err(format!(
                        "adjacency of vertex {v} not strictly sorted: {} then {u}",
                        row[i - 1]
                    ));
                }
                if v < u {
                    forward += 1;
                }
            }
        }
        if forward != num_edges {
            return Err(format!(
                "edge count mismatch: header says {num_edges}, adjacency holds {forward}"
            ));
        }
        // Symmetry: every (v, u) needs its mirror (u, v). Each row is sorted,
        // so the membership probe is a binary search.
        for v in 0..n {
            for &u in &neighbors[offsets[v]..offsets[v + 1]] {
                if neighbors[offsets[u]..offsets[u + 1]]
                    .binary_search(&v)
                    .is_err()
                {
                    return Err(format!("edge ({v}, {u}) has no mirror entry"));
                }
            }
        }
        Ok(Graph {
            offsets,
            neighbors,
            num_edges,
        })
    }

    /// Relabels vertices according to `perm`, where `perm[old] = new`.
    ///
    /// `perm` must be a permutation of `0..n`.
    pub fn relabel(&self, perm: &[NodeId]) -> Graph {
        assert_eq!(perm.len(), self.num_nodes());
        let mut seen = vec![false; self.num_nodes()];
        for &p in perm {
            assert!(
                p < self.num_nodes() && !seen[p],
                "perm is not a permutation"
            );
            seen[p] = true;
        }
        let edges: Vec<(NodeId, NodeId)> = self.edges().map(|(u, v)| (perm[u], perm[v])).collect();
        Graph::from_edges(self.num_nodes(), &edges)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges)
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

/// Incremental builder for [`Graph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    adjacency: Vec<BTreeSet<NodeId>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            adjacency: vec![BTreeSet::new(); n],
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Self-loops are silently ignored (the RN model graph is simple).
    /// Returns `true` if the edge was newly inserted.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!(
            u < self.n && v < self.n,
            "edge ({u}, {v}) out of range n={}",
            self.n
        );
        if u == v {
            return false;
        }
        let inserted = self.adjacency[u].insert(v);
        self.adjacency[v].insert(u);
        inserted
    }

    /// Returns `true` if the edge is already present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.n && v < self.n && self.adjacency[u].contains(&v)
    }

    /// Finalizes the builder into an immutable CSR [`Graph`].
    pub fn build(self) -> Graph {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut neighbors = Vec::new();
        let mut num_edges = 0usize;
        offsets.push(0);
        for v in 0..self.n {
            for &u in &self.adjacency[v] {
                neighbors.push(u);
                if v < u {
                    num_edges += 1;
                }
            }
            offsets.push(neighbors.len());
        }
        Graph {
            offsets,
            neighbors,
            num_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g = Graph::empty();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn builder_deduplicates_and_ignores_self_loops() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge(0, 1));
        assert!(!b.add_edge(1, 0));
        assert!(!b.add_edge(2, 2));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, &[(3, 1), (3, 0), (3, 4), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
        assert_eq!(g.degree(3), 4);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let perm = vec![3, 2, 1, 0];
        let h = g.relabel(&perm);
        assert_eq!(h.num_edges(), 3);
        assert!(h.has_edge(3, 2));
        assert!(h.has_edge(2, 1));
        assert!(h.has_edge(1, 0));
        assert!(!h.has_edge(0, 3));
    }

    #[test]
    fn average_degree_matches_handshake_lemma() {
        // The degrees sum to twice the edge count, so a 4-cycle averages 2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.num_edges());
        assert_eq!(degree_sum / g.num_nodes(), 2);
    }
}
