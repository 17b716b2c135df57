//! The set-disjointness lower-bound construction of Theorem 5.2.
//!
//! Given two subsets `S_A, S_B ⊆ {0, …, k−1}` (with `k` a power of two),
//! the theorem builds a graph on vertex classes
//! `V_A ∪ V_B ∪ V_C ∪ V_D ∪ {u*, v*}` such that
//!
//! * `diam(G) = 2` when `S_A ∩ S_B = ∅`, and
//! * `diam(G) = 3` when the sets intersect,
//!
//! while the graph is sparse: arboricity and treewidth `O(log n)`. Any
//! radio-network algorithm distinguishing the two cases with `o(n / log² n)`
//! energy would yield a set-disjointness protocol with `o(k)` bits of
//! communication, contradicting the classical `Ω(k)` lower bound.
//!
//! This module builds the graph, exposes the vertex-class layout, and
//! provides the communication-cost ledger used by experiment E11 to replay
//! the reduction's accounting on concrete protocol traces.

use crate::graph::{Graph, GraphBuilder, NodeId};

/// Which class a vertex of the lower-bound graph belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexClass {
    /// `u_i ∈ V_A`, corresponding to element `a_i ∈ S_A`.
    A,
    /// `v_i ∈ V_B`, corresponding to element `b_i ∈ S_B`.
    B,
    /// `w_j ∈ V_C`, corresponding to bit index `j ∈ [ℓ]`.
    C,
    /// `x_j ∈ V_D`, corresponding to bit index `j ∈ [ℓ]`.
    D,
    /// The apex vertex `u*` adjacent to `V_A ∪ V_C ∪ V_D`.
    UStar,
    /// The apex vertex `v*` adjacent to `V_B ∪ V_C ∪ V_D`.
    VStar,
}

/// The Theorem 5.2 graph together with its vertex-class layout.
#[derive(Clone, Debug)]
pub struct DisjointnessGraph {
    /// The constructed graph.
    pub graph: Graph,
    /// Class of each vertex.
    pub class: Vec<VertexClass>,
    /// The elements of `S_A`, in the order matching `V_A`.
    pub set_a: Vec<u64>,
    /// The elements of `S_B`, in the order matching `V_B`.
    pub set_b: Vec<u64>,
    /// Number of bits `ℓ = log₂ k`.
    pub ell: u32,
    /// Universe size `k = 2^ℓ`.
    pub k: u64,
    /// Vertex ids of `V_A` (in `set_a` order).
    pub a_vertices: Vec<NodeId>,
    /// Vertex ids of `V_B` (in `set_b` order).
    pub b_vertices: Vec<NodeId>,
    /// Vertex ids of `V_C` (index `j` ↦ `w_{j+1}`).
    pub c_vertices: Vec<NodeId>,
    /// Vertex ids of `V_D` (index `j` ↦ `x_{j+1}`).
    pub d_vertices: Vec<NodeId>,
    /// The apex `u*`.
    pub u_star: NodeId,
    /// The apex `v*`.
    pub v_star: NodeId,
}

/// The bit positions (1-based, as in the paper's `[ℓ]`) where `s` has a 1,
/// reading bit 1 as the most significant of the `ℓ`-bit representation.
pub fn ones(s: u64, ell: u32) -> Vec<u32> {
    (1..=ell).filter(|&j| (s >> (ell - j)) & 1 == 1).collect()
}

/// The complementary positions where `s` has a 0.
pub fn zeros(s: u64, ell: u32) -> Vec<u32> {
    (1..=ell).filter(|&j| (s >> (ell - j)) & 1 == 0).collect()
}

/// Builds the Theorem 5.2 graph for sets `S_A, S_B ⊆ {0, …, k − 1}` where
/// `k = 2^ℓ`.
///
/// Panics if an element is `≥ k` or if either set is empty (the reduction
/// always works with non-empty sets; empty sets are trivially disjoint).
pub fn build_disjointness_graph(set_a: &[u64], set_b: &[u64], ell: u32) -> DisjointnessGraph {
    assert!(ell >= 1, "need at least one bit");
    assert!(
        !set_a.is_empty() && !set_b.is_empty(),
        "sets must be non-empty"
    );
    let k = 1u64 << ell;
    for &x in set_a.iter().chain(set_b.iter()) {
        assert!(x < k, "element {x} out of universe [0, {k})");
    }
    let alpha = set_a.len();
    let beta = set_b.len();
    let l = ell as usize;
    let n = alpha + beta + 2 * l + 2;

    // Vertex layout: V_A, then V_B, then V_C, then V_D, then u*, v*.
    let a_vertices: Vec<NodeId> = (0..alpha).collect();
    let b_vertices: Vec<NodeId> = (alpha..alpha + beta).collect();
    let c_vertices: Vec<NodeId> = (alpha + beta..alpha + beta + l).collect();
    let d_vertices: Vec<NodeId> = (alpha + beta + l..alpha + beta + 2 * l).collect();
    let u_star = n - 2;
    let v_star = n - 1;

    let mut class = Vec::with_capacity(n);
    class.extend(std::iter::repeat_n(VertexClass::A, alpha));
    class.extend(std::iter::repeat_n(VertexClass::B, beta));
    class.extend(std::iter::repeat_n(VertexClass::C, l));
    class.extend(std::iter::repeat_n(VertexClass::D, l));
    class.push(VertexClass::UStar);
    class.push(VertexClass::VStar);

    let mut builder = GraphBuilder::new(n);
    // u_i -- w_j iff j ∈ Ones(a_i); u_i -- x_j iff j ∈ Zeros(a_i).
    for (i, &a) in set_a.iter().enumerate() {
        for j in ones(a, ell) {
            builder.add_edge(a_vertices[i], c_vertices[(j - 1) as usize]);
        }
        for j in zeros(a, ell) {
            builder.add_edge(a_vertices[i], d_vertices[(j - 1) as usize]);
        }
    }
    // v_i -- w_j iff j ∈ Zeros(b_i); v_i -- x_j iff j ∈ Ones(b_i).
    for (i, &b) in set_b.iter().enumerate() {
        for j in zeros(b, ell) {
            builder.add_edge(b_vertices[i], c_vertices[(j - 1) as usize]);
        }
        for j in ones(b, ell) {
            builder.add_edge(b_vertices[i], d_vertices[(j - 1) as usize]);
        }
    }
    // u* adjacent to V_A ∪ V_C ∪ V_D; v* adjacent to V_B ∪ V_C ∪ V_D.
    for &u in a_vertices.iter().chain(&c_vertices).chain(&d_vertices) {
        builder.add_edge(u_star, u);
    }
    for &v in b_vertices.iter().chain(&c_vertices).chain(&d_vertices) {
        builder.add_edge(v_star, v);
    }

    DisjointnessGraph {
        graph: builder.build(),
        class,
        set_a: set_a.to_vec(),
        set_b: set_b.to_vec(),
        ell,
        k,
        a_vertices,
        b_vertices,
        c_vertices,
        d_vertices,
        u_star,
        v_star,
    }
}

impl DisjointnessGraph {
    /// Whether the underlying set-disjointness instance is a *yes* instance
    /// (`S_A ∩ S_B = ∅`).
    pub fn sets_disjoint(&self) -> bool {
        !self.set_a.iter().any(|a| self.set_b.contains(a))
    }

    /// The diameter the construction predicts: 2 if the sets are disjoint,
    /// 3 otherwise.
    pub fn predicted_diameter(&self) -> u32 {
        if self.sets_disjoint() {
            2
        } else {
            3
        }
    }

    /// The vertices whose transcripts the reduction must exchange:
    /// `V_C ∪ V_D ∪ {u*, v*}` — only `O(log k)` of them.
    pub fn shared_vertices(&self) -> Vec<NodeId> {
        let mut out = self.c_vertices.clone();
        out.extend(&self.d_vertices);
        out.push(self.u_star);
        out.push(self.v_star);
        out
    }

    /// The per-round communication cost (in bits) that the reduction charges
    /// when `listeners_in_shared` vertices of `V_C ∪ V_D ∪ {u*, v*}` listen
    /// in a round: each such listener costs `O(log k)` bits from each player
    /// (the neighbour-list encoding of the unique transmitter, or a
    /// 2-bit "0 / ≥2" marker). We charge the paper's
    /// `O(|Z(τ)| · log k)` with the constant set to 1 message of
    /// `2ℓ + 2` bits plus 2 marker bits per player.
    pub fn round_communication_bits(&self, listeners_in_shared: usize) -> u64 {
        let per_listener = 2 * (2 * self.ell as u64 + 2) + 4;
        listeners_in_shared as u64 * per_listener
    }

    /// The set-disjointness communication lower bound `Ω(k)` against which
    /// the reduction's total is compared; we report the raw `k`.
    pub fn communication_lower_bound(&self) -> u64 {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arboricity::degeneracy;
    use crate::diameter::exact_diameter;

    #[test]
    fn ones_and_zeros_partition_bit_positions() {
        // s = 0b10110010, ℓ = 8 → Ones = {1,3,4,7}, Zeros = {2,5,6,8}
        // (the paper's running example).
        let s = 0b1011_0010u64;
        assert_eq!(ones(s, 8), vec![1, 3, 4, 7]);
        assert_eq!(zeros(s, 8), vec![2, 5, 6, 8]);
        for j in 1..=8u32 {
            let in_ones = ones(s, 8).contains(&j);
            let in_zeros = zeros(s, 8).contains(&j);
            assert!(in_ones ^ in_zeros);
        }
    }

    #[test]
    fn disjoint_sets_give_diameter_two() {
        let g = build_disjointness_graph(&[1, 2, 5], &[0, 3, 6], 3);
        assert!(g.sets_disjoint());
        assert_eq!(g.predicted_diameter(), 2);
        assert_eq!(exact_diameter(&g.graph), Some(2));
    }

    #[test]
    fn intersecting_sets_give_diameter_three() {
        let g = build_disjointness_graph(&[1, 2, 5], &[0, 5, 6], 3);
        assert!(!g.sets_disjoint());
        assert_eq!(g.predicted_diameter(), 3);
        assert_eq!(exact_diameter(&g.graph), Some(3));
    }

    #[test]
    fn vertex_count_matches_formula() {
        let g = build_disjointness_graph(&[0, 1, 2, 3], &[4, 5], 4);
        // n = α + β + 2ℓ + 2
        assert_eq!(g.graph.num_nodes(), 4 + 2 + 8 + 2);
        assert_eq!(g.class.len(), g.graph.num_nodes());
    }

    #[test]
    fn apexes_cover_their_classes() {
        let g = build_disjointness_graph(&[1, 6], &[2, 4], 3);
        for &a in &g.a_vertices {
            assert!(g.graph.has_edge(g.u_star, a));
            assert!(!g.graph.has_edge(g.v_star, a));
        }
        for &b in &g.b_vertices {
            assert!(g.graph.has_edge(g.v_star, b));
            assert!(!g.graph.has_edge(g.u_star, b));
        }
        for &c in g.c_vertices.iter().chain(&g.d_vertices) {
            assert!(g.graph.has_edge(g.u_star, c));
            assert!(g.graph.has_edge(g.v_star, c));
        }
    }

    #[test]
    fn pairwise_distance_two_except_a_b_pairs_with_equal_elements() {
        let set_a = vec![3u64, 5];
        let set_b = vec![5u64, 6];
        let g = build_disjointness_graph(&set_a, &set_b, 3);
        let n = g.graph.num_nodes();
        let dist_from: Vec<Vec<u32>> = (0..n)
            .map(|v| crate::bfs::bfs_distances(&g.graph, v))
            .collect();
        for (i, &ui) in g.a_vertices.iter().enumerate() {
            for (j, &vj) in g.b_vertices.iter().enumerate() {
                let expected = if set_a[i] == set_b[j] { 3 } else { 2 };
                assert_eq!(
                    dist_from[ui][vj], expected,
                    "pair a={}, b={}",
                    set_a[i], set_b[j]
                );
            }
        }
    }

    #[test]
    fn construction_is_sparse() {
        // With large-ish k, arboricity (≤ degeneracy) must stay O(log n):
        // every V_A/V_B vertex has degree ℓ + 1, giving degeneracy ≤ ℓ + 1 ... + apexes.
        let ell = 7u32;
        let set_a: Vec<u64> = (0..60).map(|i| (i * 2 + 1) % 128).collect();
        let set_b: Vec<u64> = (0..60).map(|i| (i * 2) % 128).collect();
        let g = build_disjointness_graph(&set_a, &set_b, ell);
        let n = g.graph.num_nodes() as f64;
        let degen = degeneracy(&g.graph);
        assert!(
            (degen as f64) <= 4.0 * n.log2(),
            "degeneracy {degen} not O(log n) for n = {n}"
        );
    }

    #[test]
    fn shared_vertices_are_logarithmically_many() {
        let g = build_disjointness_graph(&[1, 2, 3], &[4, 5, 6], 5);
        assert_eq!(g.shared_vertices().len(), 2 * 5 + 2);
    }

    #[test]
    fn communication_accounting_is_linear_in_listeners() {
        let g = build_disjointness_graph(&[1], &[2], 4);
        assert_eq!(g.round_communication_bits(0), 0);
        let one = g.round_communication_bits(1);
        assert_eq!(g.round_communication_bits(5), 5 * one);
        assert_eq!(g.communication_lower_bound(), 16);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_elements() {
        let _ = build_disjointness_graph(&[9], &[1], 3);
    }
}
