//! Centralized diameter and eccentricity computation.
//!
//! Section 5 of the paper is about how much energy it costs to approximate
//! `diam(G)` distributedly; the exact values computed here are the reference
//! the distributed approximations (Theorems 5.3 and 5.4) are compared
//! against in the experiments.

use crate::bfs::bfs_distances;
use crate::graph::{Graph, NodeId};
use crate::{Dist, INFINITY};

/// Eccentricity of `v`: the maximum distance from `v` to any vertex.
///
/// Returns `None` if some vertex is unreachable from `v` (the diameter is
/// infinite / undefined on disconnected graphs).
pub fn eccentricity(g: &Graph, v: NodeId) -> Option<Dist> {
    let dist = bfs_distances(g, v);
    let mut max = 0;
    for &d in &dist {
        if d == INFINITY {
            return None;
        }
        max = max.max(d);
    }
    Some(max)
}

/// Exact diameter by running a BFS from every vertex (`O(nm)`).
///
/// Returns `None` for disconnected graphs and for the empty graph.
pub fn exact_diameter(g: &Graph) -> Option<Dist> {
    if g.num_nodes() == 0 {
        return None;
    }
    let mut best = 0;
    for v in g.nodes() {
        best = best.max(eccentricity(g, v)?);
    }
    Some(best)
}

/// Checks the paper's footnote-5 definition of a *nearly 3/2-approximation*:
/// `estimate ∈ [⌊2·diam/3⌋, diam]`. Takes `u64`, the type of the
/// distributed estimates it judges.
pub fn is_nearly_three_halves_approx(diam: u64, estimate: u64) -> bool {
    estimate >= (2 * diam) / 3 && estimate <= diam
}

/// Checks the finer-grained guarantee of Theorem 5.4 / [19, 38]: writing
/// `diam = 3h + z` with `z ∈ {0, 1, 2}`, the estimate must lie in
/// `[2h + z, diam]` when `z ∈ {0, 1}` and in `[2h + 1, diam]` when `z = 2`.
pub fn satisfies_theorem_5_4_bound(diam: Dist, estimate: Dist) -> bool {
    let h = diam / 3;
    let z = diam % 3;
    let lower = if z == 2 { 2 * h + 1 } else { 2 * h + z };
    estimate >= lower && estimate <= diam
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn diameter_of_standard_families() {
        assert_eq!(exact_diameter(&generators::path(10)), Some(9));
        assert_eq!(exact_diameter(&generators::cycle(10)), Some(5));
        assert_eq!(exact_diameter(&generators::complete(10)), Some(1));
        assert_eq!(exact_diameter(&generators::star(10)), Some(2));
        assert_eq!(exact_diameter(&generators::grid(3, 7)), Some(8));
    }

    #[test]
    fn diameter_none_for_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(exact_diameter(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
    }

    #[test]
    fn three_halves_checkers() {
        assert!(is_nearly_three_halves_approx(9, 6));
        assert!(!is_nearly_three_halves_approx(9, 5));
        assert!(is_nearly_three_halves_approx(10, 10));
        // diam = 3h + z cases:
        assert!(satisfies_theorem_5_4_bound(9, 6)); // h=3, z=0, lower 6
        assert!(!satisfies_theorem_5_4_bound(9, 5));
        assert!(satisfies_theorem_5_4_bound(10, 7)); // h=3, z=1, lower 7
        assert!(!satisfies_theorem_5_4_bound(10, 6));
        assert!(satisfies_theorem_5_4_bound(11, 7)); // h=3, z=2, lower 7
        assert!(!satisfies_theorem_5_4_bound(11, 6));
    }
}
