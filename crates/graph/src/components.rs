//! Connected components and related connectivity queries.

use crate::bfs::multi_source_bfs;
use crate::graph::Graph;
use crate::INFINITY;

/// Labels each vertex with a component id in `0..k` (ids are assigned in
/// order of the smallest vertex in each component) and returns the labels
/// and the number of components `k`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = next;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if comp[v] == usize::MAX {
                    comp[v] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    (comp, next)
}

/// `true` iff the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.num_nodes() == 0 {
        return true;
    }
    let dist = multi_source_bfs(g, &[0]);
    dist.iter().all(|&d| d != INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn single_component() {
        let g = generators::cycle(10);
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 1);
        assert!(comp.iter().all(|&c| c == 0));
        assert!(is_connected(&g));
    }

    #[test]
    fn multiple_components() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]);
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[5]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(is_connected(&Graph::empty()));
        let singleton = Graph::from_edges(1, &[]);
        assert!(is_connected(&singleton));
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = Graph::from_edges(4, &[(1, 2)]);
        let (_, k) = connected_components(&g);
        assert_eq!(k, 3);
    }
}
