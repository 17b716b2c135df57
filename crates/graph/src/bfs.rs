//! Centralized breadth-first search.
//!
//! These routines are the *ground truth* against which the distributed,
//! energy-metered algorithms of the other crates are validated: the paper's
//! BreadthFirstSearch problem asks every device to learn exactly the value
//! computed here by [`bfs_distances`].

use std::collections::VecDeque;

use crate::graph::{Graph, NodeId};
use crate::{Dist, INFINITY};

/// Single-source BFS distances from `source`.
///
/// Unreachable vertices get [`INFINITY`].
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Dist> {
    multi_source_bfs(g, std::slice::from_ref(&source))
}

/// Multi-source BFS: distance from the *set* `sources` (minimum over the
/// set). Unreachable vertices get [`INFINITY`].
pub fn multi_source_bfs(g: &Graph, sources: &[NodeId]) -> Vec<Dist> {
    let n = g.num_nodes();
    let mut dist = vec![INFINITY; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        assert!(s < n, "source {s} out of range");
        if dist[s] != 0 {
            dist[s] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for &v in g.neighbors(u) {
            if dist[v] == INFINITY {
                dist[v] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS distances restricted to the subgraph induced by `active` — the
/// quantity `dist_A(S, u)` used throughout Section 4 of the paper.
///
/// A vertex participates (as an endpoint or an interior vertex of a path)
/// only if `active[v]` is true. Sources that are inactive are ignored.
pub fn restricted_bfs(g: &Graph, sources: &[NodeId], active: &[bool]) -> Vec<Dist> {
    assert_eq!(active.len(), g.num_nodes());
    let n = g.num_nodes();
    let mut dist = vec![INFINITY; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        assert!(s < n, "source {s} out of range");
        if active[s] && dist[s] != 0 {
            dist[s] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for &v in g.neighbors(u) {
            if active[v] && dist[v] == INFINITY {
                dist[v] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        let d = bfs_distances(&g, 3);
        assert_eq!(d, vec![3, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable_vertices_are_infinity() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INFINITY);
        assert_eq!(d[4], INFINITY);
    }

    #[test]
    fn multi_source_takes_minimum() {
        let g = generators::path(9);
        let d = multi_source_bfs(&g, &[0, 8]);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn multi_source_with_duplicate_sources() {
        let g = generators::cycle(6);
        let d = multi_source_bfs(&g, &[2, 2, 2]);
        assert_eq!(d[2], 0);
        assert_eq!(d[5], 3);
    }

    #[test]
    fn restricted_bfs_respects_active_set() {
        // Path 0-1-2-3-4; deactivate 2: 3 and 4 become unreachable from 0.
        let g = generators::path(5);
        let active = vec![true, true, false, true, true];
        let d = restricted_bfs(&g, &[0], &active);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INFINITY);
        assert_eq!(d[3], INFINITY);
    }

    #[test]
    fn restricted_bfs_ignores_inactive_sources() {
        let g = generators::path(4);
        let active = vec![false, true, true, true];
        let d = restricted_bfs(&g, &[0, 3], &active);
        assert_eq!(d[0], INFINITY);
        assert_eq!(d[3], 0);
        assert_eq!(d[1], 2);
    }

    #[test]
    fn bfs_tree_paths_are_shortest() {
        // The BFS tree the labels define: stepping from every vertex to a
        // neighbour one label closer reaches the source in exactly `d[v]`
        // hops, and no edge spans more than one label.
        let g = generators::grid(4, 4);
        let d = bfs_distances(&g, 0);
        for v in g.nodes() {
            let (mut cur, mut hops) = (v, 0);
            while let Some(&p) = g.neighbors(cur).iter().find(|&&u| d[u] + 1 == d[cur]) {
                (cur, hops) = (p, hops + 1);
            }
            assert_eq!((cur, hops), (0, d[v]));
            assert!(g.neighbors(v).iter().all(|&u| d[u].abs_diff(d[v]) <= 1));
        }
    }
}
