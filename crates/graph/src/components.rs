//! Connectivity.

use crate::bfs::multi_source_bfs;
use crate::graph::Graph;
use crate::INFINITY;

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
        assert!(is_connected(&g));
    }

    #[test]
    fn multiple_components() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(is_connected(&Graph::empty()));
        let singleton = Graph::from_edges(1, &[]);
        assert!(is_connected(&singleton));
    }
}
