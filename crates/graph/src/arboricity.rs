//! Degeneracy, the arboricity certificate.
//!
//! Theorem 5.2 claims its lower-bound graphs have arboricity (and treewidth)
//! `O(log n)`. Computing arboricity exactly is unnecessary for that check:
//! the degeneracy `d` of a graph satisfies `arboricity ≤ d ≤ 2·arboricity − 1`,
//! so a degeneracy bound of `O(log n)` certifies the claim up to a factor
//! of two. We compute degeneracy exactly with the standard linear-time
//! peeling (Matula–Beck) algorithm.

use crate::graph::Graph;

/// Exact degeneracy: the smallest `d` such that every subgraph has a vertex
/// of degree at most `d`. Computed by repeatedly removing a minimum-degree
/// vertex.
pub fn degeneracy(g: &Graph) -> usize {
    let n = g.num_nodes();
    if n == 0 {
        return 0;
    }
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let max_deg = *degree.iter().max().unwrap_or(&0);
    // Bucket queue over degrees.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v]].push(v);
    }
    let mut removed = vec![false; n];
    let mut degen = 0usize;
    let mut cursor = 0usize;
    for _ in 0..n {
        // Find the non-empty bucket with the smallest degree. The cursor can
        // go down by at most one per removal, so rewind by one each step.
        cursor = cursor.saturating_sub(1);
        loop {
            while cursor < buckets.len() && buckets[cursor].is_empty() {
                cursor += 1;
            }
            let Some(&cand) = buckets[cursor].last() else {
                break;
            };
            if removed[cand] || degree[cand] != cursor {
                buckets[cursor].pop();
                continue;
            }
            break;
        }
        let v = buckets[cursor].pop().expect("a vertex must remain");
        removed[v] = true;
        degen = degen.max(cursor);
        for &u in g.neighbors(v) {
            if !removed[u] {
                degree[u] -= 1;
                buckets[degree[u]].push(u);
            }
        }
    }
    degen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degeneracy_of_standard_graphs() {
        assert_eq!(degeneracy(&generators::path(10)), 1);
        assert_eq!(degeneracy(&generators::cycle(10)), 2);
        assert_eq!(degeneracy(&generators::complete(6)), 5);
        assert_eq!(degeneracy(&generators::star(20)), 1);
        assert_eq!(degeneracy(&generators::grid(5, 5)), 2);
        assert_eq!(degeneracy(&Graph::empty()), 0);
    }

    #[test]
    fn tree_has_degeneracy_one() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let t = generators::random_tree(100, &mut rng);
        assert_eq!(degeneracy(&t), 1);
    }

    #[test]
    fn bounds_sandwich_each_other() {
        // The Nash-Williams density bound ⌈m/(n−1)⌉ ≤ arboricity never
        // exceeds the degeneracy, which bounds arboricity from above.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        for _ in 0..5 {
            let g = generators::gnp(80, 0.1, &mut rng);
            let density = g.num_edges().div_ceil(g.num_nodes() - 1);
            let d = degeneracy(&g);
            assert!(density <= d, "density bound {density} > degeneracy {d}");
        }
    }
}
