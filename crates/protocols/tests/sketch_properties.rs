//! Property-based tests for the sketch algebra: HyperLogLog merge as a
//! join-semilattice (commutative, associative, idempotent, and equal to
//! the sketch of the set union), the `covers`/`merge` convergence
//! contract, payload round-trips, and — on random connected graphs of up
//! to 64 nodes — the HyperBall recurrence against *exact* BFS
//! neighborhood balls with monotone estimates along the radius.

use std::collections::VecDeque;

use proptest::prelude::*;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use radio_graph::{generators, Graph};
use radio_protocols::sketch::{
    covers_words, node_hash, words_for, HllSketch, MAX_PRECISION, MIN_PRECISION,
};

/// The sketch of an explicit node set — the executable specification every
/// algebra law below is checked against.
fn sketch_of(p: u32, seed: u64, nodes: &[usize]) -> HllSketch {
    let mut s = HllSketch::new(p);
    for &v in nodes {
        s.insert_hash(node_hash(seed, v));
    }
    s
}

fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (
        3usize..65,
        any::<u64>(),
        proptest::collection::vec((0usize..64, 0usize..64), 0..48),
    )
        .prop_map(|(n, seed, extra)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let tree = generators::random_tree(n, &mut rng);
            let mut edges: Vec<(usize, usize)> = tree.edges().collect();
            for (u, v) in extra {
                if u % n != v % n {
                    edges.push((u % n, v % n));
                }
            }
            Graph::from_edges(n, &edges)
        })
}

/// Single-source BFS distances on a connected graph.
fn bfs_distances(g: &Graph, src: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v) {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merge is a join-semilattice on the register arrays, and agrees with
    /// the set semantics: sketching `A ∪ B` directly gives exactly the
    /// merge of the two per-set sketches.
    #[test]
    fn merge_is_a_join_semilattice_over_set_union(
        p in MIN_PRECISION..MAX_PRECISION + 1,
        seed in any::<u64>(),
        set_a in proptest::collection::vec(0usize..512, 0..64),
        set_b in proptest::collection::vec(0usize..512, 0..64),
        set_c in proptest::collection::vec(0usize..512, 0..64),
    ) {
        let a = sketch_of(p, seed, &set_a);
        let b = sketch_of(p, seed, &set_b);
        let c = sketch_of(p, seed, &set_c);
        prop_assert_eq!(a.words().len(), words_for(p));

        // Union semantics: merge(sketch(A), sketch(B)) == sketch(A ∪ B).
        let mut union_ab: Vec<usize> = set_a.clone();
        union_ab.extend_from_slice(&set_b);
        let direct = sketch_of(p, seed, &union_ab);
        let mut ab = a.clone();
        ab.merge(&b);
        prop_assert_eq!(&ab, &direct);

        // Commutativity.
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Associativity.
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Idempotence, reported through the "did anything grow" flag.
        let mut aa = a.clone();
        prop_assert!(!aa.merge(&a));
        prop_assert_eq!(&aa, &a);

        // `merge` grows iff `covers` said it would not be a no-op, and the
        // result dominates both inputs — the local convergence contract
        // HyperBall's sender-set maintenance relies on.
        let covered = covers_words(a.words(), b.words());
        let mut m = a.clone();
        let grew = m.merge(&b);
        prop_assert_eq!(grew, !covered);
        prop_assert!(covers_words(m.words(), a.words()));
        prop_assert!(covers_words(m.words(), b.words()));

        // Fixed points of the estimator at the bottom of the lattice: the
        // empty sketch reads 0 and any singleton reads m·ln(m/(m−1)) ≈ 1,
        // independent of which register the hash lands in.
        prop_assert_eq!(HllSketch::new(p).estimate(), 0.0);
        let one = sketch_of(p, seed, &set_a[..set_a.len().min(1)]);
        if !set_a.is_empty() {
            prop_assert!((one.estimate() - 1.0).abs() < 0.05);
        }
    }

    /// On random connected graphs of ≤ 64 nodes, the HyperBall recurrence
    /// `S_r(v) = S_{r−1}(v) ∪ ⋃_{u∈N(v)} S_{r−1}(u)` reproduces the sketch
    /// of the *exact* BFS ball `B_r(v)` at every radius, registers only
    /// ever grow along the radius, and the estimates are monotone
    /// non-decreasing. With `p ≥ 8` every ball sketch here has `≥ 2^p − n
    /// > 0` zero registers, so the estimator stays in its linear-counting
    /// regime throughout and the monotonicity is exact, not statistical.
    #[test]
    fn hyperball_recurrence_matches_exact_balls_with_monotone_estimates(
        g in arb_connected_graph(),
        seed in any::<u64>(),
        p in 8u32..11,
    ) {
        let n = g.num_nodes();
        let dist: Vec<Vec<usize>> = (0..n).map(|v| bfs_distances(&g, v)).collect();
        let max_ecc = dist
            .iter()
            .map(|row| row.iter().copied().max().unwrap_or(0))
            .max()
            .unwrap_or(0);

        let mut cur: Vec<HllSketch> =
            (0..n).map(|v| HllSketch::singleton(p, seed, v)).collect();
        let mut prev_est: Vec<f64> = cur.iter().map(HllSketch::estimate).collect();

        for r in 1..=max_ecc {
            let next: Vec<HllSketch> = (0..n)
                .map(|v| {
                    let mut s = cur[v].clone();
                    for &u in g.neighbors(v) {
                        s.merge(&cur[u]);
                    }
                    s
                })
                .collect();
            for v in 0..n {
                let ball: Vec<usize> =
                    (0..n).filter(|&u| dist[v][u] <= r).collect();
                let direct = sketch_of(p, seed, &ball);
                prop_assert_eq!(
                    &next[v], &direct,
                    "recurrence diverged from the exact ball B_{}({})", r, v
                );
                prop_assert!(covers_words(next[v].words(), cur[v].words()));
                let est = next[v].estimate();
                prop_assert!(
                    est >= prev_est[v] - 1e-9,
                    "estimate shrank at radius {} of node {}: {} < {}",
                    r, v, est, prev_est[v]
                );
                prev_est[v] = est;
            }
            cur = next;
        }

        // After ecc(G) rounds every ball is V(G): all counters agree with
        // the whole-graph sketch.
        let everyone: Vec<usize> = (0..n).collect();
        let full = sketch_of(p, seed, &everyone);
        for counter in &cur {
            prop_assert_eq!(counter, &full);
        }
    }
}
