//! Property-based tests for the core algorithm's data structures and for
//! the end-to-end BFS correctness invariant on randomly generated inputs.

use proptest::prelude::*;

use energy_bfs::baseline::trivial_bfs;
use energy_bfs::estimates::DistanceEstimate;
use energy_bfs::zseq::{ruler, ZSequence, ALPHA};
use energy_bfs::{recursive_bfs, RecursiveBfsConfig};
use radio_graph::bfs::bfs_distances;
use radio_graph::{generators, Graph, INFINITY};
use radio_protocols::StackBuilder;

/// Strategy: a connected random graph on up to 40 vertices (random tree plus
/// random extra edges).
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (
        3usize..40,
        any::<u64>(),
        proptest::collection::vec((0usize..40, 0usize..40), 0..40),
    )
        .prop_map(|(n, seed, extra)| {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ruler_is_multiplicative_in_powers_of_two(i in 1u64..10_000) {
        // Y[2i] = 2·Y[i] and Y[odd] = 1.
        prop_assert_eq!(ruler(2 * i), 2 * ruler(i));
        prop_assert_eq!(ruler(2 * i - 1), 1);
        // Y[i] divides i.
        prop_assert_eq!(i % ruler(i), 0);
    }

    #[test]
    fn z_sequence_is_bounded_and_periodic(exp in 0u32..8, i in 1u64..4096) {
        let d_star = ALPHA << exp;
        let z = ZSequence::from_d_star(d_star);
        let zi = z.z(i);
        prop_assert!(zi >= ALPHA);
        prop_assert!(zi <= d_star);
        // Values ≥ b recur with period b/α.
        prop_assert_eq!(z.z(i + d_star / ALPHA), zi);
    }

    #[test]
    fn lemma_4_2_gap_property(exp in 2u32..8, i in 1u64..2048) {
        let z = ZSequence::from_d_star(ALPHA << exp);
        let j = z.next_strictly_larger_or_max(i);
        prop_assert_eq!(j - i, z.z(i) / ALPHA);
        for k in i + 1..j {
            prop_assert!(z.z(k) <= z.z(i) / 2);
        }
    }

    #[test]
    fn estimates_stay_ordered_under_any_update_sequence(
        x0 in 0u64..200,
        updates in proptest::collection::vec((any::<bool>(), 0u64..50, 1u64..64), 1..30),
    ) {
        // The interval must always satisfy lower ≤ upper when the special
        // updates come from consistent (non-adversarial) recursion results,
        // and the upper bound must never increase.
        let beta = 0.125;
        let w = 12.0;
        let mut est = DistanceEstimate::initialize(Some(x0), beta, w);
        prop_assert!(est.lower <= est.upper + 1e-9);
        let mut prev_upper = est.upper;
        for (is_special, x, z) in updates {
            if est.upper <= 1.0 / beta {
                // In the algorithm a cluster whose upper bound has shrunk to
                // a single stage is settled and deactivated before any
                // further update; stop the sequence accordingly.
                break;
            }
            est = if is_special {
                // A consistent recursion result can never report a cluster
                // distance that contradicts the current upper bound (the
                // recursive BFS measures the true distance, which lies in
                // the interval); clamp the generated x accordingly, exactly
                // as reality would.
                let x_max = ((est.upper - 1.0 / beta).max(0.0) * beta * w).floor() as u64;
                est.special(Some(x.min(z).min(x_max)), z, beta, w)
            } else {
                est.automatic(beta)
            };
            prop_assert!(est.upper <= prev_upper + 1e-9);
            prop_assert!(est.lower <= est.upper + 1e-9,
                "lower {} > upper {}", est.lower, est.upper);
            prev_upper = est.upper;
        }
    }

    #[test]
    fn trivial_bfs_matches_centralized_reference(g in arb_connected_graph(), src in 0usize..40) {
        let n = g.num_nodes();
        let source = src % n;
        let truth = bfs_distances(&g, source);
        let mut net = StackBuilder::new(g.clone()).build();
        let active = vec![true; n];
        let result = trivial_bfs(&mut net, &[source], &active, n as u64);
        for (v, &found) in result.dist.iter().enumerate() {
            match found {
                Some(d) => prop_assert_eq!(d, truth[v] as u64),
                None => prop_assert_eq!(truth[v], INFINITY),
            }
        }
    }

    #[test]
    fn cd_wavefront_equals_plain_wavefront_on_reliable_stacks(
        g in arb_connected_graph(),
        src in 0usize..40,
        seed in 0u64..1000,
    ) {
        // trivial_bfs_cd on a reliable CD stack: identical labels, identical
        // call count, and never more LB-unit energy than the no-CD twin —
        // across random connected graphs, sources, and stack seeds.
        use energy_bfs::baseline::trivial_bfs_cd;
        use radio_protocols::RadioStack;
        let n = g.num_nodes();
        let source = src % n;
        let active = vec![true; n];
        let mut plain = StackBuilder::new(g.clone()).with_seed(seed).build();
        let want = trivial_bfs(&mut plain, &[source], &active, n as u64);
        let mut cd = StackBuilder::new(g.clone()).with_cd().with_seed(seed).build();
        let got = trivial_bfs_cd(&mut cd, &[source], &active, n as u64);
        prop_assert_eq!(&got.dist, &want.dist);
        prop_assert_eq!(got.calls, want.calls);
        for v in 0..n {
            prop_assert!(
                cd.lb_energy(v) <= plain.lb_energy(v),
                "vertex {} paid more with CD ({} > {})",
                v, cd.lb_energy(v), plain.lb_energy(v)
            );
        }
        // And against the centralized reference, for exactness.
        let truth = bfs_distances(&g, source);
        for (v, &found) in got.dist.iter().enumerate() {
            match found {
                Some(d) => prop_assert_eq!(d, truth[v] as u64),
                None => prop_assert_eq!(truth[v], INFINITY),
            }
        }
    }

    #[test]
    fn recursive_bfs_matches_centralized_reference(g in arb_connected_graph(), src in 0usize..40, seed in 0u64..1000) {
        let n = g.num_nodes();
        let source = src % n;
        let truth = bfs_distances(&g, source);
        let depth = truth.iter().copied().filter(|&d| d != INFINITY).max().unwrap_or(0) as u64;
        let config = RecursiveBfsConfig {
            inv_beta: 4,
            max_depth: 1,
            seed,
        };
        let mut net = StackBuilder::new(g.clone()).build();
        let outcome = recursive_bfs(&mut net, source, depth.max(1), &config);
        for (v, &found) in outcome.dist.iter().enumerate() {
            prop_assert_eq!(found, Some(truth[v] as u64), "vertex {}", v);
        }
    }
}
