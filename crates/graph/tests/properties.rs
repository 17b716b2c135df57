//! Property-based tests (proptest) for the graph substrate: structural
//! invariants that must hold for *every* graph, not just the hand-picked
//! fixtures of the unit tests.

use proptest::prelude::*;

use radio_graph::arboricity::degeneracy;
use radio_graph::bfs::{bfs_distances, multi_source_bfs};
use radio_graph::cluster_graph::ClusterGraph;
use radio_graph::diameter::exact_diameter;
use radio_graph::generators;
use radio_graph::lower_bound::{build_disjointness_graph, ones, zeros};
use radio_graph::mpx::cluster_with_start_times;
use radio_graph::{Graph, INFINITY};

/// Strategy: a random edge list over `n ≤ 24` vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..60);
        edges.prop_map(move |es| Graph::from_edges(n, &es))
    })
}

/// Strategy: a connected random graph (a random tree plus extra edges).
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..20,
        any::<u64>(),
        proptest::collection::vec((0usize..20, 0usize..20), 0..30),
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn adjacency_is_symmetric(g in arb_graph()) {
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
            prop_assert_ne!(u, v);
        }
    }

    #[test]
    fn bfs_satisfies_edge_lipschitz_property(g in arb_graph()) {
        // Adjacent vertices have distances differing by at most one.
        let d = bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            match (d[u], d[v]) {
                (INFINITY, INFINITY) => {}
                (a, b) => {
                    prop_assert_ne!(a, INFINITY);
                    prop_assert_ne!(b, INFINITY);
                    prop_assert!(a.abs_diff(b) <= 1, "edge ({u},{v}): {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn multi_source_is_min_of_single_sources(g in arb_graph(), s1 in 0usize..24, s2 in 0usize..24) {
        let n = g.num_nodes();
        let s1 = s1 % n;
        let s2 = s2 % n;
        let joint = multi_source_bfs(&g, &[s1, s2]);
        let a = bfs_distances(&g, s1);
        let b = bfs_distances(&g, s2);
        for v in g.nodes() {
            prop_assert_eq!(joint[v], a[v].min(b[v]), "vertex {}", v);
        }
    }

    #[test]
    fn bfs_tree_parents_are_one_hop_closer(g in arb_connected_graph()) {
        // Every vertex but the source has a parent in the BFS tree the
        // labels define: a neighbour labelled one less.
        let d = bfs_distances(&g, 0);
        for v in g.nodes().filter(|&v| v != 0) {
            prop_assert!(g.neighbors(v).iter().any(|&p| d[p] + 1 == d[v]), "vertex {}", v);
        }
    }

    #[test]
    fn arboricity_bounds_are_ordered(g in arb_graph()) {
        // The Nash-Williams density bound ⌈m/(n−1)⌉ ≤ arboricity never
        // exceeds the degeneracy, which bounds arboricity from above.
        let n = g.num_nodes();
        prop_assert!(g.num_edges().div_ceil(n - 1) <= degeneracy(&g));
        // Degeneracy of any simple graph is at most n − 1.
        prop_assert!(degeneracy(&g) < n);
    }

    #[test]
    fn mpx_clustering_is_a_partition_into_connected_clusters(
        g in arb_connected_graph(),
        starts in proptest::collection::vec(1u64..40, 20),
    ) {
        let n = g.num_nodes();
        let start_times: Vec<u64> = (0..n).map(|v| starts[v % starts.len()]).collect();
        let c = cluster_with_start_times(&g, 0.25, &start_times);
        prop_assert_eq!(c.cluster_sizes().iter().sum::<usize>(), n);
        prop_assert!(c.validate(&g).is_ok(), "{:?}", c.validate(&g));
        // The quotient has no more vertices than the original graph.
        let cg = ClusterGraph::build(&g, c);
        prop_assert!(cg.num_clusters() <= n);
    }

    #[test]
    fn cluster_graph_distance_never_exceeds_original(
        g in arb_connected_graph(),
        starts in proptest::collection::vec(1u64..40, 20),
        u in 0usize..20,
        v in 0usize..20,
    ) {
        // Contracting connected clusters can only shrink hop distances.
        let n = g.num_nodes();
        let u = u % n;
        let v = v % n;
        let start_times: Vec<u64> = (0..n).map(|x| starts[x % starts.len()]).collect();
        let c = cluster_with_start_times(&g, 0.25, &start_times);
        let cg = ClusterGraph::build(&g, c);
        let d_g = bfs_distances(&g, u)[v];
        let d_star = cg.cluster_distance(u, v);
        prop_assert!(d_star <= d_g);
    }

    #[test]
    fn ones_and_zeros_partition(s in 0u64..256, ell in 1u32..9) {
        let s = s % (1 << ell);
        let o = ones(s, ell);
        let z = zeros(s, ell);
        prop_assert_eq!(o.len() + z.len(), ell as usize);
        for j in 1..=ell {
            prop_assert!(o.contains(&j) ^ z.contains(&j));
        }
    }

    #[test]
    fn disjointness_graph_diameter_encodes_intersection(
        a in proptest::collection::btree_set(0u64..16, 1..8),
        b in proptest::collection::btree_set(0u64..16, 1..8),
    ) {
        let set_a: Vec<u64> = a.into_iter().collect();
        let set_b: Vec<u64> = b.into_iter().collect();
        let inst = build_disjointness_graph(&set_a, &set_b, 4);
        let diam = exact_diameter(&inst.graph).unwrap();
        prop_assert_eq!(diam, inst.predicted_diameter());
        let disjoint = set_a.iter().all(|x| !set_b.contains(x));
        prop_assert_eq!(diam == 2, disjoint);
    }
}
