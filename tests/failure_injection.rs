//! Failure-injection tests: the paper's primitives are specified to work
//! with probability `1 − 1/poly(n)` per Local-Broadcast; these tests inject
//! much harsher failure rates and check that the protocols degrade the way
//! the design intends (structural invariants never break, coverage degrades
//! gracefully, and correctness returns once the failure rate is polynomial).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use radio_energy::bfs::baseline::trivial_bfs;
use radio_energy::bfs::{build_hierarchy, recursive_bfs_with_hierarchy, RecursiveBfsConfig};
use radio_energy::graph::bfs::bfs_distances;
use radio_energy::graph::generators;
use radio_energy::protocols::broadcast::{layered_broadcast, Layers};
use radio_energy::protocols::{cluster_distributed, ClusteringConfig, Msg, StackBuilder};

/// Clustering under 30% message loss still produces a structurally valid
/// partition (every vertex ends up in a connected cluster with consistent
/// layers) — vertices that never hear anything become their own clusters.
#[test]
fn clustering_survives_heavy_loss() {
    let g = generators::grid(10, 10);
    for seed in 0..3u64 {
        let mut net = StackBuilder::new(g.clone())
            .with_failures(0.3)
            .with_seed(seed)
            .build();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let state = cluster_distributed(&mut net, &ClusteringConfig::new(4), &mut rng);
        state
            .validate()
            .expect("structural invariants must survive loss");
        assert_eq!(state.cluster_sizes().iter().sum::<usize>(), 100);
    }
}

/// Layered broadcast with a lossy channel: coverage degrades with the loss
/// rate but never produces a *wrong* payload, and with a tiny loss rate it
/// reaches everyone.
#[test]
fn broadcast_degrades_gracefully_and_never_corrupts() {
    let g = generators::grid(9, 9);
    let labels: Vec<Option<u64>> = bfs_distances(&g, 0)
        .into_iter()
        .map(|d| Some(u64::from(d)))
        .collect();
    let layers = Layers::new(&labels);

    let coverage = |failure: f64, seed: u64| -> usize {
        let mut net = StackBuilder::new(g.clone())
            .with_failures(failure)
            .with_seed(seed)
            .build();
        let out = layered_broadcast(&mut net, &layers, &Msg::words(&[7]));
        for m in out.iter().flatten() {
            assert_eq!(m.word(0), 7, "corrupted payload");
        }
        out.iter().filter(|m| m.is_some()).count()
    };

    let lossy: usize = (0..3).map(|s| coverage(0.4, s)).sum();
    let near_perfect: usize = (0..3).map(|s| coverage(0.001, 100 + s)).sum();
    assert!(near_perfect > lossy, "loss should reduce coverage");
    assert_eq!(
        near_perfect,
        3 * g.num_nodes(),
        "negligible loss must reach everyone"
    );
}

/// The CD wavefront under heavy loss, dispatched through the registry: a
/// failed delivery surfaces as a `Noise` verdict, which pins the distance
/// exactly (a sending neighbour exists at the current step), so
/// `trivial_bfs_cd` recovers the *exact* labelling at loss rates where the
/// no-CD wavefront visibly degrades.
#[test]
fn cd_wavefront_is_exact_under_heavy_loss() {
    use radio_energy::bfs::protocol::registry;
    use radio_energy::protocols::ProtocolInput;
    let g = generators::grid(8, 8);
    let truth = bfs_distances(&g, 0);
    let protocol = registry().get("trivial_bfs_cd").expect("spec resolves");
    for seed in 0..4u64 {
        let mut net = StackBuilder::new(g.clone())
            .with_cd()
            .with_failures(0.5)
            .with_seed(seed)
            .build();
        let report = protocol
            .run(&mut net, &ProtocolInput::from_seed(seed))
            .expect("abstract_cd satisfies the CD requirement");
        let dist = report.output.distances().expect("BFS output");
        for v in g.nodes() {
            assert_eq!(
                dist[v],
                Some(truth[v] as u64),
                "seed {seed}: vertex {v} mislabelled despite CD recovery"
            );
        }
    }
}

/// The trivial wavefront BFS with loss: settled distances are never wrong
/// (they can only be missing or — when a shorter path's message was lost —
/// overestimated is impossible because a vertex only adopts a value the
/// round it hears it, which is always a true path length).
#[test]
fn lossy_wavefront_never_underestimates_distance() {
    let g = generators::grid(8, 8);
    let truth = bfs_distances(&g, 0);
    for seed in 0..4u64 {
        let mut net = StackBuilder::new(g.clone())
            .with_failures(0.25)
            .with_seed(seed)
            .build();
        let active = vec![true; g.num_nodes()];
        let result = trivial_bfs(&mut net, &[0], &active, 40);
        for v in g.nodes() {
            if let Some(d) = result.dist[v] {
                assert!(
                    d >= truth[v] as u64,
                    "vertex {v} settled at {d}, below the true distance {}",
                    truth[v]
                );
            }
        }
    }
}

/// The full recursive BFS with a polynomial failure rate (the regime the
/// paper's `f = 1/poly(n)` guarantees are stated for): the labelling still
/// matches the reference exactly.
#[test]
fn recursive_bfs_with_polynomial_failure_rate_is_still_exact() {
    let g = generators::path(150);
    let truth = bfs_distances(&g, 0);
    let n = g.num_nodes() as f64;
    let f = n.powi(-3);
    let config = RecursiveBfsConfig {
        inv_beta: 8,
        max_depth: 1,
        seed: 77,
    };
    let mut net = StackBuilder::new(g.clone())
        .with_failures(f)
        .with_seed(5)
        .build();
    let hierarchy = build_hierarchy(&mut net, &config);
    let outcome = recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[0], 149, &config, &[]);
    for v in g.nodes() {
        assert_eq!(outcome.dist[v], Some(truth[v] as u64), "vertex {v}");
    }
}

/// The recursive BFS under unrealistically heavy loss (5%) may miss
/// vertices, but every label it does produce is a true distance — the
/// verification property the paper's introduction highlights (a BFS
/// labelling is cheap to verify).
#[test]
fn recursive_bfs_under_heavy_loss_never_lies() {
    let g = generators::grid(10, 10);
    let truth = bfs_distances(&g, 0);
    let config = RecursiveBfsConfig {
        inv_beta: 4,
        max_depth: 1,
        seed: 3,
    };
    let mut net = StackBuilder::new(g.clone())
        .with_failures(0.05)
        .with_seed(11)
        .build();
    let hierarchy = build_hierarchy(&mut net, &config);
    let outcome = recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[0], 30, &config, &[]);
    for v in g.nodes() {
        if let Some(d) = outcome.dist[v] {
            assert!(
                d >= truth[v] as u64,
                "vertex {v} labelled {d} below its true distance {}",
                truth[v]
            );
        }
    }
}
