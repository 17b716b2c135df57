//! The cluster graph `G* = cluster(G, β)` and its use as a distance proxy
//! (paper, Section 2.1).
//!
//! `V(G*)` is the set of clusters; `{Cl(u), Cl(v)} ∈ E(G*)` whenever some
//! edge of `G` crosses the two clusters. Lemmas 2.2 and 2.3 show that
//! distances in `G*`, rescaled by `β`, track distances in `G` up to
//! polylogarithmic factors — that relationship is what makes the recursive
//! BFS of Section 4 possible, and this module provides both the construction
//! and the empirical checkers used by experiments E1/E2.

use crate::bfs::bfs_distances;
use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::mpx::Clustering;
use crate::{Dist, INFINITY};

/// The quotient graph of a [`Clustering`].
#[derive(Clone, Debug)]
pub struct ClusterGraph {
    /// The quotient graph: vertex `c` of this graph is cluster `c`.
    pub graph: Graph,
    /// The clustering that produced it.
    pub clustering: Clustering,
}

impl ClusterGraph {
    /// Builds the cluster graph from a graph and a clustering of it.
    pub fn build(g: &Graph, clustering: Clustering) -> Self {
        assert_eq!(clustering.num_nodes(), g.num_nodes());
        let k = clustering.num_clusters();
        let mut b = GraphBuilder::new(k);
        for (u, v) in g.edges() {
            let cu = clustering.cluster_of[u];
            let cv = clustering.cluster_of[v];
            if cu != cv {
                b.add_edge(cu, cv);
            }
        }
        ClusterGraph {
            graph: b.build(),
            clustering,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The cluster containing vertex `v` of the original graph.
    pub fn cluster_of(&self, v: NodeId) -> usize {
        self.clustering.cluster_of[v]
    }

    /// Distance in `G*` between the clusters of `u` and `v`.
    pub fn cluster_distance(&self, u: NodeId, v: NodeId) -> Dist {
        let cu = self.cluster_of(u);
        let cv = self.cluster_of(v);
        bfs_distances(&self.graph, cu)[cv]
    }
}

/// The outcome of checking Lemma 2.2 on one vertex pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceProxySample {
    /// Distance in the original graph.
    pub dist_g: Dist,
    /// Distance between the two clusters in the cluster graph.
    pub dist_star: Dist,
    /// Lemma 2.2 lower bound `⌊dist_G · β / (8 ln n)⌋`.
    pub lower: Dist,
    /// Lemma 2.2 upper bound `⌈dist_G · β⌉ · C ln n`.
    pub upper: Dist,
}

impl DistanceProxySample {
    /// Whether the sampled pair satisfied the lemma's interval.
    pub fn within_bounds(&self) -> bool {
        self.dist_star >= self.lower && self.dist_star <= self.upper
    }
}

/// Evaluates the Lemma 2.2 interval for the pair `(u, v)` using constant
/// `c_upper` for the unspecified constant `C`.
///
/// Returns `None` when `u` and `v` are disconnected.
pub fn check_distance_proxy(
    g: &Graph,
    cg: &ClusterGraph,
    u: NodeId,
    v: NodeId,
    c_upper: f64,
) -> Option<DistanceProxySample> {
    let n = g.num_nodes().max(2) as f64;
    let beta = cg.clustering.beta;
    let dist_g = bfs_distances(g, u)[v];
    if dist_g == INFINITY {
        return None;
    }
    let dist_star = cg.cluster_distance(u, v);
    let lower = ((dist_g as f64 * beta) / (8.0 * n.ln())).floor() as Dist;
    let upper = ((dist_g as f64 * beta).ceil() * c_upper * n.ln()).ceil() as Dist;
    Some(DistanceProxySample {
        dist_g,
        dist_star,
        lower,
        upper,
    })
}

/// Aggregate statistics over many vertex pairs for experiment E2.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistanceProxyStats {
    /// Number of pairs sampled (connected pairs only).
    pub pairs: usize,
    /// Pairs violating the Lemma 2.2 interval.
    pub violations: usize,
    /// Maximum of `dist_G* / (β · dist_G)` over pairs with `dist_G > 0`.
    pub max_ratio: f64,
    /// Minimum of the same ratio.
    pub min_ratio: f64,
    /// Mean of the same ratio.
    pub mean_ratio: f64,
}

/// Checks Lemma 2.2 over all (ordered) pairs from `pairs`, with the
/// unspecified constant set to `c_upper`.
pub fn distance_proxy_stats(
    g: &Graph,
    cg: &ClusterGraph,
    pairs: &[(NodeId, NodeId)],
    c_upper: f64,
) -> DistanceProxyStats {
    let mut stats = DistanceProxyStats {
        min_ratio: f64::INFINITY,
        ..Default::default()
    };
    let mut ratio_sum = 0.0;
    let mut ratio_count = 0usize;
    for &(u, v) in pairs {
        let Some(sample) = check_distance_proxy(g, cg, u, v, c_upper) else {
            continue;
        };
        stats.pairs += 1;
        if !sample.within_bounds() {
            stats.violations += 1;
        }
        if sample.dist_g > 0 {
            let ratio = sample.dist_star as f64 / (cg.clustering.beta * sample.dist_g as f64);
            stats.max_ratio = stats.max_ratio.max(ratio);
            stats.min_ratio = stats.min_ratio.min(ratio);
            ratio_sum += ratio;
            ratio_count += 1;
        }
    }
    if ratio_count > 0 {
        stats.mean_ratio = ratio_sum / ratio_count as f64;
    }
    if stats.min_ratio == f64::INFINITY {
        stats.min_ratio = 0.0;
    }
    stats
}

/// The Lemma 2.1 tail bound: `P(Ball(v, ℓ) meets > j clusters) ≤
/// (1 − e^{−2ℓβ})^j`.
pub fn lemma_2_1_bound(beta: f64, ell: f64, j: u32) -> f64 {
    (1.0 - (-2.0 * ell * beta).exp()).powi(j as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::mpx::{cluster_centralized, cluster_with_start_times, MpxParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn quotient_of_path_with_three_clusters() {
        let g = generators::path(9);
        let starts = vec![1, 50, 50, 50, 1, 50, 50, 50, 1];
        let c = cluster_with_start_times(&g, 0.25, &starts);
        let cg = ClusterGraph::build(&g, c);
        assert_eq!(cg.num_clusters(), 3);
        // The quotient of a path by contiguous segments is a path.
        assert_eq!(cg.graph.num_edges(), 2);
        assert_eq!(cg.cluster_distance(0, 8), 2);
        assert_eq!(cg.cluster_distance(0, 1), 0);
    }

    #[test]
    fn single_cluster_graph_has_no_edges() {
        let g = generators::complete(6);
        let starts = vec![1, 50, 50, 50, 50, 50];
        let c = cluster_with_start_times(&g, 0.5, &starts);
        let cg = ClusterGraph::build(&g, c);
        assert_eq!(cg.num_clusters(), 1);
        assert_eq!(cg.graph.num_edges(), 0);
    }

    #[test]
    fn cluster_graph_edges_come_from_cut_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generators::grid(12, 12);
        let c = cluster_centralized(&g, MpxParams::from_inverse_beta(3), &mut rng);
        let cut = c.cut_edges(&g);
        let cg = ClusterGraph::build(&g, c);
        // Every quotient edge needs at least one cut edge behind it.
        assert!(cg.graph.num_edges() <= cut);
        // And adjacency in G* implies a crossing edge in G.
        for (a, b) in cg.graph.edges() {
            let found = g.edges().any(|(u, v)| {
                (cg.cluster_of(u) == a && cg.cluster_of(v) == b)
                    || (cg.cluster_of(u) == b && cg.cluster_of(v) == a)
            });
            assert!(found, "quotient edge ({a},{b}) has no witness in G");
        }
    }

    #[test]
    fn lemma_2_2_holds_empirically_on_grids() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::grid(15, 15);
        let mut violations = 0;
        for _ in 0..10 {
            let c = cluster_centralized(&g, MpxParams::from_inverse_beta(4), &mut rng);
            let cg = ClusterGraph::build(&g, c);
            let pairs: Vec<_> = (0..g.num_nodes())
                .step_by(7)
                .flat_map(|u| (0..g.num_nodes()).step_by(11).map(move |v| (u, v)))
                .collect();
            let stats = distance_proxy_stats(&g, &cg, &pairs, 4.0);
            violations += stats.violations;
        }
        assert_eq!(violations, 0, "Lemma 2.2 interval violated");
    }

    #[test]
    fn lemma_2_1_bound_shape() {
        // Monotone decreasing in j, in (0, 1) for positive arguments.
        let b1 = lemma_2_1_bound(0.25, 2.0, 1);
        let b4 = lemma_2_1_bound(0.25, 2.0, 4);
        assert!(b1 > b4);
        assert!(b1 < 1.0 && b4 > 0.0);
        // With ℓ = 1/β the per-trial probability is 1 − e^{-2}.
        let expected = 1.0 - (-2.0f64).exp();
        assert!((lemma_2_1_bound(0.25, 4.0, 1) - expected).abs() < 1e-12);
    }

    #[test]
    fn proxy_stats_handle_disconnected_pairs() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let c = cluster_with_start_times(&g, 0.5, &[1, 10, 1, 10]);
        let cg = ClusterGraph::build(&g, c);
        let stats = distance_proxy_stats(&g, &cg, &[(0, 2), (0, 1)], 4.0);
        // The disconnected pair is skipped.
        assert_eq!(stats.pairs, 1);
    }

    #[test]
    fn ball_intersections_obey_lemma_2_1_on_average() {
        // Statistical check of Lemma 2.1 at ℓ = 1/β, j = ~log n.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::grid(20, 20);
        let params = MpxParams::from_inverse_beta(4);
        let ell = params.inverse_beta() as Dist;
        let n = g.num_nodes() as f64;
        let j = (2.0 * n.ln()).ceil() as usize;
        let trials = 20;
        let mut exceed = 0usize;
        for t in 0..trials {
            let c = cluster_centralized(&g, params, &mut rng);
            let v = (t * 37) % g.num_nodes();
            if c.ball_cluster_intersections(&g, v, ell) > j {
                exceed += 1;
            }
        }
        // Bound is (1 - e^-2)^j ≈ 3e-4 per trial at j ≈ 12; none should exceed.
        assert_eq!(exceed, 0);
    }
}
