//! Centralized Miller–Peng–Xu (MPX) clustering (paper, Section 2).
//!
//! Each vertex `v` samples `δ_v ∼ Exponential(β)`; a cluster starts growing
//! at `v` at time `−δ_v` and spreads at one edge per time unit; every vertex
//! is absorbed into the first cluster that reaches it (its own if nothing
//! arrives before it starts). The distributed implementation (Section 2.2)
//! discretizes time via `start_v = ⌈4 log(n)/β − δ_v⌉` and grows clusters
//! with one Local-Broadcast per round.
//!
//! This module implements the *centralized* version of the discretized
//! process: given the integer start times it simulates the growth exactly,
//! which makes it the reference implementation that the distributed protocol
//! in `radio-protocols` is tested against, and the object of the
//! Lemma 2.1–2.3 statistical experiments (E1/E2).

use std::collections::VecDeque;

use rand::Rng;

use crate::exponential::{clustering_rounds, sample_start_times};
use crate::graph::{Graph, NodeId};
use crate::{Dist, INFINITY};

/// Parameters of an MPX clustering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpxParams {
    /// The rate β of the exponential start-time shifts. The paper always
    /// chooses β so that `1/β` is an integer; [`MpxParams::new`] enforces it.
    pub beta: f64,
}

impl MpxParams {
    /// Creates parameters from an *integer* `1/β`, matching the paper's
    /// convention ("we only choose β such that 1/β is an integer").
    pub fn from_inverse_beta(inv_beta: u64) -> Self {
        assert!(inv_beta >= 1, "1/β must be a positive integer");
        MpxParams {
            beta: 1.0 / inv_beta as f64,
        }
    }

    /// Creates parameters from β directly, checking that `1/β` is integral.
    pub fn new(beta: f64) -> Self {
        assert!(beta > 0.0 && beta <= 1.0, "β must be in (0, 1]");
        let inv = 1.0 / beta;
        assert!(
            (inv - inv.round()).abs() < 1e-9,
            "1/β must be an integer (got 1/β = {inv})"
        );
        MpxParams { beta }
    }

    /// `1/β` as an integer.
    pub fn inverse_beta(&self) -> u64 {
        (1.0 / self.beta).round() as u64
    }
}

/// The result of an MPX clustering: a partition of `V(G)` into clusters,
/// each grown from a center, plus the layer labels of the growth process.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// β used to produce the clustering.
    pub beta: f64,
    /// `cluster_of[v]` is the cluster index (`0..num_clusters`) of vertex `v`.
    pub cluster_of: Vec<usize>,
    /// `centers[c]` is the center vertex of cluster `c`.
    pub centers: Vec<NodeId>,
    /// `layer[v]` is the round offset at which `v` joined its cluster:
    /// 0 for centers, and `layer[v] = layer[u] + 1` for the neighbour `u`
    /// (in the same cluster) from which `v` was absorbed.
    pub layer: Vec<u32>,
    /// The integer start times that produced this clustering.
    pub start_times: Vec<u64>,
    /// The round at which each vertex became clustered.
    pub joined_round: Vec<u64>,
}

impl Clustering {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.cluster_of.len()
    }

    /// The vertices of cluster `c`.
    pub fn members(&self, c: usize) -> Vec<NodeId> {
        self.cluster_of
            .iter()
            .enumerate()
            .filter(|&(_, &cl)| cl == c)
            .map(|(v, _)| v)
            .collect()
    }

    /// Sizes of all clusters.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters()];
        for &c in &self.cluster_of {
            sizes[c] += 1;
        }
        sizes
    }

    /// The radius of cluster `c` in the growth process: the maximum layer of
    /// any member. (This upper-bounds the eccentricity of the center within
    /// the cluster.)
    pub fn cluster_radius(&self, c: usize) -> u32 {
        self.cluster_of
            .iter()
            .zip(&self.layer)
            .filter(|&(&cl, _)| cl == c)
            .map(|(_, &l)| l)
            .max()
            .unwrap_or(0)
    }

    /// Maximum cluster radius (Lemma 2.2 conditions on this being at most
    /// `4 log(n)/β` with probability `1 − n^{-3}`).
    pub fn max_radius(&self) -> u32 {
        (0..self.num_clusters())
            .map(|c| self.cluster_radius(c))
            .max()
            .unwrap_or(0)
    }

    /// Number of edges of `g` whose endpoints lie in different clusters
    /// (MPX: an `O(β)` fraction in expectation).
    pub fn cut_edges(&self, g: &Graph) -> usize {
        g.edges()
            .filter(|&(u, v)| self.cluster_of[u] != self.cluster_of[v])
            .count()
    }

    /// Fraction of edges cut (0 for edgeless graphs).
    pub fn cut_fraction(&self, g: &Graph) -> f64 {
        if g.num_edges() == 0 {
            0.0
        } else {
            self.cut_edges(g) as f64 / g.num_edges() as f64
        }
    }

    /// Number of distinct clusters intersecting the ball `Ball_G(v, ℓ)`
    /// (the quantity bounded by Lemma 2.1).
    pub fn ball_cluster_intersections(&self, g: &Graph, v: NodeId, ell: Dist) -> usize {
        let dist = crate::bfs::bfs_distances(g, v);
        let mut seen = std::collections::HashSet::new();
        for u in g.nodes() {
            if dist[u] != INFINITY && dist[u] <= ell {
                seen.insert(self.cluster_of[u]);
            }
        }
        seen.len()
    }

    /// Validates the structural invariants of an MPX clustering against the
    /// graph that produced it:
    ///
    /// * every vertex belongs to exactly one cluster and every cluster is
    ///   non-empty;
    /// * `layer[v] == 0` iff `v` is a center;
    /// * every non-center `v` has a neighbour `u` in the same cluster with
    ///   `layer[u] == layer[v] − 1` (so clusters are connected);
    /// * no vertex was "captured late": a vertex joins in round
    ///   `start of its center + layer`, and no other center could have
    ///   reached it strictly earlier.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        let n = g.num_nodes();
        if self.cluster_of.len() != n || self.layer.len() != n {
            return Err("length mismatch".into());
        }
        let sizes = self.cluster_sizes();
        if sizes.contains(&0) {
            return Err("empty cluster".into());
        }
        for (c, &center) in self.centers.iter().enumerate() {
            if self.cluster_of[center] != c {
                return Err(format!("center {center} not in its own cluster {c}"));
            }
            if self.layer[center] != 0 {
                return Err(format!("center {center} has non-zero layer"));
            }
        }
        for v in g.nodes() {
            let c = self.cluster_of[v];
            if c >= self.centers.len() {
                return Err(format!("vertex {v} has invalid cluster id {c}"));
            }
            if self.layer[v] == 0 {
                if self.centers[c] != v {
                    return Err(format!("vertex {v} has layer 0 but is not a center"));
                }
            } else {
                let ok = g
                    .neighbors(v)
                    .iter()
                    .any(|&u| self.cluster_of[u] == c && self.layer[u] + 1 == self.layer[v]);
                if !ok {
                    return Err(format!("vertex {v} has no predecessor in its cluster"));
                }
            }
        }
        // No-late-capture: for every vertex v and every center u,
        // the round at which v actually joined is at most the round at which
        // u's cluster could first have reached v.
        let joined: &Vec<u64> = &self.joined_round;
        for (c, &center) in self.centers.iter().enumerate() {
            let dist = crate::bfs::bfs_distances(g, center);
            for v in g.nodes() {
                if dist[v] == INFINITY {
                    continue;
                }
                let earliest = self.start_times[center] + dist[v] as u64;
                if joined[v] > earliest && self.cluster_of[v] != c {
                    return Err(format!(
                        "vertex {v} joined at round {} but center {center} (cluster {c}) \
                         could have reached it at round {earliest}",
                        joined[v]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Runs the discretized MPX growth process with explicitly given integer
/// start times. Deterministic: ties (several clusters reaching a vertex in
/// the same round) are broken towards the smaller cluster index, matching
/// nothing in particular in the paper — any tie-break yields a valid MPX
/// clustering.
pub fn cluster_with_start_times(g: &Graph, beta: f64, start_times: &[u64]) -> Clustering {
    let n = g.num_nodes();
    assert_eq!(start_times.len(), n);
    let max_round = start_times.iter().copied().max().unwrap_or(0) + n as u64 + 1;

    let mut cluster_of = vec![usize::MAX; n];
    let mut layer = vec![0u32; n];
    let mut joined_round = vec![0u64; n];
    let mut centers: Vec<NodeId> = Vec::new();

    // Frontier-based simulation: at each round, first new centers appear,
    // then every unclustered vertex adjacent to a clustered one joins.
    let mut frontier: VecDeque<NodeId> = VecDeque::new();
    let mut round = 1u64;
    let mut clustered = 0usize;
    // Vertices sorted by start time so centers can be activated lazily.
    let mut by_start: Vec<NodeId> = (0..n).collect();
    by_start.sort_by_key(|&v| start_times[v]);
    let mut next_center_idx = 0usize;

    while clustered < n && round <= max_round {
        // 1. Activate new centers whose start time is this round.
        while next_center_idx < n && start_times[by_start[next_center_idx]] <= round {
            let v = by_start[next_center_idx];
            next_center_idx += 1;
            if cluster_of[v] == usize::MAX {
                cluster_of[v] = centers.len();
                centers.push(v);
                layer[v] = 0;
                joined_round[v] = round;
                clustered += 1;
                frontier.push_back(v);
            }
        }
        // 2. One synchronous growth step: unclustered vertices adjacent to
        //    the current clustered set join. We must expand by exactly one
        //    hop per round, so collect the joiners before committing them.
        let mut joiners: Vec<(NodeId, usize, u32)> = Vec::new();
        let mut next_frontier: VecDeque<NodeId> = VecDeque::new();
        for &u in frontier.iter() {
            for &v in g.neighbors(u) {
                if cluster_of[v] == usize::MAX {
                    joiners.push((v, cluster_of[u], layer[u] + 1));
                }
            }
        }
        // Deterministic tie-break: smallest cluster index wins, then
        // smallest layer.
        joiners.sort_by_key(|&(v, c, l)| (v, c, l));
        for (v, c, l) in joiners {
            if cluster_of[v] == usize::MAX {
                cluster_of[v] = c;
                layer[v] = l;
                joined_round[v] = round;
                clustered += 1;
                next_frontier.push_back(v);
            }
        }
        // The old frontier can still absorb vertices next round only through
        // the vertices just added; grown clusters expand from their boundary.
        frontier = if next_frontier.is_empty() && clustered < n {
            // No growth this round (e.g. waiting for a far-away component's
            // center to start); keep the old frontier so adjacency is not
            // lost when new centers appear later.
            frontier
        } else {
            next_frontier
        };
        round += 1;
    }

    // Isolated leftovers (disconnected graphs where nothing reached a vertex
    // before its own start) become their own clusters.
    for v in 0..n {
        if cluster_of[v] == usize::MAX {
            cluster_of[v] = centers.len();
            centers.push(v);
            layer[v] = 0;
            joined_round[v] = start_times[v];
        }
    }

    Clustering {
        beta,
        cluster_of,
        centers,
        layer,
        start_times: start_times.to_vec(),
        joined_round,
    }
}

/// Samples start times from `Exponential(β)` (rounded as in Section 2.2) and
/// runs the centralized clustering.
pub fn cluster_centralized<R: Rng + ?Sized>(
    g: &Graph,
    params: MpxParams,
    rng: &mut R,
) -> Clustering {
    let n = g.num_nodes().max(2);
    let start_times = sample_start_times(g.num_nodes(), params.beta, rng);
    // Sanity: the horizon is what Lemma 2.5 budgets for.
    debug_assert!(clustering_rounds(n, params.beta) >= 1);
    cluster_with_start_times(g, params.beta, &start_times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn clustering_partitions_all_vertices() {
        let mut r = rng(1);
        let g = generators::grid(10, 10);
        let c = cluster_centralized(&g, MpxParams::from_inverse_beta(4), &mut r);
        assert_eq!(c.num_nodes(), 100);
        assert_eq!(c.cluster_sizes().iter().sum::<usize>(), 100);
        c.validate(&g).expect("valid clustering");
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::from_edges(1, &[]);
        let c = cluster_with_start_times(&g, 0.5, &[3]);
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.cluster_of, vec![0]);
        c.validate(&g).unwrap();
    }

    #[test]
    fn earliest_start_becomes_center_and_absorbs_path() {
        // Path 0-1-2-3-4. Vertex 2 starts at round 1, everyone else much later:
        // the whole path should be one cluster centered at 2.
        let g = generators::path(5);
        let starts = vec![100, 100, 1, 100, 100];
        let c = cluster_with_start_times(&g, 0.25, &starts);
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.centers[0], 2);
        assert_eq!(c.layer, vec![2, 1, 0, 1, 2]);
        c.validate(&g).unwrap();
    }

    #[test]
    fn two_competing_centers_split_a_path() {
        // Path of 7; centers at both ends start simultaneously.
        let g = generators::path(7);
        let starts = vec![1, 50, 50, 50, 50, 50, 1];
        let c = cluster_with_start_times(&g, 0.25, &starts);
        assert_eq!(c.num_clusters(), 2);
        c.validate(&g).unwrap();
        // The two clusters each take about half the path.
        let sizes = c.cluster_sizes();
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)), "{sizes:?}");
    }

    #[test]
    fn late_starts_dont_override_earlier_growth() {
        // Vertex 0 starts at 1; vertex 4 would start at 3 but the cluster of
        // 0 reaches it at round 1+4=5... actually at distance 4 it arrives at
        // round 5, so 4 becomes its own center at round 3.
        let g = generators::path(5);
        let starts = vec![1, 50, 50, 50, 3];
        let c = cluster_with_start_times(&g, 0.25, &starts);
        assert_eq!(c.num_clusters(), 2);
        assert!(c.centers.contains(&0));
        assert!(c.centers.contains(&4));
        c.validate(&g).unwrap();
    }

    #[test]
    fn disconnected_graph_gets_clusters_everywhere() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3)]);
        let mut r = rng(2);
        let c = cluster_centralized(&g, MpxParams::from_inverse_beta(2), &mut r);
        assert_eq!(c.cluster_of.iter().filter(|&&x| x == usize::MAX).count(), 0);
        c.validate(&g).unwrap();
    }

    #[test]
    fn max_radius_respects_lemma_bound_whp() {
        // Lemma 2.2's conditioning event: all radii < 4 log(n)/β.
        let mut r = rng(3);
        let g = generators::grid(20, 20);
        let params = MpxParams::from_inverse_beta(4);
        let bound = (4.0 * (g.num_nodes() as f64).ln() / params.beta).ceil() as u32;
        for _ in 0..10 {
            let c = cluster_centralized(&g, params, &mut r);
            assert!(c.max_radius() <= bound, "{} > {}", c.max_radius(), bound);
        }
    }

    #[test]
    fn cut_fraction_scales_with_beta() {
        // Larger β (smaller clusters) should cut more edges on average.
        let mut r = rng(4);
        let g = generators::grid(30, 30);
        let avg = |inv_beta: u64, r: &mut ChaCha8Rng| {
            let params = MpxParams::from_inverse_beta(inv_beta);
            let trials = 8;
            (0..trials)
                .map(|_| cluster_centralized(&g, params, r).cut_fraction(&g))
                .sum::<f64>()
                / trials as f64
        };
        let coarse = avg(16, &mut r);
        let fine = avg(2, &mut r);
        assert!(
            fine > coarse,
            "cut fraction should grow with β: fine={fine}, coarse={coarse}"
        );
    }

    #[test]
    fn ball_intersections_counts_clusters() {
        let g = generators::path(9);
        // Three clusters of three vertices each.
        let starts = vec![1, 50, 50, 50, 1, 50, 50, 50, 1];
        let c = cluster_with_start_times(&g, 0.25, &starts);
        assert_eq!(c.num_clusters(), 3);
        assert_eq!(c.ball_cluster_intersections(&g, 4, 1), 1);
        assert_eq!(c.ball_cluster_intersections(&g, 4, 3), 3);
        assert_eq!(c.ball_cluster_intersections(&g, 0, 0), 1);
    }

    #[test]
    fn params_validation() {
        let p = MpxParams::from_inverse_beta(8);
        assert!((p.beta - 0.125).abs() < 1e-12);
        assert_eq!(p.inverse_beta(), 8);
        let p2 = MpxParams::new(0.25);
        assert_eq!(p2.inverse_beta(), 4);
    }

    #[test]
    #[should_panic]
    fn params_reject_non_integer_inverse_beta() {
        let _ = MpxParams::new(0.3);
    }

    #[test]
    fn validate_catches_corruption() {
        let g = generators::grid(5, 5);
        let mut r = rng(5);
        let mut c = cluster_centralized(&g, MpxParams::from_inverse_beta(3), &mut r);
        c.validate(&g).unwrap();
        // Corrupt a layer value.
        if let Some(l) = c.layer.iter_mut().find(|l| **l > 0) {
            *l += 7;
        } else {
            // Single cluster of radius 0 can't be corrupted this way; force
            // an invalid cluster id instead.
            c.cluster_of[0] = 999;
        }
        assert!(c.validate(&g).is_err());
    }
}
