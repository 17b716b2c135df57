//! Distributed MPX clustering over Local-Broadcast (paper, Lemma 2.5).
//!
//! Every vertex samples `δ_v ∼ Exponential(β)` and sets
//! `start_v = ⌈4 log(n)/β − δ_v⌉`. The protocol then runs `⌈4 log(n)/β⌉`
//! rounds; in round `i` every not-yet-clustered vertex whose start time has
//! arrived becomes a cluster center, and one Local-Broadcast lets clustered
//! vertices absorb unclustered neighbours, which learn their cluster
//! identifier, their layer (distance to the center along the growth), and
//! the cluster's random tag.
//!
//! The tag replaces the "shared randomness within a cluster" that Section 3
//! needs for the index sets `S_Cl ⊂ [ℓ]`: the center draws a 64-bit tag,
//! disseminates it in the join messages (still `O(log n)` bits), and every
//! member expands it pseudorandomly into the same subset `S_Cl`. This is the
//! standard derandomization-by-seed trick and preserves the property (2)
//! the casts rely on.

use radio_graph::exponential::{sample_exponential, start_time};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::message::Msg;
use crate::stack::RadioStack;

/// Configuration of the distributed clustering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusteringConfig {
    /// The MPX rate β (the paper requires `1/β` to be an integer).
    pub beta: f64,
    /// Multiplier on `C·log n` for the index-set length `ℓ` of Section 3.
    pub ell_factor: f64,
}

impl ClusteringConfig {
    /// Configuration with integral `1/β` and default constants.
    pub fn new(inv_beta: u64) -> Self {
        assert!(inv_beta >= 2, "1/β must be at least 2");
        ClusteringConfig {
            beta: 1.0 / inv_beta as f64,
            // The paper leaves the Θ(C log n) constant open; 4.0 keeps the
            // probability that some vertex lacks a private index in S_Cl
            // (property (2) of Section 3, which the casts rely on)
            // negligible even at test-sized n, where 2.0 failed a few
            // instances per thousand.
            ell_factor: 4.0,
        }
    }

    /// `1/β` as an integer.
    pub fn inverse_beta(&self) -> u64 {
        (1.0 / self.beta).round() as u64
    }

    /// The contention bound `C = ⌈log_{1/β} n⌉` (at least 2): with high
    /// probability at most this many clusters intersect any closed
    /// neighbourhood (Lemma 2.1 with `ℓ = 1` gives `C = O(log_{1/β} n)`;
    /// the constant is 1).
    pub fn contention_bound(&self, global_n: usize) -> usize {
        let n = global_n.max(2) as f64;
        let base = (1.0 / self.beta).max(2.0);
        ((n.ln() / base.ln()).ceil() as usize).max(2)
    }

    /// The index-set length `ℓ = Θ(C log n)` used by the casts.
    pub fn ell(&self, global_n: usize) -> usize {
        let n = global_n.max(2) as f64;
        ((self.ell_factor * self.contention_bound(global_n) as f64 * n.ln()).ceil() as usize).max(4)
    }

    /// Number of growth rounds `⌈4 log(n)/β⌉` (Lemma 2.5).
    pub fn rounds(&self, global_n: usize) -> u64 {
        let n = global_n.max(2) as f64;
        (4.0 * n.ln() / self.beta).ceil() as u64
    }
}

/// The state shared by all members of a clustering, produced by
/// [`cluster_distributed`] and consumed by the casts, the virtual cluster
/// network, and the recursive BFS.
#[derive(Clone, Debug)]
pub struct ClusterState {
    /// β used to grow the clustering.
    pub beta: f64,
    /// Cluster index of every node of the parent network.
    pub cluster_of: Vec<usize>,
    /// Layer (hop distance from the center along the growth) of every node.
    pub layer: Vec<u32>,
    /// Center node of every cluster.
    pub centers: Vec<usize>,
    /// Random 64-bit tag of every cluster (the shared-randomness seed).
    pub tags: Vec<u64>,
    /// The index sets `S_Cl ⊂ [ℓ]`, one per cluster, derived from the tags.
    pub s_sets: Vec<Vec<usize>>,
    /// Length `ℓ` of the index universe.
    pub ell: usize,
    /// Maximum layer over all nodes (the cast stage count `D`).
    pub max_layer: u32,
    /// The start times that drove the growth (for reproducibility/testing).
    pub start_times: Vec<u64>,
    /// Members of every cluster, grouped by layer:
    /// `members_by_layer[c][l]` lists the layer-`l` members of cluster `c`.
    pub members_by_layer: Vec<Vec<Vec<usize>>>,
}

impl ClusterState {
    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Number of nodes of the parent network.
    pub fn num_nodes(&self) -> usize {
        self.cluster_of.len()
    }

    /// All members of cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.members_by_layer[c].iter().flatten().copied().collect()
    }

    /// Members of cluster `c` at layer `l` (empty past the cluster radius).
    #[inline]
    pub fn members_at_layer(&self, c: usize, l: u32) -> &[usize] {
        self.members_by_layer[c]
            .get(l as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Radius (maximum layer) of cluster `c`.
    #[inline]
    pub fn radius(&self, c: usize) -> u32 {
        (self.members_by_layer[c].len() as u32).saturating_sub(1)
    }

    /// Cluster sizes.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        (0..self.num_clusters())
            .map(|c| self.members(c).len())
            .collect()
    }

    /// Converts to the centralized [`radio_graph::Clustering`] representation
    /// so the `radio-graph` lemma checkers and the cluster-graph builder can
    /// be reused on distributed output.
    pub fn to_graph_clustering(&self) -> radio_graph::Clustering {
        radio_graph::Clustering {
            beta: self.beta,
            cluster_of: self.cluster_of.clone(),
            centers: self.centers.clone(),
            layer: self.layer.clone(),
            start_times: self.start_times.clone(),
            joined_round: self
                .start_times
                .iter()
                .zip(&self.layer)
                .zip(&self.cluster_of)
                .map(|((_, &l), &c)| self.start_times[self.centers[c]] + l as u64)
                .collect(),
        }
    }

    /// The quotient (cluster) graph `G*` implied by this clustering on the
    /// given parent topology.
    pub fn quotient_graph(&self, parent: &radio_graph::Graph) -> radio_graph::Graph {
        let mut b = radio_graph::GraphBuilder::new(self.num_clusters());
        for (u, v) in parent.edges() {
            let cu = self.cluster_of[u];
            let cv = self.cluster_of[v];
            if cu != cv {
                b.add_edge(cu, cv);
            }
        }
        b.build()
    }

    /// Structural validation (mirrors `radio_graph::Clustering::validate`
    /// plus the cast prerequisites).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if self.layer.len() != n || self.start_times.len() != n {
            return Err("length mismatch".into());
        }
        if self.s_sets.len() != self.num_clusters() || self.tags.len() != self.num_clusters() {
            return Err("per-cluster data length mismatch".into());
        }
        for (c, &center) in self.centers.iter().enumerate() {
            if self.cluster_of[center] != c || self.layer[center] != 0 {
                return Err(format!("bad center for cluster {c}"));
            }
        }
        for v in 0..n {
            let c = self.cluster_of[v];
            if c >= self.num_clusters() {
                return Err(format!("vertex {v} has out-of-range cluster"));
            }
            let l = self.layer[v];
            if !self.members_at_layer(c, l).contains(&v) {
                return Err(format!("vertex {v} missing from members_by_layer"));
            }
            if l > self.max_layer {
                return Err(format!("vertex {v} has layer beyond max_layer"));
            }
        }
        for (c, s) in self.s_sets.iter().enumerate() {
            if s.is_empty() {
                return Err(format!("cluster {c} has an empty index set"));
            }
            if s.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("cluster {c} index set not sorted/unique"));
            }
            if s.iter().any(|&j| j >= self.ell) {
                return Err(format!("cluster {c} index out of range"));
            }
        }
        Ok(())
    }
}

/// Expands a cluster tag into its index set `S_Cl ⊂ [ℓ]`, including each
/// index independently with probability `1/contention`, and always at least
/// one index (resampling a single deterministic fallback otherwise) so that
/// casts can never strand a cluster.
pub fn expand_tag_to_s_set(tag: u64, ell: usize, contention: usize) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(tag);
    let p = 1.0 / contention.max(1) as f64;
    let mut set: Vec<usize> = (0..ell).filter(|_| rng.gen_bool(p)).collect();
    if set.is_empty() {
        set.push((tag % ell as u64) as usize);
    }
    set
}

/// Runs the distributed MPX clustering protocol of Lemma 2.5 on `net`.
///
/// Energy per node is `O(rounds) = O(log n / β)` Local-Broadcast
/// participations (every not-yet-clustered node listens each round, every
/// clustered node sends each round), matching the lemma's accounting.
pub fn cluster_distributed<R: Rng + ?Sized>(
    net: &mut dyn RadioStack,
    config: &ClusteringConfig,
    rng: &mut R,
) -> ClusterState {
    let n = net.num_nodes();
    let global_n = net.global_n();
    let rounds = config.rounds(global_n);

    // Each device samples its start time locally.
    let start_times: Vec<u64> = (0..n)
        .map(|_| start_time(global_n, config.beta, sample_exponential(config.beta, rng)))
        .collect();

    let mut cluster_of = vec![usize::MAX; n];
    let mut layer = vec![0u32; n];
    let mut centers: Vec<usize> = Vec::new();
    let mut tags: Vec<u64> = Vec::new();

    let mut by_start: Vec<usize> = (0..n).collect();
    by_start.sort_by_key(|&v| start_times[v]);
    let mut next_start_idx = 0usize;
    let mut clustered_count = 0usize;
    // One frame reused across every growth round.
    let mut frame = net.new_frame();

    for round in 1..=rounds {
        if clustered_count == n {
            break;
        }
        // New centers: unclustered vertices whose start time has arrived.
        while next_start_idx < n && start_times[by_start[next_start_idx]] <= round {
            let v = by_start[next_start_idx];
            next_start_idx += 1;
            if cluster_of[v] == usize::MAX {
                cluster_of[v] = centers.len();
                layer[v] = 0;
                centers.push(v);
                tags.push(rng.gen());
                clustered_count += 1;
            }
        }
        if centers.is_empty() {
            continue;
        }
        // One Local-Broadcast: clustered vertices advertise
        // (cluster id, layer, tag); unclustered vertices listen.
        frame.clear();
        for v in 0..n {
            let c = cluster_of[v];
            if c != usize::MAX {
                frame.add_sender(v, Msg::words(&[c as u64, layer[v] as u64, tags[c]]));
            } else {
                frame.add_receiver(v);
            }
        }
        if frame.receivers().is_empty() {
            break;
        }
        net.local_broadcast(&mut frame);
        for (v, m) in frame.delivered().iter() {
            if cluster_of[v] == usize::MAX {
                let c = m.word(0) as usize;
                cluster_of[v] = c;
                layer[v] = m.word(1) as u32 + 1;
                clustered_count += 1;
            }
        }
    }

    // Vertices never reached (disconnected, or unlucky delivery failures past
    // the horizon) become singleton clusters, as they would by starting their
    // own cluster once their start time arrives.
    for v in 0..n {
        if cluster_of[v] == usize::MAX {
            cluster_of[v] = centers.len();
            layer[v] = 0;
            centers.push(v);
            tags.push(rng.gen());
        }
    }

    let num_clusters = centers.len();
    let contention = config.contention_bound(global_n);
    let ell = config.ell(global_n);
    let s_sets: Vec<Vec<usize>> = tags
        .iter()
        .map(|&t| expand_tag_to_s_set(t, ell, contention))
        .collect();

    let max_layer = layer.iter().copied().max().unwrap_or(0);
    let mut members_by_layer: Vec<Vec<Vec<usize>>> = vec![Vec::new(); num_clusters];
    for v in 0..n {
        let c = cluster_of[v];
        let l = layer[v] as usize;
        if members_by_layer[c].len() <= l {
            members_by_layer[c].resize(l + 1, Vec::new());
        }
        members_by_layer[c][l].push(v);
    }

    ClusterState {
        beta: config.beta,
        cluster_of,
        layer,
        centers,
        tags,
        s_sets,
        ell,
        max_layer,
        start_times,
        members_by_layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StackBuilder;
    use radio_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn config_parameters_are_sane() {
        let cfg = ClusteringConfig::new(8);
        assert_eq!(cfg.inverse_beta(), 8);
        assert!(cfg.contention_bound(1000) >= 2);
        assert!(cfg.ell(1000) >= cfg.contention_bound(1000));
        assert!(cfg.rounds(1000) >= 8);
    }

    #[test]
    fn contention_bound_is_the_ceiling_of_log_base_inverse_beta() {
        // ⌈log_{1/β} 1000⌉ for 1/β = 2, 4, 8, 32.
        let bounds: Vec<usize> = [2, 4, 8, 32]
            .iter()
            .map(|&b| ClusteringConfig::new(b).contention_bound(1000))
            .collect();
        assert_eq!(bounds, [10, 5, 4, 2]);
    }

    #[test]
    fn contention_bound_never_drops_below_two() {
        let cfg = ClusteringConfig::new(64);
        assert_eq!(cfg.contention_bound(10), 2);
        assert_eq!(cfg.contention_bound(0), 2);
    }

    #[test]
    fn ell_and_rounds_follow_their_formulas() {
        let cfg = ClusteringConfig::new(8);
        let ln_n = 1000f64.ln();
        // ℓ = ⌈ell_factor · C · ln n⌉ with C = 4, and ⌈4 ln(n)/β⌉ rounds.
        assert_eq!(cfg.ell(1000), (4.0 * 4.0 * ln_n).ceil() as usize);
        assert_eq!(cfg.ell(1000), 111);
        assert_eq!(cfg.rounds(1000), (4.0 * ln_n * 8.0).ceil() as u64);
        assert_eq!(cfg.rounds(1000), 222);
        // ⌈2 · 2 · ln 2⌉ = 3 is lifted to the floor of 4.
        let lean = ClusteringConfig {
            ell_factor: 2.0,
            ..cfg
        };
        assert_eq!(lean.ell(2), 4);
    }

    #[test]
    #[should_panic(expected = "1/β must be at least 2")]
    fn new_rejects_inverse_beta_below_two() {
        let _ = ClusteringConfig::new(1);
    }

    #[test]
    fn distributed_clustering_partitions_and_validates() {
        let g = generators::grid(12, 12);
        let mut net = StackBuilder::new(g.clone()).build();
        let cfg = ClusteringConfig::new(4);
        let mut r = rng(1);
        let state = cluster_distributed(&mut net, &cfg, &mut r);
        assert_eq!(state.num_nodes(), 144);
        assert_eq!(state.cluster_sizes().iter().sum::<usize>(), 144);
        state.validate().expect("valid state");
        // Cross-check against the centralized structural validator.
        state
            .to_graph_clustering()
            .validate(&g)
            .expect("centralized invariants hold for distributed output");
    }

    #[test]
    fn clusters_are_connected_and_radius_bounded() {
        let g = generators::grid(15, 15);
        let mut net = StackBuilder::new(g.clone()).build();
        let cfg = ClusteringConfig::new(5);
        let mut r = rng(2);
        let state = cluster_distributed(&mut net, &cfg, &mut r);
        let bound = (4.0 * (g.num_nodes() as f64).ln() / cfg.beta).ceil() as u32;
        assert!(state.max_layer <= bound);
        // Connectivity within each cluster: every member is reachable from
        // the center through same-cluster vertices (validated by layer
        // structure in validate(), but double-check via BFS).
        for c in 0..state.num_clusters() {
            let members: std::collections::HashSet<_> = state.members(c).into_iter().collect();
            let active: Vec<bool> = (0..g.num_nodes()).map(|v| members.contains(&v)).collect();
            let dist = radio_graph::bfs::restricted_bfs(&g, &[state.centers[c]], &active);
            for &m in &members {
                assert_ne!(
                    dist[m],
                    radio_graph::INFINITY,
                    "cluster {c} disconnected at {m}"
                );
            }
        }
    }

    #[test]
    fn energy_is_bounded_by_round_count() {
        let g = generators::grid(10, 10);
        let mut net = StackBuilder::new(g).build();
        let cfg = ClusteringConfig::new(4);
        let mut r = rng(3);
        let _ = cluster_distributed(&mut net, &cfg, &mut r);
        // Lemma 2.5: at most `rounds` Local-Broadcasts, every vertex
        // participates in each at most once.
        assert!(net.lb_time() <= cfg.rounds(net.global_n()));
        assert!(net.max_lb_energy() <= net.lb_time());
    }

    #[test]
    fn lossy_delivery_still_yields_valid_partition() {
        let g = generators::grid(8, 8);
        let mut net = StackBuilder::new(g)
            .with_failures(0.3)
            .with_seed(99)
            .build();
        let cfg = ClusteringConfig::new(3);
        let mut r = rng(4);
        let state = cluster_distributed(&mut net, &cfg, &mut r);
        state.validate().expect("partition survives lossy delivery");
        assert_eq!(state.cluster_sizes().iter().sum::<usize>(), 64);
    }

    #[test]
    fn tag_expansion_is_deterministic_and_in_range() {
        let s1 = expand_tag_to_s_set(12345, 64, 4);
        let s2 = expand_tag_to_s_set(12345, 64, 4);
        assert_eq!(s1, s2);
        assert!(!s1.is_empty());
        assert!(s1.iter().all(|&j| j < 64));
        // Different tags give (almost surely) different sets.
        let s3 = expand_tag_to_s_set(54321, 64, 4);
        assert_ne!(s1, s3);
    }

    #[test]
    fn expected_s_set_size_tracks_contention() {
        let ell = 400;
        let contention = 8;
        let sizes: Vec<usize> = (0..200u64)
            .map(|t| expand_tag_to_s_set(t, ell, contention).len())
            .collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let expected = ell as f64 / contention as f64;
        assert!(
            (mean - expected).abs() < 0.2 * expected,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn larger_beta_gives_more_clusters() {
        let g = generators::grid(16, 16);
        let count = |inv_beta: u64, seed: u64| {
            let mut net = StackBuilder::new(g.clone()).build();
            let cfg = ClusteringConfig::new(inv_beta);
            let mut r = rng(seed);
            cluster_distributed(&mut net, &cfg, &mut r).num_clusters()
        };
        let many: usize = (0..5).map(|s| count(2, s)).sum();
        let few: usize = (0..5).map(|s| count(16, 100 + s)).sum();
        assert!(many > few, "β=1/2 gave {many}, β=1/16 gave {few}");
    }

    #[test]
    fn singleton_graph_clusters_trivially() {
        let g = radio_graph::Graph::from_edges(1, &[]);
        let mut net = StackBuilder::new(g).build();
        let cfg = ClusteringConfig::new(2);
        let mut r = rng(6);
        let state = cluster_distributed(&mut net, &cfg, &mut r);
        assert_eq!(state.num_clusters(), 1);
        assert_eq!(state.max_layer, 0);
        state.validate().unwrap();
    }
}
