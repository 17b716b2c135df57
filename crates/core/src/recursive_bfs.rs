//! The recursive, sub-polynomial-energy BFS of Section 4 (Figure 2).
//!
//! Structure of the algorithm, mirrored by [`recursive_bfs_with_hierarchy`]:
//!
//! 1. **Initialize** — recursively compute BFS distances on the cluster
//!    graph `G*` up to radius `D* = Θ(wβD)`, translate them into per-cluster
//!    intervals `[L₀(C), U₀(C)]` (Lemma 4.1), and deactivate vertices whose
//!    clusters were not reached.
//! 2. **Advance the wavefront in `⌈βD⌉` stages** — stage `i` advances the
//!    frontier by `β⁻¹` hops using `β⁻¹` Local-Broadcast calls in which only
//!    the vertices of `X_i = {u : L_i(Cl(u)) ≤ β⁻¹}` participate; everyone
//!    else sleeps. This is the trivial BFS of [`crate::baseline`] restricted
//!    to `X_i`, and it runs that module's wavefront loop: the stage's
//!    wavefront `W_i` sends first, and `X_i`'s unsettled vertices listen.
//!    Step 4 builds that listener set once per stage, so a hop costs its
//!    frontier and listeners, not `n`. The base case runs the same loop on
//!    its active set.
//! 3. **Refresh estimates** — after stage `i`, clusters whose lower bound is
//!    small enough (`Υ`) join a *Special Update*: a recursive BFS on `G*`
//!    from the clusters touching the new wavefront, to radius `Z[i+1]`
//!    (the ruler-like [`crate::zseq::ZSequence`]). Everyone else performs a
//!    free *Automatic Update*.
//!
//! Steps 1 and 7 of Figure 2 are one subroutine on different inputs,
//! written once: some vertices up-cast to their cluster centers, BFS
//! recurses on `G*` from their clusters within a set of clusters up to a
//! radius, and the centers down-cast the result (Lemmas 3.1–3.2). A
//! level's active set, its listeners and its cluster sets are
//! [`NodeSet`]s that the stages walk in ascending order, so no stage scans
//! all `n` vertices. A call whose depth bound is at most `β⁻¹` (one stage)
//! is the base case.
//!
//! The recursion on `G*` happens through
//! [`radio_protocols::VirtualClusterNet`], so all energy ultimately lands on
//! the physical devices of the original network — the accounting of
//! equation (3) and Theorem 4.1. When the depth is unknown,
//! [`recursive_bfs_full`] finds it with Theorem 4.1's doubling trick.

use radio_protocols::cast::{down_cast, up_cast};
use radio_protocols::{
    cluster_distributed, ClusterState, LbFrame, Msg, NodeSet, NodeSlots, RadioStack,
    VirtualClusterNet,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::baseline::{all_vertices, wavefront_bfs, Wavefront};
use crate::config::RecursiveBfsConfig;
use crate::estimates::{DistanceEstimate, EstimateTracePoint, UpdateKind};
use crate::metrics::RecursionStats;
use crate::zseq::ZSequence;

/// The result of a recursive BFS run.
#[derive(Clone, Debug)]
pub struct BfsOutcome {
    /// `dist[v] = Some(d)` if vertex `v` settled at distance `d ≤ D`,
    /// `None` if `v` is farther than the depth bound (or unreachable).
    pub dist: Vec<Option<u64>>,
    /// Claim 1/2 statistics and Figure 3 traces for the top level.
    pub stats: RecursionStats,
}

/// Builds the hierarchy of cluster graphs `G, G*, G**, …` used by the
/// recursion: `hierarchy[0]` clusters the given network, `hierarchy[1]`
/// clusters the resulting cluster graph, and so on, for at most
/// `config.max_depth` levels (stopping early when a level has ≤ 4 nodes).
///
/// The paper computes each level's clustering once and reuses it across all
/// recursive calls on that level; callers should likewise build the
/// hierarchy once and amortize its energy across BFS queries.
pub fn build_hierarchy(net: &mut dyn RadioStack, config: &RecursiveBfsConfig) -> Vec<ClusterState> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
    build_hierarchy_inner(net, config.max_depth, config, &mut rng)
}

fn build_hierarchy_inner(
    net: &mut dyn RadioStack,
    levels: usize,
    config: &RecursiveBfsConfig,
    rng: &mut ChaCha8Rng,
) -> Vec<ClusterState> {
    if levels == 0 || net.num_nodes() <= 4 {
        return Vec::new();
    }
    let state = cluster_distributed(net, &config.clustering(), rng);
    let deeper = {
        let mut virt = VirtualClusterNet::new(net, &state);
        build_hierarchy_inner(&mut virt, levels - 1, config, rng)
    };
    let mut out = Vec::with_capacity(deeper.len() + 1);
    out.push(state);
    out.extend(deeper);
    out
}

/// Runs the full algorithm: builds the cluster hierarchy and then performs
/// one BFS from `source` up to distance `depth_bound`.
pub fn recursive_bfs(
    net: &mut dyn RadioStack,
    source: usize,
    depth_bound: u64,
    config: &RecursiveBfsConfig,
) -> BfsOutcome {
    let hierarchy = build_hierarchy(net, config);
    recursive_bfs_with_hierarchy(net, &hierarchy, &[source], depth_bound, config, &[])
}

/// Runs BFS queries from `sources` on a pre-built hierarchy with the
/// doubling trick of Theorem 4.1: distance thresholds `D₀ = 2/β, 4/β, …`
/// (at least 2) are tried until every vertex is labelled or the threshold
/// reaches `2n`, and the last query's outcome is returned.
pub fn recursive_bfs_full(
    net: &mut dyn RadioStack,
    hierarchy: &[ClusterState],
    sources: &[usize],
    config: &RecursiveBfsConfig,
) -> BfsOutcome {
    let n = net.num_nodes() as u64;
    let mut bound = (2 * config.inv_beta).max(2);
    loop {
        let outcome = recursive_bfs_with_hierarchy(net, hierarchy, sources, bound, config, &[]);
        let unlabeled = outcome.dist.iter().filter(|d| d.is_none()).count();
        if unlabeled == 0 || bound >= 2 * n.max(1) {
            return outcome;
        }
        bound *= 2;
    }
}

/// Runs one BFS query on a pre-built hierarchy.
///
/// * `sources` — the source set `S` (all labelled 0).
/// * `depth_bound` — the threshold `D`: vertices farther than this are left
///   unlabelled.
/// * `trace_clusters` — top-level cluster indices whose estimate evolution
///   should be recorded (Figure 3 / experiment E8).
pub fn recursive_bfs_with_hierarchy(
    net: &mut dyn RadioStack,
    hierarchy: &[ClusterState],
    sources: &[usize],
    depth_bound: u64,
    config: &RecursiveBfsConfig,
    trace_clusters: &[usize],
) -> BfsOutcome {
    let n = net.num_nodes();
    let mut query = Query {
        hierarchy,
        config,
        w: config.w(net.global_n()),
        stats: RecursionStats {
            wavefront_memberships: vec![0; n],
            special_update_memberships: vec![0; hierarchy.first().map_or(0, |s| s.num_clusters())],
            recursive_calls_by_depth: vec![0; config.max_depth + 1],
            stages: 0,
            estimate_traces: trace_clusters.iter().map(|&c| (c, Vec::new())).collect(),
        },
    };
    let mut source_set = NodeSet::new(n);
    source_set.extend(sources.iter().copied());
    let dist = query.recurse(net, 0, &source_set, all_vertices(n), depth_bound);
    BfsOutcome {
        dist,
        stats: query.stats,
    }
}

/// What every level of one query shares: the hierarchy, the configuration
/// and `w`, and the statistics the query records.
struct Query<'q> {
    hierarchy: &'q [ClusterState],
    config: &'q RecursiveBfsConfig,
    w: f64,
    stats: RecursionStats,
}

impl Query<'_> {
    /// One level of the recursion (Figure 2) on `net`, which
    /// `hierarchy[level]` clusters if that level exists. Returns the
    /// distance labelling of `net`, restricted to the vertices of `active`
    /// and to `depth`.
    fn recurse(
        &mut self,
        net: &mut dyn RadioStack,
        level: usize,
        sources: &NodeSet,
        mut active: NodeSet,
        depth: u64,
    ) -> Vec<Option<u64>> {
        let inv_beta = self.config.inv_beta;
        // One frame per recursion level, reused by every Local-Broadcast
        // this level issues (wavefront advances, casts, and the base case).
        let mut frame = net.new_frame();

        // Base case: no further cluster level, or the remaining radius fits
        // in one stage, so the trivial wavefront is at least as cheap.
        if level == self.hierarchy.len() || depth <= inv_beta || active.len() <= 4 {
            return wavefront_bfs(net, &mut frame, sources, &active, Some(depth), false).dist;
        }

        let state = &self.hierarchy[level];
        let beta = self.config.beta();
        let w = self.w;
        let trace_top = level == 0;

        // ---- Step 1: initialize distance estimates via a recursive BFS on
        // G*, from the clusters of the active sources, to radius D*.
        let zseq = ZSequence::for_depth(w, beta, depth);
        let active_clusters = cluster_activity(state, &active);
        let announcers = sources.iter().filter(|&s| active.contains(s));
        let cluster_dist0 = self.bfs_on_cluster_graph(
            net,
            level,
            announcers,
            &active_clusters,
            zseq.d_star,
            &mut frame,
        );

        // Per-cluster distance estimates, stored columnar (indexed by cluster).
        let mut estimates: Vec<Option<DistanceEstimate>> = vec![None; state.num_clusters()];
        for c in &active_clusters {
            estimates[c] = Some(DistanceEstimate::initialize(cluster_dist0[c], beta, w));
        }
        record_traces(&mut self.stats, &estimates, 0, trace_top, |_| {
            UpdateKind::Initialize
        });

        // ---- Step 2: deactivate vertices whose cluster is beyond the horizon.
        active.retain(|v| estimates[state.cluster_of[v]].is_some_and(|e| !e.is_unreachable()));

        // ---- Step 3: the main wavefront loop. The active sources settle at 0
        // and form the first wavefront W_0.
        let mut wave = Wavefront::from_sources(sources, &active);
        let num_stages = depth.div_ceil(inv_beta);

        for i in 0..num_stages {
            if trace_top {
                self.stats.stages = i + 1;
            }
            // Step 4: the participation set X_i. Its unsettled vertices are
            // the listeners of step 5.
            wave.listeners.clear();
            for v in &active {
                if estimates[state.cluster_of[v]].is_some_and(|e| e.joins_wavefront(beta)) {
                    if trace_top {
                        self.stats.wavefront_memberships[v] += 1;
                    }
                    if wave.dist[v].is_none() {
                        wave.listeners.insert(v);
                    }
                }
            }

            // Step 5: the trivial BFS restricted to X_i — β⁻¹ calls from W_i,
            // reusing this level's frame for every hop.
            wave.advance(net, &mut frame, i * inv_beta, Some(inv_beta), false);

            // Step 6: deactivate settled vertices strictly inside the new
            // wavefront.
            let boundary = (i + 1) * inv_beta;
            active.retain(|v| wave.dist[v].is_none_or(|d| d >= boundary));

            if i + 1 == num_stages {
                break;
            }

            // The new wavefront W_{i+1}, which sends first in the next stage.
            wave.frontier.clear();
            wave.frontier
                .extend(active.iter().filter(|&v| wave.dist[v] == Some(boundary)));
            if wave.frontier.is_empty() {
                // The search has exhausted everything reachable within the
                // remaining radius; further stages cannot settle anyone.
                break;
            }
            if active.len() == wave.frontier.len() {
                // Only the frontier itself is left; nothing beyond it to settle.
                break;
            }

            // Step 7: Special Update for the active clusters that might soon
            // be relevant, and for every cluster of W_{i+1} (together Υ):
            // W_{i+1} announces itself and BFS on G* runs inside Υ to radius
            // Z[i+1].
            let z_next = zseq.z(i + 1);
            let active_clusters = cluster_activity(state, &active);
            let mut upsilon = NodeSet::new(state.num_clusters());
            for c in &active_clusters {
                if estimates[c].is_some_and(|e| e.joins_special_update(z_next, beta)) {
                    upsilon.insert(c);
                }
            }
            upsilon.extend(wave.frontier.iter().map(|&v| state.cluster_of[v]));
            if trace_top {
                for c in &upsilon {
                    self.stats.special_update_memberships[c] += 1;
                }
            }
            let cluster_dist = self.bfs_on_cluster_graph(
                net,
                level,
                wave.frontier.iter().copied(),
                &upsilon,
                z_next,
                &mut frame,
            );

            // Step 7 (update) and Step 8 (automatic update).
            let mut next_estimates: Vec<Option<DistanceEstimate>> =
                vec![None; state.num_clusters()];
            for c in &active_clusters {
                next_estimates[c] = estimates[c].map(|e| {
                    if upsilon.contains(c) {
                        e.special(cluster_dist[c], z_next, beta, w)
                    } else {
                        e.automatic(beta)
                    }
                });
            }
            record_traces(&mut self.stats, &next_estimates, i + 1, trace_top, |c| {
                if upsilon.contains(c) {
                    UpdateKind::Special
                } else {
                    UpdateKind::Automatic
                }
            });
            estimates = next_estimates;
        }

        // Output: settled distances within the depth bound, for vertices that
        // were active when the call began.
        let mut dist = wave.dist;
        for d in dist.iter_mut() {
            if d.is_some_and(|x| x > depth) {
                *d = None;
            }
        }
        dist
    }

    /// Figure 2's Steps 1 and 7, one subroutine on different inputs
    /// (Lemmas 3.1 and 3.2): the `announcers` up-cast to their cluster
    /// centers, BFS recurses on `G*` from their clusters, in ascending
    /// order, over the clusters in `within` up to `radius`, and the centers
    /// of `within` down-cast the result — `dist + 1`, or 0 if unreached.
    /// Returns the distance of every cluster.
    fn bfs_on_cluster_graph(
        &mut self,
        net: &mut dyn RadioStack,
        level: usize,
        announcers: impl IntoIterator<Item = usize>,
        within: &NodeSet,
        radius: u64,
        frame: &mut LbFrame,
    ) -> Vec<Option<u64>> {
        let state = &self.hierarchy[level];
        let mut clusters = NodeSet::new(state.num_clusters());
        {
            // Scoped so that the holder arena is freed before the recursion.
            let mut holders: NodeSlots<Msg> = NodeSlots::new(state.num_nodes());
            for v in announcers {
                holders.insert(v, Msg::words(&[1]));
                clusters.insert(state.cluster_of[v]);
            }
            if !holders.is_empty() {
                let _ = up_cast(net, state, &clusters, &holders, frame);
            }
        }
        let cluster_dist = {
            let mut virt = VirtualClusterNet::new(net, state);
            self.stats.recursive_calls_by_depth[level] += 1;
            self.recurse(&mut virt, level + 1, &clusters, within.clone(), radius)
        };
        if !within.is_empty() {
            let mut results: NodeSlots<Msg> = NodeSlots::new(state.num_clusters());
            for c in within {
                results.insert(c, Msg::words(&[cluster_dist[c].map_or(0, |d| d + 1)]));
            }
            let _ = down_cast(net, state, &results, frame);
        }
        cluster_dist
    }
}

/// The clusters holding at least one active vertex.
fn cluster_activity(state: &ClusterState, active: &NodeSet) -> NodeSet {
    let mut clusters = NodeSet::new(state.num_clusters());
    clusters.extend(active.iter().map(|v| state.cluster_of[v]));
    clusters
}

/// Appends stage `stage`'s estimate of every traced cluster, labelled with
/// the update `kind` that produced it (top level only).
fn record_traces(
    stats: &mut RecursionStats,
    estimates: &[Option<DistanceEstimate>],
    stage: u64,
    trace_top: bool,
    kind: impl Fn(usize) -> UpdateKind,
) {
    if !trace_top {
        return;
    }
    for (c, points) in stats.estimate_traces.iter_mut() {
        if let Some(e) = estimates.get(*c).copied().flatten() {
            points.push(EstimateTracePoint {
                stage,
                kind: kind(*c),
                lower: e.lower,
                upper: e.upper,
                true_distance: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::trivial_bfs;
    use radio_graph::bfs::bfs_distances;
    use radio_graph::{generators, INFINITY};
    use radio_protocols::StackBuilder;

    fn verify_against_reference(
        g: &radio_graph::Graph,
        outcome: &BfsOutcome,
        source: usize,
        depth: u64,
    ) {
        let truth = bfs_distances(g, source);
        for v in g.nodes() {
            match outcome.dist[v] {
                Some(d) => {
                    assert_eq!(
                        d, truth[v] as u64,
                        "vertex {v} labelled {d}, truth {}",
                        truth[v]
                    )
                }
                None => assert!(
                    truth[v] == INFINITY || truth[v] as u64 > depth,
                    "vertex {v} (true distance {}) missing a label within depth {depth}",
                    truth[v]
                ),
            }
        }
    }

    #[test]
    fn matches_reference_on_a_path_one_level() {
        let g = generators::path(120);
        let mut net = StackBuilder::new(g.clone()).build();
        let config = RecursiveBfsConfig {
            inv_beta: 8,
            max_depth: 1,
            ..Default::default()
        };
        let outcome = recursive_bfs(&mut net, 0, 119, &config);
        verify_against_reference(&g, &outcome, 0, 119);
    }

    #[test]
    fn matches_reference_on_a_grid() {
        let g = generators::grid(12, 12);
        let mut net = StackBuilder::new(g.clone()).build();
        let config = RecursiveBfsConfig {
            inv_beta: 4,
            max_depth: 1,
            seed: 3,
        };
        let outcome = recursive_bfs(&mut net, 5, 30, &config);
        verify_against_reference(&g, &outcome, 5, 30);
    }

    #[test]
    fn respects_depth_bound() {
        let g = generators::path(100);
        let mut net = StackBuilder::new(g.clone()).build();
        let config = RecursiveBfsConfig {
            inv_beta: 4,
            max_depth: 1,
            seed: 1,
        };
        let outcome = recursive_bfs(&mut net, 0, 40, &config);
        for v in 0..=40usize {
            assert_eq!(outcome.dist[v], Some(v as u64), "vertex {v}");
        }
        for v in 60..100usize {
            assert_eq!(outcome.dist[v], None, "vertex {v} beyond the bound");
        }
    }

    #[test]
    fn two_level_recursion_matches_reference() {
        let g = generators::path(200);
        let mut net = StackBuilder::new(g.clone()).build();
        let config = RecursiveBfsConfig {
            inv_beta: 4,
            max_depth: 2,
            seed: 7,
        };
        let outcome = recursive_bfs(&mut net, 0, 199, &config);
        verify_against_reference(&g, &outcome, 0, 199);
        // The second level must actually have been used.
        assert!(outcome.stats.recursive_calls_by_depth.len() >= 2);
    }

    #[test]
    fn multi_source_and_restricted_active_set() {
        let g = generators::grid(10, 10);
        let mut net = StackBuilder::new(g.clone()).build();
        let config = RecursiveBfsConfig {
            inv_beta: 4,
            max_depth: 1,
            seed: 5,
        };
        let hierarchy = build_hierarchy(&mut net, &config);
        let outcome =
            recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[0, 99], 25, &config, &[]);
        let truth = radio_graph::bfs::multi_source_bfs(&g, &[0, 99]);
        for v in g.nodes() {
            if let Some(d) = outcome.dist[v] {
                assert_eq!(d, truth[v] as u64, "vertex {v}");
            }
        }
        // Every vertex within the bound is labelled.
        for v in g.nodes() {
            if (truth[v] as u64) <= 25 {
                assert!(outcome.dist[v].is_some(), "vertex {v} should be labelled");
            }
        }
    }

    #[test]
    fn disconnected_component_stays_unlabelled() {
        let mut edges: Vec<(usize, usize)> = (0..49).map(|i| (i, i + 1)).collect();
        edges.push((60, 61));
        let g = radio_graph::Graph::from_edges(70, &edges);
        let mut net = StackBuilder::new(g.clone()).build();
        let config = RecursiveBfsConfig {
            inv_beta: 4,
            max_depth: 1,
            seed: 11,
        };
        let outcome = recursive_bfs(&mut net, 0, 69, &config);
        assert_eq!(outcome.dist[49], Some(49));
        assert_eq!(outcome.dist[60], None);
        assert_eq!(outcome.dist[61], None);
    }

    #[test]
    fn recursive_bfs_full_labels_everything_reachable() {
        let g = generators::grid(9, 11);
        let mut net = StackBuilder::new(g.clone()).build();
        let config = RecursiveBfsConfig {
            inv_beta: 4,
            max_depth: 1,
            seed: 13,
        };
        let hierarchy = build_hierarchy(&mut net, &config);
        let outcome = recursive_bfs_full(&mut net, &hierarchy, &[0], &config);
        let truth = bfs_distances(&g, 0);
        for v in g.nodes() {
            assert_eq!(outcome.dist[v], Some(truth[v] as u64), "vertex {v}");
        }
    }

    #[test]
    fn query_energy_grows_sublinearly_in_depth() {
        // The heart of Theorem 4.1: per-vertex energy of one BFS query grows
        // sublinearly in D once β is tuned to D (the paper sets
        // β = 2^{−√(log D log log n)}), while the always-on baseline is
        // exactly linear in D. At simulator scale the absolute constants of
        // the recursive algorithm are large, but the *growth rate* is the
        // reproducible shape: quadrupling D should far less than quadruple
        // the query energy.
        let measure = |n: usize, inv_beta: u64| -> (u64, u64) {
            let g = generators::path(n);
            let depth = (n - 1) as u64;
            let config = RecursiveBfsConfig {
                inv_beta,
                max_depth: 1,
                seed: 17,
            };
            let mut net = StackBuilder::new(g.clone()).build();
            let hierarchy = build_hierarchy(&mut net, &config);
            let setup = net.energy_view();
            let outcome =
                recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[0], depth, &config, &[]);
            verify_against_reference(&g, &outcome, 0, depth);
            let query = net.energy_view().diff(&setup);

            let mut baseline_net = StackBuilder::new(g.clone()).build();
            let active = vec![true; n];
            let _ = trivial_bfs(&mut baseline_net, &[0], &active, depth);
            (query.max_lb_energy(), baseline_net.max_lb_energy())
        };

        // β⁻¹ scales like √D, as the paper prescribes (up to constants).
        let (rec_small, base_small) = measure(160, 8);
        let (rec_large, base_large) = measure(640, 16);
        assert_eq!(base_small, 159);
        assert_eq!(base_large, 639);
        let baseline_ratio = base_large as f64 / base_small as f64; // ≈ 4
        let recursive_ratio = rec_large as f64 / rec_small as f64;
        assert!(
            recursive_ratio < 0.75 * baseline_ratio,
            "recursive energy grew by {recursive_ratio:.2}x when D grew by {baseline_ratio:.2}x \
             (small: {rec_small}, large: {rec_large})"
        );
    }

    #[test]
    fn claim_1_wavefront_memberships_do_not_scale_with_depth() {
        // Claim 1: each vertex joins X_i for Õ(1) stages. The meaningful
        // empirical check is that the count does not grow with D (the number
        // of stages does).
        let measure = |n: usize| -> (u64, u64) {
            let g = generators::path(n);
            let mut net = StackBuilder::new(g.clone()).build();
            let config = RecursiveBfsConfig {
                inv_beta: 8,
                max_depth: 1,
                seed: 19,
            };
            let outcome = recursive_bfs(&mut net, 0, (n - 1) as u64, &config);
            verify_against_reference(&g, &outcome, 0, (n - 1) as u64);
            (
                outcome.stats.max_wavefront_memberships(),
                outcome.stats.stages,
            )
        };
        let (members_small, stages_small) = measure(200);
        let (members_large, stages_large) = measure(600);
        assert!(stages_large >= 3 * stages_small - 2);
        assert!(
            members_large <= 2 * members_small.max(1),
            "X_i memberships grew from {members_small} to {members_large} while stages grew \
             from {stages_small} to {stages_large}"
        );
        // And on the longer instance the memberships are well below the
        // stage count (vertices sleep through most stages).
        assert!(
            2 * members_large < stages_large,
            "memberships {members_large} not small relative to {stages_large} stages"
        );
    }

    #[test]
    fn estimate_traces_are_recorded_and_monotone_in_upper_bound() {
        let g = generators::path(300);
        let mut net = StackBuilder::new(g.clone()).build();
        let config = RecursiveBfsConfig {
            inv_beta: 8,
            max_depth: 1,
            seed: 23,
        };
        let hierarchy = build_hierarchy(&mut net, &config);
        if hierarchy.is_empty() {
            return;
        }
        let traced = hierarchy[0].cluster_of[250];
        let outcome =
            recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[0], 299, &config, &[traced]);
        let (_, points) = &outcome.stats.estimate_traces[0];
        assert!(points.len() >= 2, "expected a non-trivial trace");
        for pair in points.windows(2) {
            assert!(
                pair[1].upper <= pair[0].upper + 1e-6,
                "upper bound increased along the trace"
            );
        }
        assert_eq!(points[0].kind, UpdateKind::Initialize);
    }

    #[test]
    fn hierarchy_depth_respects_config_and_graph_size() {
        let g = generators::grid(8, 8);
        let mut net = StackBuilder::new(g).build();
        let config = RecursiveBfsConfig {
            inv_beta: 4,
            max_depth: 3,
            ..Default::default()
        };
        let hierarchy = build_hierarchy(&mut net, &config);
        assert!(hierarchy.len() <= 3);
        for window in hierarchy.windows(2) {
            assert_eq!(window[1].num_nodes(), window[0].num_clusters());
        }
    }
}
