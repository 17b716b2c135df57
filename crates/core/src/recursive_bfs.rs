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

use crate::baseline::{wavefront_bfs, Wavefront};
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
    let mut stats = RecursionStats {
        wavefront_memberships: vec![0; n],
        special_update_memberships: vec![0; hierarchy.first().map_or(0, |s| s.num_clusters())],
        recursive_calls_by_depth: vec![0; config.max_depth + 1],
        stages: 0,
        estimate_traces: trace_clusters.iter().map(|&c| (c, Vec::new())).collect(),
    };
    let mut active = vec![true; n];
    let sources: Vec<usize> = sources.to_vec();
    let w = config.w(net.global_n());
    let dist = recurse(
        net,
        hierarchy,
        &sources,
        &mut active,
        depth_bound,
        0,
        w,
        config,
        &mut stats,
    );
    BfsOutcome { dist, stats }
}

/// One level of the recursion (Figure 2). Returns the distance labelling of
/// the network it was called on, restricted to its active set and depth.
#[allow(clippy::too_many_arguments)]
fn recurse(
    net: &mut dyn RadioStack,
    hierarchy: &[ClusterState],
    sources: &[usize],
    active: &mut [bool],
    depth: u64,
    level: usize,
    w: f64,
    config: &RecursiveBfsConfig,
    stats: &mut RecursionStats,
) -> Vec<Option<u64>> {
    let n = net.num_nodes();
    let active_count = active.iter().filter(|&&a| a).count();
    // One frame per recursion level, reused by every Local-Broadcast this
    // level issues (wavefront advances, casts, and the base case).
    let mut frame = net.new_frame();

    // Base case: no further cluster level, or the remaining radius is small
    // enough that the trivial wavefront is at least as cheap.
    if hierarchy.is_empty() || depth <= config.trivial_cutoff || active_count <= 4 {
        return wavefront_bfs(net, &mut frame, sources, active, Some(depth), false).dist;
    }

    let state = &hierarchy[0];
    let rest = &hierarchy[1..];
    let beta = config.beta();
    let inv_beta = config.inv_beta;
    let trace_top = level == 0;

    // ---- Step 1: initialize distance estimates via a recursive BFS on G*.
    let zseq = ZSequence::for_depth(w, beta, depth);
    let d_star = zseq.d_star;

    let cluster_is_active: Vec<bool> = cluster_activity(state, active);
    let cluster_sources: Vec<usize> = source_clusters(state, sources, active);

    // The sources tell their cluster centers that they are sources (an
    // up-cast), and the result of the recursive call is disseminated back to
    // the members (a down-cast); both are charged below around the call.
    charge_source_upcast(net, state, sources, active, &cluster_is_active, &mut frame);

    let cluster_dist0 = {
        let mut cluster_active = cluster_is_active.clone();
        let mut virt = VirtualClusterNet::new(net, state);
        stats.recursive_calls_by_depth[level] += 1;
        recurse(
            &mut virt,
            rest,
            &cluster_sources,
            &mut cluster_active,
            d_star,
            level + 1,
            w,
            config,
            stats,
        )
    };
    charge_result_downcast(net, state, &cluster_is_active, &cluster_dist0, &mut frame);

    // Per-cluster distance estimates, stored columnar (indexed by cluster).
    let mut estimates: Vec<Option<DistanceEstimate>> = vec![None; state.num_clusters()];
    for (c, &is_active) in cluster_is_active.iter().enumerate() {
        if is_active {
            estimates[c] = Some(DistanceEstimate::initialize(cluster_dist0[c], beta, w));
        }
    }
    record_traces(stats, &estimates, 0, trace_top, |_| UpdateKind::Initialize);

    // ---- Step 2: deactivate vertices whose cluster is beyond the horizon.
    for (v, is_active) in active.iter_mut().enumerate() {
        if *is_active {
            let keep = estimates[state.cluster_of[v]]
                .map(|e| !e.is_unreachable())
                .unwrap_or(false);
            if !keep {
                *is_active = false;
            }
        }
    }

    // ---- Step 3: the main wavefront loop. The active sources settle at 0
    // and form the first wavefront W_0.
    let mut wave = Wavefront::from_sources(sources, active);
    let num_stages = depth.div_ceil(inv_beta);

    for i in 0..num_stages {
        if trace_top {
            stats.stages = i + 1;
        }
        // Step 4: the participation set X_i. Its unsettled vertices are the
        // listeners of step 5.
        wave.listeners.clear();
        for v in 0..n {
            let joins = active[v]
                && estimates[state.cluster_of[v]].is_some_and(|e| e.joins_wavefront(beta));
            if joins {
                if trace_top {
                    stats.wavefront_memberships[v] += 1;
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
        for (a, d) in active.iter_mut().zip(&wave.dist) {
            if *a && d.is_some_and(|d| d < boundary) {
                *a = false;
            }
        }

        if i + 1 == num_stages {
            break;
        }

        // The new wavefront W_{i+1}, which sends first in the next stage.
        wave.frontier.clear();
        wave.frontier
            .extend((0..n).filter(|&v| active[v] && wave.dist[v] == Some(boundary)));
        if wave.frontier.is_empty() {
            // The search has exhausted everything reachable within the
            // remaining radius; further stages cannot settle anyone.
            break;
        }
        if active.iter().filter(|&&a| a).count() == wave.frontier.len() {
            // Only the frontier itself is left; nothing beyond it to settle.
            break;
        }

        // Step 7: Special Update for clusters that might soon be relevant.
        let z_next = zseq.z(i + 1);
        let cluster_is_active_now = cluster_activity(state, active);
        let mut upsilon = NodeSet::new(state.num_clusters());
        for (c, e) in estimates.iter().enumerate() {
            if let Some(e) = e {
                if cluster_is_active_now[c] && e.joins_special_update(z_next, beta) {
                    upsilon.insert(c);
                }
            }
        }
        let mut wavefront_clusters = NodeSet::new(state.num_clusters());
        for &v in &wave.frontier {
            wavefront_clusters.insert(state.cluster_of[v]);
        }
        upsilon.extend(wavefront_clusters.iter());
        if trace_top {
            for c in upsilon.iter() {
                stats.special_update_memberships[c] += 1;
            }
        }

        // The wavefront vertices inform their cluster centers (an up-cast),
        // the recursive BFS runs on the induced subgraph of G*, and the new
        // distances come back down (a down-cast).
        charge_wavefront_upcast(net, state, &wave.frontier, &upsilon, &mut frame);
        let upsilon_active: Vec<bool> = (0..state.num_clusters())
            .map(|c| upsilon.contains(c))
            .collect();
        let wavefront_cluster_sources: Vec<usize> = wavefront_clusters.iter().collect();
        let cluster_dist_i = {
            let mut cluster_active = upsilon_active.clone();
            let mut virt = VirtualClusterNet::new(net, state);
            stats.recursive_calls_by_depth[level] += 1;
            recurse(
                &mut virt,
                rest,
                &wavefront_cluster_sources,
                &mut cluster_active,
                z_next,
                level + 1,
                w,
                config,
                stats,
            )
        };
        charge_result_downcast(net, state, &upsilon_active, &cluster_dist_i, &mut frame);

        // Step 7 (update) and Step 8 (automatic update).
        let mut next_estimates: Vec<Option<DistanceEstimate>> = vec![None; state.num_clusters()];
        for (c, est) in estimates.iter().enumerate() {
            let Some(est) = est else { continue };
            if !cluster_is_active_now[c] {
                continue;
            }
            let updated = if upsilon.contains(c) {
                est.special(cluster_dist_i[c], z_next, beta, w)
            } else {
                est.automatic(beta)
            };
            next_estimates[c] = Some(updated);
        }
        record_traces(stats, &next_estimates, i + 1, trace_top, |c| {
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

/// Which clusters contain at least one active vertex.
fn cluster_activity(state: &ClusterState, active: &[bool]) -> Vec<bool> {
    let mut out = vec![false; state.num_clusters()];
    for (v, &a) in active.iter().enumerate() {
        if a {
            out[state.cluster_of[v]] = true;
        }
    }
    out
}

/// The clusters containing at least one active source, in ascending order
/// (deterministic by construction via the dense cluster set).
fn source_clusters(state: &ClusterState, sources: &[usize], active: &[bool]) -> Vec<usize> {
    let mut set = NodeSet::new(state.num_clusters());
    for &s in sources {
        if active[s] {
            set.insert(state.cluster_of[s]);
        }
    }
    set.iter().collect()
}

/// Charges the up-cast by which sources announce themselves to their cluster
/// centers before the initial recursive call.
fn charge_source_upcast(
    net: &mut dyn RadioStack,
    state: &ClusterState,
    sources: &[usize],
    active: &[bool],
    cluster_is_active: &[bool],
    frame: &mut LbFrame,
) {
    let mut holders: NodeSlots<Msg> = NodeSlots::new(state.num_nodes());
    for &s in sources {
        if active[s] {
            holders.insert(s, Msg::words(&[1]));
        }
    }
    if holders.is_empty() {
        return;
    }
    let mut participating = NodeSet::new(state.num_clusters());
    for (s, _) in holders.iter() {
        let c = state.cluster_of[s];
        if cluster_is_active[c] {
            participating.insert(c);
        }
    }
    let _ = up_cast(net, state, &participating, &holders, frame);
}

/// Charges the up-cast by which the new wavefront vertices announce their
/// clusters as sources of the Special Update's recursive call.
fn charge_wavefront_upcast(
    net: &mut dyn RadioStack,
    state: &ClusterState,
    wavefront: &[usize],
    upsilon: &NodeSet,
    frame: &mut LbFrame,
) {
    if wavefront.is_empty() {
        return;
    }
    let mut holders: NodeSlots<Msg> = NodeSlots::new(state.num_nodes());
    let mut participating = NodeSet::new(state.num_clusters());
    for &v in wavefront {
        holders.insert(v, Msg::words(&[1]));
        let c = state.cluster_of[v];
        if upsilon.contains(c) {
            participating.insert(c);
        }
    }
    let _ = up_cast(net, state, &participating, &holders, frame);
}

/// Charges the down-cast by which cluster centers disseminate the outcome of
/// a recursive call (the new `L`/`U` inputs) to their members.
fn charge_result_downcast(
    net: &mut dyn RadioStack,
    state: &ClusterState,
    participating: &[bool],
    cluster_dist: &[Option<u64>],
    frame: &mut LbFrame,
) {
    let mut messages: NodeSlots<Msg> = NodeSlots::new(state.num_clusters());
    for (c, &p) in participating.iter().enumerate() {
        if p {
            let encoded = cluster_dist[c].map(|d| d + 1).unwrap_or(0);
            messages.insert(c, Msg::words(&[encoded]));
        }
    }
    if messages.is_empty() {
        return;
    }
    let _ = down_cast(net, state, &messages, frame);
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
            trivial_cutoff: 8,
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
            trivial_cutoff: 4,
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
            trivial_cutoff: 4,
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
            trivial_cutoff: 4,
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
            trivial_cutoff: 4,
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
            trivial_cutoff: 4,
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
            trivial_cutoff: 4,
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
                trivial_cutoff: inv_beta,
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
                trivial_cutoff: 8,
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
            trivial_cutoff: 8,
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
