//! Baseline BFS algorithms, all driven by one wavefront loop.
//!
//! `Wavefront::advance` is the only place a BFS frontier sends its
//! distance. In each Local-Broadcast call the vertices settled by the
//! previous call (the sources, before the first) transmit their distance,
//! the unsettled listeners listen, and each delivery settles its receiver
//! one hop further. Its callers differ only in who listens and when the
//! loop stops:
//!
//! * [`trivial_bfs`] — the "trivial BFS algorithm that settles all distances
//!   up to `D'` using `D'` time and energy, by calling Local-Broadcast `D'`
//!   times" (paper, Section 4.3). It is both the base case of the recursion
//!   and, run on the whole graph, the classical Decay-style BFS baseline
//!   (\[3\]) that the recursive algorithm is compared against in experiment
//!   E6: every active, unsettled vertex listens in every call, so the
//!   per-vertex energy is `Θ(D)` Local-Broadcast units.
//! * [`decay_bfs`] — the same wavefront without a known distance bound: it
//!   stops after the first call that settles nobody.
//! * [`trivial_bfs_cd`] — the wavefront on a collision-detection-capable
//!   stack: a `Noise` verdict at step `t` settles its receiver at distance
//!   `t + 1`, and a call that settles nobody ends the run.
//! * Step 5 of the recursion ([`mod@crate::recursive_bfs`]) — `β⁻¹` calls from
//!   the stage's wavefront `W_i` in which only the unsettled vertices of
//!   `X_i` listen: the trivial BFS restricted to `X_i` (Figure 2).

use radio_protocols::{LbFeedback, LbFrame, Msg, NodeSet, RadioStack};

/// Result of a wavefront BFS at the Local-Broadcast level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WavefrontResult {
    /// `dist[v] = Some(d)` if `v` was settled at distance `d` (within the
    /// depth bound and the active set), `None` otherwise.
    pub dist: Vec<Option<u64>>,
    /// Number of Local-Broadcast calls used.
    pub calls: u64,
}

/// A BFS wavefront in progress: the labels settled so far, the frontier
/// that sends in the next call, and the unsettled vertices that listen.
#[derive(Debug)]
pub(crate) struct Wavefront {
    /// `dist[v] = Some(d)` once `v` is settled at distance `d`.
    pub(crate) dist: Vec<Option<u64>>,
    /// The vertices that send in the next call, all of them settled.
    pub(crate) frontier: Vec<usize>,
    /// The unsettled vertices that listen in the next call.
    pub(crate) listeners: NodeSet,
}

impl Wavefront {
    /// Settles the active `sources` at distance 0 as the first frontier;
    /// every other active vertex listens.
    pub(crate) fn from_sources(sources: impl IntoIterator<Item = usize>, active: &NodeSet) -> Self {
        let mut dist: Vec<Option<u64>> = vec![None; active.universe()];
        let mut frontier = Vec::new();
        let mut listeners = active.clone();
        for s in sources {
            if dist[s].is_none() && listeners.remove(s) {
                dist[s] = Some(0);
                frontier.push(s);
            }
        }
        Wavefront {
            dist,
            frontier,
            listeners,
        }
    }

    /// Runs the wavefront through `frame`. In call `step` (from 0) the
    /// frontier sends `first + step`, the listeners listen, and a receiver
    /// that hears `d` settles at `d + 1`, stops listening, and joins the
    /// next frontier. The loop stops once nobody is left to listen, and
    /// otherwise:
    ///
    /// * after `limit` calls, when given. An empty frontier still costs its
    ///   call: without collision detection the listeners cannot tell.
    /// * after the first call that settles nobody, when `limit` is `None`
    ///   or `cd` is set.
    ///
    /// With `cd` the loop also reads the frame's verdicts: a `Noise`
    /// receiver settles at `first + step + 1`, because channel activity
    /// proves a sending neighbour even when no payload was decoded. Without
    /// it the verdicts are never read, even on a CD stack. Panics if `cd`
    /// is set on a stack without receiver-side collision detection.
    ///
    /// Returns the number of calls made.
    pub(crate) fn advance(
        &mut self,
        net: &mut dyn RadioStack,
        frame: &mut LbFrame,
        first: u64,
        limit: Option<u64>,
        cd: bool,
    ) -> u64 {
        assert!(
            !cd || net.capabilities().collision_detection.is_receiver(),
            "trivial_bfs_cd needs a stack built with_cd(); \
             the registry path reports this as a typed ProtocolError instead"
        );
        let stop_when_idle = cd || limit.is_none();
        let mut next: Vec<usize> = Vec::new();
        let mut calls = 0u64;
        while limit.is_none_or(|l| calls < l) && !self.listeners.is_empty() {
            let sent = first + calls;
            frame.clear();
            for &v in &self.frontier {
                frame.add_sender(v, Msg::words(&[sent]));
            }
            frame.set_receivers(&self.listeners);
            net.local_broadcast(frame);
            calls += 1;
            next.clear();
            for (v, m) in frame.delivered().iter() {
                if self.dist[v].is_none() {
                    self.dist[v] = Some(m.word(0) + 1);
                    self.listeners.remove(v);
                    next.push(v);
                }
            }
            if cd {
                for (v, fb) in frame.feedback().iter() {
                    if *fb == LbFeedback::Noise && self.dist[v].is_none() {
                        self.dist[v] = Some(sent + 1);
                        self.listeners.remove(v);
                        next.push(v);
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut next);
            if stop_when_idle && self.frontier.is_empty() {
                break;
            }
        }
        calls
    }
}

/// The wavefront from `sources` over the `active` vertices, through the
/// caller's `frame`, under [`Wavefront::advance`]'s `limit` and `cd` rules.
pub(crate) fn wavefront_bfs(
    net: &mut dyn RadioStack,
    frame: &mut LbFrame,
    sources: impl IntoIterator<Item = usize>,
    active: &NodeSet,
    limit: Option<u64>,
    cd: bool,
) -> WavefrontResult {
    assert_eq!(active.universe(), net.num_nodes());
    let mut wave = Wavefront::from_sources(sources, active);
    let calls = wave.advance(net, frame, 0, limit, cd);
    WavefrontResult {
        dist: wave.dist,
        calls,
    }
}

/// Every vertex of an `n`-vertex network.
pub(crate) fn all_vertices(n: usize) -> NodeSet {
    let mut set = NodeSet::new(n);
    set.extend(0..n);
    set
}

/// [`trivial_bfs`] or [`trivial_bfs_cd`]: `mask` becomes the active set
/// once, on entry.
fn trivial_wavefront(
    net: &mut dyn RadioStack,
    sources: &[usize],
    mask: &[bool],
    depth: u64,
    cd: bool,
) -> WavefrontResult {
    let mut active = NodeSet::new(mask.len());
    active.extend((0..mask.len()).filter(|&v| mask[v]));
    let mut frame = net.new_frame();
    let sources = sources.iter().copied();
    wavefront_bfs(net, &mut frame, sources, &active, Some(depth), cd)
}

/// Advances a BFS wavefront for `depth` Local-Broadcast calls, restricted
/// to `active` vertices, starting from `sources` (inactive ones are
/// ignored). Every active unsettled vertex listens in every call — even
/// after the frontier died, since the listeners cannot know — and the
/// vertices settled by the previous call transmit their distance. The calls
/// stop early only once every active vertex is settled.
///
/// This is the trivial algorithm of Section 4.3; the recursive algorithm
/// runs the same loop to advance its wavefront one `β⁻¹`-step stage at a
/// time, restricted to the set `X_i`.
pub fn trivial_bfs(
    net: &mut dyn RadioStack,
    sources: &[usize],
    active: &[bool],
    depth: u64,
) -> WavefrontResult {
    trivial_wavefront(net, sources, active, depth, false)
}

/// [`trivial_bfs`] on a collision-detection-capable stack, exploiting the
/// frame's per-receiver feedback lane. The Local-Broadcast schedule is the
/// wavefront of [`trivial_bfs`]; two sound refinements ride on the verdicts:
///
/// * **`Noise` settles exactly.** Channel activity at step `t` means some
///   neighbour is at distance `t`, so the receiver is at distance `t + 1` —
///   even though no payload was decoded. On lossy stacks this recovers the
///   label a no-CD run would mislabel or miss; the receiver also stops
///   listening (and starts transmitting) one step earlier.
/// * **All-`Silence` rounds end the run.** A call whose every verdict is
///   `Silence` settled nobody, so the next frontier is empty and every
///   remaining round is provably dead. This is exactly the termination
///   rule [`decay_bfs`] already uses — but the no-CD wavefront cannot apply
///   it ("the receivers still listen; they cannot know"), because without
///   collision detection an unheard round and a dead frontier look the
///   same. With receiver CD, every settling event manifests as `Delivered`
///   or `Noise`, so an all-silent round is a provable frontier death.
///
/// Within a live wavefront the listen schedule is provably identical to the
/// no-CD twin (a single silence rules out exactly one distance value, the
/// one that round would have settled anyway), so distances agree with
/// [`trivial_bfs`] on reliable stacks and the LB-unit energy never exceeds
/// the no-CD twin's; on `physical_cd` stacks the big saving is at the slot
/// level, where the CD-aware Decay retires hopeless receivers after one
/// iteration. Panics if the stack lacks receiver-side collision detection —
/// use [`crate::protocol::registry`]-dispatched runs for the typed
/// capability error instead.
pub fn trivial_bfs_cd(
    net: &mut dyn RadioStack,
    sources: &[usize],
    active: &[bool],
    depth: u64,
) -> WavefrontResult {
    trivial_wavefront(net, sources, active, depth, true)
}

/// Decay-style BFS without a distance bound: advances the wavefront until a
/// call settles no new vertex. All unsettled vertices listen in every call.
pub fn decay_bfs(net: &mut dyn RadioStack, source: usize) -> WavefrontResult {
    let mut frame = net.new_frame();
    let active = all_vertices(net.num_nodes());
    wavefront_bfs(net, &mut frame, [source], &active, None, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::bfs::bfs_distances;
    use radio_graph::{generators, INFINITY};
    use radio_protocols::{RadioStack, StackBuilder};

    fn check_against_reference(g: &radio_graph::Graph, result: &WavefrontResult, source: usize) {
        let truth = bfs_distances(g, source);
        for v in g.nodes() {
            match result.dist[v] {
                Some(d) => assert_eq!(d, truth[v] as u64, "vertex {v}"),
                None => assert_eq!(truth[v], INFINITY, "vertex {v} should be reachable"),
            }
        }
    }

    #[test]
    fn trivial_bfs_matches_reference_on_grid() {
        let g = generators::grid(7, 9);
        let mut net = StackBuilder::new(g.clone()).build();
        let active = vec![true; g.num_nodes()];
        let result = trivial_bfs(&mut net, &[0], &active, 100);
        check_against_reference(&g, &result, 0);
    }

    #[test]
    fn trivial_bfs_respects_depth_bound() {
        let g = generators::path(20);
        let mut net = StackBuilder::new(g).build();
        let active = vec![true; 20];
        let result = trivial_bfs(&mut net, &[0], &active, 5);
        assert_eq!(result.dist[5], Some(5));
        assert_eq!(result.dist[6], None);
        assert_eq!(result.calls, 5);
    }

    #[test]
    fn trivial_bfs_respects_active_set() {
        let g = generators::path(6);
        let mut net = StackBuilder::new(g).build();
        let mut active = vec![true; 6];
        active[3] = false;
        let result = trivial_bfs(&mut net, &[0], &active, 10);
        assert_eq!(result.dist[2], Some(2));
        assert_eq!(result.dist[3], None);
        assert_eq!(result.dist[4], None);
    }

    #[test]
    fn trivial_bfs_multi_source() {
        let g = generators::path(9);
        let mut net = StackBuilder::new(g).build();
        let active = vec![true; 9];
        let result = trivial_bfs(&mut net, &[0, 8], &active, 10);
        assert_eq!(result.dist[4], Some(4));
        assert_eq!(result.dist[6], Some(2));
    }

    #[test]
    fn trivial_bfs_inactive_source_is_ignored() {
        let g = generators::path(4);
        let mut net = StackBuilder::new(g).build();
        let mut active = vec![true; 4];
        active[0] = false;
        let result = trivial_bfs(&mut net, &[0], &active, 10);
        assert!(result.dist.iter().all(|d| d.is_none()));
    }

    #[test]
    fn trivial_bfs_energy_is_linear_in_depth() {
        // The point of the baseline: per-vertex energy grows with D.
        let g = generators::path(50);
        let mut net = StackBuilder::new(g).build();
        let active = vec![true; 50];
        let _ = trivial_bfs(&mut net, &[0], &active, 49);
        // The last vertex listens in every one of the 49 calls.
        assert_eq!(net.lb_energy(49), 49);
        assert_eq!(net.max_lb_energy(), 49);
    }

    #[test]
    fn decay_bfs_matches_reference_and_halts() {
        let g = generators::grid(6, 6);
        let mut net = StackBuilder::new(g.clone()).build();
        let result = decay_bfs(&mut net, 7);
        check_against_reference(&g, &result, 7);
        // Exactly eccentricity-many productive sweeps.
        let ecc = bfs_distances(&g, 7).iter().copied().max().unwrap() as u64;
        assert!(result.calls >= ecc && result.calls <= ecc + 1);
    }

    #[test]
    fn trivial_bfs_cd_matches_trivial_bfs_on_reliable_stacks() {
        // Same wavefront, same labels, same LB-unit accounting — the CD
        // refinements only fire on noise (none here) or beyond the horizon.
        let g = generators::grid(7, 9);
        let n = g.num_nodes();
        let active = vec![true; n];
        let mut plain = StackBuilder::new(g.clone()).build();
        let want = trivial_bfs(&mut plain, &[0], &active, n as u64);
        let mut cd = StackBuilder::new(g.clone()).with_cd().build();
        let got = trivial_bfs_cd(&mut cd, &[0], &active, n as u64);
        assert_eq!(got.dist, want.dist);
        assert_eq!(got.calls, want.calls);
        for v in 0..n {
            assert_eq!(plain.lb_energy(v), cd.lb_energy(v), "vertex {v}");
        }
        check_against_reference(&g, &got, 0);
    }

    #[test]
    #[should_panic(expected = "with_cd")]
    fn trivial_bfs_cd_panics_without_collision_detection() {
        let g = generators::path(4);
        let mut net = StackBuilder::new(g).build();
        let active = vec![true; 4];
        let _ = trivial_bfs_cd(&mut net, &[0], &active, 4);
    }

    #[test]
    fn trivial_bfs_cd_skips_listen_rounds_after_frontier_death() {
        // Two components (0-1-2-3-4 and 5-6-7-8-9), source 0, depth 10. The
        // no-CD wavefront cannot detect that the frontier died at step 5, so
        // the unreachable component listens through all 10 calls; the CD
        // twin reads the all-Silence round and stops — half the calls, half
        // the listen energy for the far component, identical labels.
        let mut edges: Vec<(usize, usize)> = (0..4).map(|i| (i, i + 1)).collect();
        edges.extend((5..9).map(|i| (i, i + 1)));
        let g = radio_graph::Graph::from_edges(10, &edges);
        let active = vec![true; 10];
        let mut plain = StackBuilder::new(g.clone()).build();
        let want = trivial_bfs(&mut plain, &[0], &active, 10);
        let mut cd = StackBuilder::new(g).with_cd().build();
        let got = trivial_bfs_cd(&mut cd, &[0], &active, 10);
        assert_eq!(got.dist, want.dist, "labels must agree");
        assert_eq!(want.calls, 10, "no-CD runs the full depth");
        assert_eq!(got.calls, 5, "CD stops at the first all-silent round");
        assert_eq!(plain.lb_energy(9), 10);
        assert_eq!(cd.lb_energy(9), 5);
        // Never *more* energy anywhere.
        for v in 0..10 {
            assert!(cd.lb_energy(v) <= plain.lb_energy(v), "vertex {v}");
        }
    }

    #[test]
    fn trivial_bfs_cd_settles_exactly_from_noise_on_lossy_stacks() {
        // A lossy abstract stack with CD: failed deliveries surface as Noise
        // verdicts, which pin the distance exactly (a sending neighbour
        // exists at the current step). The labelling therefore matches the
        // reference even at failure rates that derail the no-CD wavefront.
        let g = generators::path(12);
        let active = vec![true; 12];
        let mut lossy = StackBuilder::new(g.clone())
            .with_cd()
            .with_failures(0.6)
            .with_seed(9)
            .build();
        let got = trivial_bfs_cd(&mut lossy, &[0], &active, 12);
        check_against_reference(&g, &got, 0);
    }

    #[test]
    fn decay_bfs_on_disconnected_graph_leaves_unreachable_unset() {
        let g = radio_graph::Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let mut net = StackBuilder::new(g.clone()).build();
        let result = decay_bfs(&mut net, 0);
        check_against_reference(&g, &result, 0);
        assert_eq!(result.dist[3], None);
    }
}
