//! Up-cast and Down-cast within clusters (paper, Lemma 3.1).
//!
//! * **Down-cast**: each participating cluster center holds a message that
//!   must reach every member of its cluster.
//! * **Up-cast**: some members hold messages; each participating cluster
//!   center must receive a message from at least one of its holders.
//!
//! Both run in `D` stages (one per layer) of `ℓ` steps. In step `j` of a
//! stage only the vertices whose cluster's index set `S_Cl` contains `j`
//! participate; property (2) of Section 3 (some `j ∈ S_Cl(v)` is not in any
//! neighbouring cluster's set) guarantees that in at least one step a vertex
//! hears from its *own* cluster rather than from a neighbouring one.
//! Messages are additionally tagged with the cluster index, so a vertex can
//! discard same-step deliveries from foreign clusters — something a real
//! device can do because cluster identifiers are part of every message.
//!
//! Per-vertex energy is `O(|S_Cl|) = O(log n)` Local-Broadcast
//! participations per cast, as in Lemma 3.1.
//!
//! Both casts drive all of their `D · ℓ` Local-Broadcast calls through one
//! caller-provided [`LbFrame`] scratch (sized for the parent network), so a
//! cast allocates nothing per call; the step → clusters schedule is a dense
//! table over `[ℓ]`, iterated in ascending step order by construction.
//!
//! The schedule is also *live*: each step lists its clusters as
//! `(radius, cluster)`, deepest first, and stage `s` walks only the prefix
//! with `radius + 1 ≥ s` — the clusters that still have a layer `s − 1`.
//! A cluster past its radius has no member to send or listen at that
//! stage, so dropping it changes no call; a step with no live cluster is
//! skipped without touching the frame. The up-cast also skips its holder
//! scan at stages deeper than its deepest holder, where no member can hold
//! a message yet. Every call, participant, delivery and RNG draw is the
//! one the every-cluster loop makes.

use radio_sim::{NodeSet, NodeSlots};

use crate::clustering::ClusterState;
use crate::lb::LbFrame;
use crate::message::Msg;
use crate::stack::RadioStack;

/// Wraps a payload with the cluster index it belongs to.
fn wrap(cluster: usize, payload: &Msg) -> Msg {
    payload.prepended(cluster as u64)
}

/// Splits a wrapped message into (cluster index, payload). The hot harvest
/// loops inline the tag check instead (cheaper on rejects); this named form
/// documents the framing and pins it in tests.
#[cfg(test)]
fn unwrap(m: &Msg) -> (usize, Msg) {
    let (cluster, payload) = m.split_first();
    (cluster as usize, payload)
}

/// Reusable buffers for the casts: the per-parent-node holder arena and the
/// step → clusters schedule table.
///
/// Callers that issue many casts (one virtual Local-Broadcast is two) hold
/// one of these next to their [`LbFrame`] so a cast allocates nothing; the
/// one-shot entry points [`down_cast`] / [`up_cast`] build a fresh scratch
/// per call instead.
#[derive(Clone, Debug, Default)]
pub struct CastScratch {
    /// `holding[v]`: the payload parent node `v` currently holds.
    holding: Vec<Option<Msg>>,
    /// The occupied entries of `holding`, so reset is `O(|touched|)` rather
    /// than `O(n)` per cast.
    touched: Vec<usize>,
    /// `clusters_at[j]`: participating clusters whose `S_Cl` contains `j`,
    /// as `(radius, cluster)`, deepest first. Dense over `[ℓ]`, so steps
    /// iterate in ascending order without sorting.
    clusters_at: Vec<Vec<(u32, usize)>>,
    /// The steps `j` with `clusters_at[j]` non-empty, ascending.
    steps: Vec<usize>,
    /// The participating clusters as `(radius, cluster)`, deepest first:
    /// the order the schedule's buckets are filled in.
    by_depth: Vec<(u32, usize)>,
    /// Down-cast only: `wrapped[c]` is `wrap(c, messages[c])`, computed once
    /// per cast — every holder of cluster `c` sends exactly this message, so
    /// the per-sender tag-prepend becomes a straight clone. Only the casting
    /// clusters' entries are written; the schedule never names any other
    /// cluster, so stale entries are never read and the table is not
    /// cleared between casts.
    wrapped: Vec<Option<Msg>>,
}

impl CastScratch {
    /// Scratch buffers for a parent network of `n` nodes.
    pub fn new(n: usize) -> Self {
        CastScratch {
            holding: vec![None; n],
            touched: Vec::new(),
            clusters_at: Vec::new(),
            steps: Vec::new(),
            by_depth: Vec::new(),
            wrapped: Vec::new(),
        }
    }

    /// Clears the holder arena (touching only occupied entries) and ensures
    /// it covers `n` parent nodes.
    fn reset_holding(&mut self, n: usize) {
        if self.holding.len() < n {
            self.holding.resize(n, None);
        }
        for &v in &self.touched {
            self.holding[v] = None;
        }
        self.touched.clear();
    }

    /// Rebuilds the step schedule for `clusters` in the buffers and returns
    /// the largest radius among them: the number of stages.
    fn build_schedule(
        &mut self,
        state: &ClusterState,
        clusters: impl Iterator<Item = usize>,
    ) -> u32 {
        if self.clusters_at.len() < state.ell {
            self.clusters_at.resize_with(state.ell, Vec::new);
        }
        for bucket in &mut self.clusters_at[..state.ell] {
            bucket.clear();
        }
        self.by_depth.clear();
        self.by_depth.extend(clusters.map(|c| (state.radius(c), c)));
        self.by_depth
            .sort_unstable_by_key(|&(radius, c)| (std::cmp::Reverse(radius), c));
        for &(radius, c) in &self.by_depth {
            for &j in &state.s_sets[c] {
                self.clusters_at[j].push((radius, c));
            }
        }
        self.steps.clear();
        let clusters_at = &self.clusters_at;
        self.steps
            .extend((0..state.ell).filter(|&j| !clusters_at[j].is_empty()));
        self.by_depth.first().map_or(0, |&(radius, _)| radius)
    }
}

/// The clusters of a deepest-first bucket that still have a layer
/// `stage − 1`, i.e. whose `radius + 1 ≥ stage`: a prefix of the bucket.
#[inline]
fn live(bucket: &[(u32, usize)], stage: u32) -> &[(u32, usize)] {
    &bucket[..bucket.partition_point(|&(radius, _)| radius + 1 >= stage)]
}

/// Down-cast: disseminates `messages[c]` from the center of each cluster `c`
/// (over the cluster universe, i.e. `messages` is keyed by cluster index) to
/// all of its members. `frame` is the Local-Broadcast scratch, sized for the
/// parent network.
///
/// Returns, for every node of the parent network, the payload it ended up
/// holding (`None` for nodes of non-participating clusters, and for members
/// the cast failed to reach, which happens only through Local-Broadcast
/// delivery failures). The slice borrows `scratch`'s holder arena.
pub fn down_cast_with<'s>(
    parent: &mut dyn RadioStack,
    state: &ClusterState,
    messages: &NodeSlots<Msg>,
    frame: &mut LbFrame,
    scratch: &'s mut CastScratch,
) -> &'s [Option<Msg>] {
    let n = state.num_nodes();
    debug_assert_eq!(frame.num_nodes(), n, "cast frame must cover the parent");
    scratch.reset_holding(n);
    if messages.is_empty() {
        return &scratch.holding[..n];
    }
    let max_stage = scratch.build_schedule(state, messages.keys().iter());
    let CastScratch {
        holding,
        touched,
        clusters_at,
        steps,
        wrapped,
        ..
    } = scratch;
    // Centers start out holding their message; by induction every holder of
    // cluster `c` holds exactly `messages[c]`, so the tagged message each
    // sender transmits is the same per cluster — wrap it once up front.
    if wrapped.len() < state.num_clusters() {
        wrapped.resize(state.num_clusters(), None);
    }
    for (c, m) in messages.iter() {
        holding[state.centers[c]] = Some(m.clone());
        touched.push(state.centers[c]);
        wrapped[c] = Some(wrap(c, m));
    }

    for stage in 1..=max_stage {
        for &j in &*steps {
            let live = live(&clusters_at[j], stage);
            if live.is_empty() {
                continue;
            }
            frame.clear();
            for &(_, c) in live {
                let tagged = wrapped[c]
                    .as_ref()
                    .expect("scheduled cluster has a message");
                for &v in state.members_at_layer(c, stage - 1) {
                    if holding[v].is_some() {
                        frame.add_sender(v, tagged.clone());
                    }
                }
                for &v in state.members_at_layer(c, stage) {
                    frame.add_receiver(v);
                }
            }
            if frame.senders().is_empty() && frame.receivers().is_empty() {
                continue;
            }
            parent.local_broadcast(frame);
            for (v, m) in frame.delivered().iter() {
                // Check the cluster tag before paying for the payload split.
                if m.word(0) as usize == state.cluster_of[v] && holding[v].is_none() {
                    holding[v] = Some(m.split_first().1);
                    touched.push(v);
                }
            }
        }
    }
    &scratch.holding[..n]
}

/// One-shot [`down_cast_with`] with a freshly allocated scratch, returning
/// the holder arena by value. Hot paths should hold a [`CastScratch`] and
/// call [`down_cast_with`] instead.
pub fn down_cast(
    parent: &mut dyn RadioStack,
    state: &ClusterState,
    messages: &NodeSlots<Msg>,
    frame: &mut LbFrame,
) -> Vec<Option<Msg>> {
    let mut scratch = CastScratch::new(state.num_nodes());
    down_cast_with(parent, state, messages, frame, &mut scratch);
    scratch.holding
}

/// Up-cast: every cluster in `participating` whose members include at least
/// one holder of a message (given in `messages`, keyed by parent node)
/// delivers one such message to its center. `frame` is the Local-Broadcast
/// scratch, sized for the parent network; `out` (over the cluster universe,
/// cleared on entry) receives the message each participating cluster's
/// center heard. Clusters with no holders are absent from the result.
pub fn up_cast_into(
    parent: &mut dyn RadioStack,
    state: &ClusterState,
    participating: &NodeSet,
    messages: &NodeSlots<Msg>,
    frame: &mut LbFrame,
    scratch: &mut CastScratch,
    out: &mut NodeSlots<Msg>,
) {
    let n = state.num_nodes();
    debug_assert_eq!(frame.num_nodes(), n, "cast frame must cover the parent");
    debug_assert_eq!(
        out.universe(),
        state.num_clusters(),
        "up-cast output must cover the clusters"
    );
    out.clear();
    scratch.reset_holding(n);
    if participating.is_empty() {
        return;
    }
    let max_stage = scratch.build_schedule(state, participating.iter());
    let CastScratch {
        holding,
        touched,
        clusters_at,
        steps,
        ..
    } = scratch;
    // Holders only move towards the center, so no member deeper than the
    // deepest initial holder ever holds a message.
    let mut deepest_holder = None;
    for (v, m) in messages.iter() {
        if participating.contains(state.cluster_of[v]) {
            holding[v] = Some(m.clone());
            touched.push(v);
            deepest_holder = deepest_holder.max(Some(state.layer[v]));
        }
    }

    // Stages walk from the deepest layer towards the center.
    for stage in (1..=max_stage).rev() {
        let senders_possible = deepest_holder.is_some_and(|deepest| stage <= deepest);
        for &j in &*steps {
            let live = live(&clusters_at[j], stage);
            if live.is_empty() {
                continue;
            }
            frame.clear();
            for &(_, c) in live {
                if senders_possible {
                    for &v in state.members_at_layer(c, stage) {
                        if let Some(payload) = &holding[v] {
                            frame.add_sender(v, wrap(c, payload));
                        }
                    }
                }
                for &v in state.members_at_layer(c, stage - 1) {
                    frame.add_receiver(v);
                }
            }
            if frame.senders().is_empty() && frame.receivers().is_empty() {
                continue;
            }
            parent.local_broadcast(frame);
            for (v, m) in frame.delivered().iter() {
                // Check the cluster tag before paying for the payload split.
                if m.word(0) as usize == state.cluster_of[v] && holding[v].is_none() {
                    holding[v] = Some(m.split_first().1);
                    touched.push(v);
                }
            }
        }
    }

    for c in participating.iter() {
        if let Some(m) = &holding[state.centers[c]] {
            out.insert(c, m.clone());
        }
    }
}

/// One-shot [`up_cast_into`] with freshly allocated scratch and output. Hot
/// paths should hold a [`CastScratch`] and an output arena and call
/// [`up_cast_into`] instead.
pub fn up_cast(
    parent: &mut dyn RadioStack,
    state: &ClusterState,
    participating: &NodeSet,
    messages: &NodeSlots<Msg>,
    frame: &mut LbFrame,
) -> NodeSlots<Msg> {
    let mut scratch = CastScratch::new(state.num_nodes());
    let mut out = NodeSlots::new(state.num_clusters());
    up_cast_into(
        parent,
        state,
        participating,
        messages,
        frame,
        &mut scratch,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster_distributed, ClusteringConfig};
    use crate::stack::{Stack, StackBuilder};
    use radio_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(g: radio_graph::Graph, inv_beta: u64, seed: u64) -> (Stack, ClusterState) {
        let mut net = StackBuilder::new(g).build();
        let cfg = ClusteringConfig::new(inv_beta);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let state = cluster_distributed(&mut net, &cfg, &mut rng);
        (net, state)
    }

    fn per_cluster_messages(state: &ClusterState, offset: u64) -> NodeSlots<Msg> {
        let mut m = NodeSlots::new(state.num_clusters());
        for c in 0..state.num_clusters() {
            m.insert(c, Msg::words(&[offset + c as u64]));
        }
        m
    }

    fn all_clusters(state: &ClusterState) -> NodeSet {
        let mut s = NodeSet::new(state.num_clusters());
        s.extend(0..state.num_clusters());
        s
    }

    #[test]
    fn down_cast_reaches_every_member() {
        let g = generators::grid(10, 10);
        let (mut net, state) = setup(g, 4, 1);
        let messages = per_cluster_messages(&state, 1000);
        let mut frame = net.new_frame();
        let holding = down_cast(&mut net, &state, &messages, &mut frame);
        for (v, held) in holding.iter().enumerate() {
            let c = state.cluster_of[v];
            assert_eq!(
                held.as_ref().map(|m| m.word(0)),
                Some(1000 + c as u64),
                "vertex {v} (cluster {c}, layer {}) missed the down-cast",
                state.layer[v]
            );
        }
    }

    #[test]
    fn down_cast_only_touches_participating_clusters() {
        let g = generators::grid(8, 8);
        let (mut net, state) = setup(g, 3, 2);
        if state.num_clusters() < 2 {
            return; // degenerate sample; other seeds cover the logic
        }
        let mut messages = NodeSlots::new(state.num_clusters());
        messages.insert(0, Msg::words(&[7]));
        let mut frame = net.new_frame();
        let holding = down_cast(&mut net, &state, &messages, &mut frame);
        for (v, held) in holding.iter().enumerate() {
            if state.cluster_of[v] != 0 {
                assert!(held.is_none());
            }
        }
        // Members of cluster 0 all hold the message.
        for &v in &state.members(0) {
            assert_eq!(holding[v].as_ref().map(|m| m.word(0)), Some(7));
        }
    }

    #[test]
    fn up_cast_delivers_some_holder_message_to_center() {
        let g = generators::grid(10, 10);
        let (mut net, state) = setup(g, 4, 3);
        // Every vertex of every cluster holds a message encoding its id.
        let mut messages = NodeSlots::new(state.num_nodes());
        for v in 0..state.num_nodes() {
            messages.insert(v, Msg::words(&[v as u64]));
        }
        let participating = all_clusters(&state);
        let mut frame = net.new_frame();
        let received = up_cast(&mut net, &state, &participating, &messages, &mut frame);
        assert_eq!(received.len(), state.num_clusters());
        for (c, m) in received.iter() {
            let holder = m.word(0) as usize;
            assert_eq!(
                state.cluster_of[holder], c,
                "cluster {c} got a foreign message"
            );
        }
    }

    #[test]
    fn up_cast_with_single_holder_reaches_center() {
        let g = generators::grid(9, 9);
        let (mut net, state) = setup(g, 4, 4);
        // Pick the deepest vertex of the largest cluster as the only holder.
        let (c, _) = state
            .cluster_sizes()
            .into_iter()
            .enumerate()
            .max_by_key(|&(_, s)| s)
            .unwrap();
        let deepest = *state
            .members(c)
            .iter()
            .max_by_key(|&&v| state.layer[v])
            .unwrap();
        let mut messages = NodeSlots::new(state.num_nodes());
        messages.insert(deepest, Msg::words(&[4242]));
        let mut participating = NodeSet::new(state.num_clusters());
        participating.insert(c);
        let mut frame = net.new_frame();
        let received = up_cast(&mut net, &state, &participating, &messages, &mut frame);
        assert_eq!(received.get(c).map(|m| m.word(0)), Some(4242));
    }

    #[test]
    fn up_cast_ignores_holders_outside_participating_clusters() {
        let g = generators::grid(8, 8);
        let (mut net, state) = setup(g, 3, 5);
        if state.num_clusters() < 2 {
            return;
        }
        let outsider = state.centers[1];
        let mut messages = NodeSlots::new(state.num_nodes());
        messages.insert(outsider, Msg::words(&[5]));
        let mut participating = NodeSet::new(state.num_clusters());
        participating.insert(0);
        let mut frame = net.new_frame();
        let received = up_cast(&mut net, &state, &participating, &messages, &mut frame);
        assert!(received.is_empty());
    }

    #[test]
    fn cast_energy_per_vertex_is_logarithmic() {
        // Lemma 3.1: each vertex participates in O(log n) Local-Broadcasts
        // per cast. Compare against a generous constant times |S_Cl| bound.
        let g = generators::grid(14, 14);
        let (mut net, state) = setup(g, 4, 6);
        let before: Vec<u64> = (0..state.num_nodes()).map(|v| net.lb_energy(v)).collect();
        let messages = per_cluster_messages(&state, 0);
        let mut frame = net.new_frame();
        let _ = down_cast(&mut net, &state, &messages, &mut frame);
        for (v, &already_used) in before.iter().enumerate() {
            let used = net.lb_energy(v) - already_used;
            let s_len = state.s_sets[state.cluster_of[v]].len() as u64;
            assert!(
                used <= 2 * s_len + 2,
                "vertex {v} used {used} participations for one down-cast (|S_Cl| = {s_len})"
            );
        }
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let payload = Msg::words(&[9, 8, 7]);
        let wrapped = wrap(3, &payload);
        let (c, p) = unwrap(&wrapped);
        assert_eq!(c, 3);
        assert_eq!(p, payload);
    }
}
