//! Simulating a radio network on the cluster graph `G*` (paper, Lemma 3.2).
//!
//! [`VirtualClusterNet`] exposes the cluster graph as a [`RadioStack`]
//! whose nodes are clusters. A Local-Broadcast call on `G*` with sending
//! clusters `S` and receiving clusters `R` is simulated by:
//!
//! 1. a Down-cast in every `C ∈ S`, so every member of `C` learns `m_C`;
//! 2. one Local-Broadcast on the parent network with senders
//!    `⋃_{C∈S} C` and receivers `⋃_{C'∈R} C'`;
//! 3. an Up-cast in every `C ∈ R`, delivering one received message to the
//!    cluster center.
//!
//! Because the result is itself a `RadioStack`, any algorithm written
//! against the abstraction — including the recursive BFS of Section 4 and
//! the distributed clustering itself — runs unchanged on `G*`, at the cost
//! of `O(log n)` extra Local-Broadcast participations per underlying device
//! per virtual call, exactly the overhead the paper charges in
//! equation (3).

use radio_sim::{NodeSet, NodeSlots};

use crate::cast::{down_cast_with, up_cast_into, CastScratch};
use crate::clustering::ClusterState;
use crate::lb::LbFrame;
use crate::ledger::LbLedger;
use crate::message::Msg;
use crate::stack::{Capabilities, RadioStack};

/// A virtual radio network whose nodes are the clusters of a
/// [`ClusterState`] over some parent [`RadioStack`].
///
/// The net owns the scratch buffers for the parent-level plumbing — one
/// parent-sized [`LbFrame`] driven through both casts and the crossing
/// call, a holder arena for the crossing deliveries, and the participating
/// cluster set — so a long sequence of virtual calls (the normal case in
/// the recursive BFS) allocates nothing per call.
pub struct VirtualClusterNet<'a> {
    parent: &'a mut dyn RadioStack,
    state: &'a ClusterState,
    ledger: LbLedger,
    global_n: usize,
    /// Scratch frame over the parent's nodes, reused by every cast and
    /// crossing Local-Broadcast of every virtual call.
    parent_frame: LbFrame,
    /// Crossing-call deliveries, held while `parent_frame` is reused by the
    /// up-cast (swapped, not cloned).
    crossed: NodeSlots<Msg>,
    /// Receiving clusters of the current call.
    participating: NodeSet,
    /// Holder arena + step-schedule buffers shared by both casts.
    cast_scratch: CastScratch,
    /// Up-cast output over the cluster universe, swapped into the virtual
    /// frame's delivery arena (not cloned).
    at_centers: NodeSlots<Msg>,
}

impl<'a> VirtualClusterNet<'a> {
    /// Wraps `parent` with the clustering `state`.
    pub fn new(parent: &'a mut dyn RadioStack, state: &'a ClusterState) -> Self {
        let global_n = parent.global_n();
        let ledger = LbLedger::new(state.num_clusters());
        let parent_frame = parent.new_frame();
        let crossed = NodeSlots::new(parent.num_nodes());
        let participating = NodeSet::new(state.num_clusters());
        let cast_scratch = CastScratch::new(parent.num_nodes());
        let at_centers = NodeSlots::new(state.num_clusters());
        VirtualClusterNet {
            parent,
            state,
            ledger,
            global_n,
            parent_frame,
            crossed,
            participating,
            cast_scratch,
            at_centers,
        }
    }
}

impl RadioStack for VirtualClusterNet<'_> {
    fn num_nodes(&self) -> usize {
        self.state.num_clusters()
    }

    fn global_n(&self) -> usize {
        self.global_n
    }

    fn capabilities(&self) -> Capabilities {
        // The virtual layer exposes the paper's plain Local-Broadcast
        // abstraction regardless of what the parent can do: casts cannot
        // propagate channel verdicts through cluster centers, so the
        // feedback lane stays empty and CD is reported as absent. Slot-level
        // counters likewise live on the (possibly physical) parent.
        Capabilities {
            collision_detection: radio_sim::CollisionDetection::None,
            energy_model: radio_sim::EnergyModel::Uniform,
            physical: false,
        }
    }

    fn local_broadcast(&mut self, frame: &mut LbFrame) {
        frame.clear_delivered();
        self.ledger.record_call(frame);

        // Step 1: Down-cast the senders' messages within their clusters.
        let holding = down_cast_with(
            &mut *self.parent,
            self.state,
            frame.senders(),
            &mut self.parent_frame,
            &mut self.cast_scratch,
        );

        // Step 2: one Local-Broadcast on the parent network between the
        // member sets (walked layer by layer — the member lists live in
        // per-layer buckets, so no flattened copy is materialised).
        self.parent_frame.clear();
        for (c, _) in frame.senders().iter() {
            for layer in 0..=self.state.radius(c) {
                for &v in self.state.members_at_layer(c, layer) {
                    if let Some(m) = &holding[v] {
                        self.parent_frame.add_sender(v, m.clone());
                    }
                }
            }
        }
        for c in frame.receivers().iter() {
            if frame.senders().contains(c) {
                continue;
            }
            for layer in 0..=self.state.radius(c) {
                for &v in self.state.members_at_layer(c, layer) {
                    self.parent_frame.add_receiver(v);
                }
            }
        }
        if !(self.parent_frame.senders().is_empty() && self.parent_frame.receivers().is_empty()) {
            self.parent.local_broadcast(&mut self.parent_frame);
        }
        // Hold the crossing deliveries while the frame is reused below.
        self.crossed.clear();
        self.parent_frame.swap_delivered(&mut self.crossed);

        // Step 3: Up-cast within the receiving clusters (receivers minus
        // senders, word-parallel).
        self.participating.copy_from(frame.receivers());
        self.participating.difference_with(frame.senders().keys());
        up_cast_into(
            &mut *self.parent,
            self.state,
            &self.participating,
            &self.crossed,
            &mut self.parent_frame,
            &mut self.cast_scratch,
            &mut self.at_centers,
        );
        frame.swap_delivered(&mut self.at_centers);
    }

    fn lb_energy(&self, v: usize) -> u64 {
        self.ledger.participations(v)
    }

    fn lb_time(&self) -> u64 {
        self.ledger.calls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster_distributed, ClusteringConfig};
    use crate::lb::local_broadcast_once;
    use crate::stack::{Stack, StackBuilder};
    use radio_graph::bfs::bfs_distances;
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

    #[test]
    fn virtual_lb_delivers_between_adjacent_clusters() {
        let g = generators::grid(10, 10);
        let (mut net, state) = setup(g.clone(), 3, 4);
        let quotient = state.quotient_graph(&g);
        let (a, b) = quotient.edges().next().expect("two adjacent clusters");
        let mut virt = VirtualClusterNet::new(&mut net, &state);
        let out = local_broadcast_once(&mut virt, &[(a, Msg::words(&[77]))], &[b]);
        assert_eq!(out.get(b).map(|m| m.word(0)), Some(77));
        assert_eq!(virt.lb_time(), 1);
        assert_eq!(virt.lb_energy(a), 1);
        assert_eq!(virt.lb_energy(b), 1);
        // A cluster listed as both sender and receiver acts as a sender
        // only: it hears nothing and participates once.
        let out = local_broadcast_once(&mut virt, &[(a, Msg::words(&[78]))], &[a, b]);
        assert!(!out.contains(a));
        assert_eq!(out.get(b).map(|m| m.word(0)), Some(78));
        assert_eq!((virt.lb_energy(a), virt.lb_energy(b)), (2, 2));
    }

    #[test]
    fn virtual_lb_does_not_deliver_between_non_adjacent_clusters() {
        let g = generators::path(40);
        let (mut net, state) = setup(g.clone(), 4, 2);
        let quotient = state.quotient_graph(&g);
        // Find two clusters at quotient distance ≥ 2.
        let d = bfs_distances(&quotient, 0);
        let far = (0..quotient.num_nodes())
            .find(|&c| d[c] >= 2 && d[c] != radio_graph::INFINITY)
            .expect("two clusters at quotient distance 2");
        let mut virt = VirtualClusterNet::new(&mut net, &state);
        let out = local_broadcast_once(&mut virt, &[(0usize, Msg::words(&[5]))], &[far]);
        assert!(out.is_empty());
    }

    #[test]
    fn virtual_lb_matches_quotient_graph_semantics() {
        // Flood one virtual LB from every cluster simultaneously and check
        // that exactly the quotient-graph neighbours of a receiving cluster
        // can be heard.
        let g = generators::grid(9, 9);
        let (mut net, state) = setup(g.clone(), 3, 5);
        let quotient = state.quotient_graph(&g);
        let k = quotient.num_nodes();
        assert!(k >= 2, "several clusters");
        for target in 0..k.min(4) {
            let mut virt = VirtualClusterNet::new(&mut net, &state);
            let senders: Vec<(usize, Msg)> = (0..k)
                .filter(|&c| c != target)
                .map(|c| (c, Msg::words(&[c as u64])))
                .collect();
            let out = local_broadcast_once(&mut virt, &senders, &[target]);
            if quotient.degree(target) > 0 {
                let heard = out.get(target).expect("adjacent sender exists").word(0) as usize;
                assert!(
                    quotient.has_edge(target, heard),
                    "cluster {target} heard non-neighbour {heard}"
                );
            } else {
                assert!(out.is_empty());
            }
        }
    }

    #[test]
    fn parent_devices_pay_logarithmic_overhead_per_virtual_call() {
        // Lemma 3.2: each vertex of G participates in O(log n)
        // Local-Broadcasts per simulated call on G*.
        let g = generators::grid(12, 12);
        let (mut net, state) = setup(g.clone(), 4, 4);
        let quotient = state.quotient_graph(&g);
        let before: Vec<u64> = (0..g.num_nodes()).map(|v| net.lb_energy(v)).collect();
        let (a, b) = quotient.edges().next().expect("two adjacent clusters");
        {
            let mut virt = VirtualClusterNet::new(&mut net, &state);
            let _ = local_broadcast_once(&mut virt, &[(a, Msg::words(&[1]))], &[b]);
        }
        // One virtual call = down-cast + one crossing LB + up-cast; each
        // cast charges a vertex at most one participation per index of its
        // cluster's S_Cl per stage it takes part in (≤ 2 stages), so
        // 4·max|S_Cl| + 2 bounds the whole call whatever ℓ-constant the
        // clustering config picked. |S_Cl| = O(log n), as Lemma 3.2 charges.
        let max_s = state.s_sets.iter().map(|s| s.len()).max().unwrap_or(0) as u64;
        let budget = 4 * max_s + 2;
        for (v, &already_used) in before.iter().enumerate() {
            let used = net.lb_energy(v) - already_used;
            assert!(
                used <= budget,
                "vertex {v} paid {used} parent participations for one virtual call (budget {budget})"
            );
        }
    }

    #[test]
    fn virtual_views_count_virtual_calls_in_lb_units_only() {
        // On a physical parent the virtual layer still reports plain LB
        // units — its calls have no slot structure of their own — while
        // the parent's view keeps the slot counters.
        let g = generators::grid(6, 6);
        let mut net = StackBuilder::new(g.clone())
            .physical(radio_sim::EnergyModel::Uniform)
            .with_seed(3)
            .build();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let state = cluster_distributed(&mut net, &ClusteringConfig::new(3), &mut rng);
        let quotient = state.quotient_graph(&g);
        let (a, b) = quotient.edges().next().expect("two adjacent clusters");
        let view = {
            let mut virt = VirtualClusterNet::new(&mut net, &state);
            assert!(!virt.capabilities().physical);
            assert!(!virt.capabilities().collision_detection.is_receiver());
            for round in 0..3 {
                let _ = local_broadcast_once(&mut virt, &[(a, Msg::words(&[round]))], &[b]);
            }
            virt.energy_view()
        };
        assert!(!view.has_physical());
        assert_eq!(view.nodes(), state.num_clusters());
        assert_eq!(view.lb_time(), 3);
        assert_eq!((view.lb_energy(a), view.lb_energy(b)), (3, 3));
        assert_eq!(view.total_lb_energy(), 6);
        assert!(net.energy_view().has_physical());
        assert!(net.energy_view().lb_time() > 3);
    }

    #[test]
    fn clustering_can_run_recursively_on_the_virtual_network() {
        // The key compositional property behind Recursive-BFS: the virtual
        // cluster network is itself a RadioStack, so the distributed MPX
        // clustering runs on it unchanged.
        let g = generators::grid(12, 12);
        let (mut net, state) = setup(g.clone(), 3, 5);
        assert!(state.num_clusters() >= 4, "enough clusters to recluster");
        let mut virt = VirtualClusterNet::new(&mut net, &state);
        let cfg = ClusteringConfig::new(2);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let second_level = cluster_distributed(&mut virt, &cfg, &mut rng);
        second_level
            .validate()
            .expect("second-level clustering is valid");
        assert_eq!(second_level.num_nodes(), state.num_clusters());
        assert!(second_level.num_clusters() <= state.num_clusters());
        // Second-level clusters must be connected in the quotient graph.
        let quotient = state.quotient_graph(&g);
        for c in 0..second_level.num_clusters() {
            let members: std::collections::HashSet<_> =
                second_level.members(c).into_iter().collect();
            let active: Vec<bool> = (0..quotient.num_nodes())
                .map(|v| members.contains(&v))
                .collect();
            let dist =
                radio_graph::bfs::restricted_bfs(&quotient, &[second_level.centers[c]], &active);
            for &m in &members {
                assert_ne!(
                    dist[m],
                    radio_graph::INFINITY,
                    "second-level cluster {c} is disconnected in G*"
                );
            }
        }
    }
}
