//! The Local-Broadcast frame and the two concrete [`RadioStack`] backends.
//!
//! **Local-Broadcast** (paper, Section 2.2): given disjoint sets `S`
//! (senders, each holding a message) and `R` (receivers), every `v ∈ R`
//! with `N(v) ∩ S ≠ ∅` receives some message from a neighbour in `S` with
//! probability `1 − f`.
//!
//! Calls operate on a reusable [`LbFrame`] (a dense [`RoundFrame`] over
//! the network's nodes): the
//! caller fills senders and receivers, the backend writes deliveries into
//! `frame.delivered()` — and, on collision-detection-capable stacks,
//! per-receiver verdicts into `frame.feedback()`. Because the frame's sets
//! iterate in ascending node order *by construction*, seeded runs are
//! reproducible without any per-call sort, and a frame held across the
//! thousands of calls a protocol makes costs zero allocations after the
//! first.
//!
//! Both backends are constructed exclusively through
//! [`StackBuilder`](crate::StackBuilder); see [`crate::stack`] for the
//! trait surface and the capability matrix.

use std::sync::Arc;

use radio_graph::Graph;
use radio_sim::{
    decay_local_broadcast, decay_local_broadcast_cd, CollisionDetection, DecayParams, DecayScratch,
    EnergyModel, LbFeedback, NodeSlots, RadioNetwork, RoundFrame,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::ledger::LbLedger;
use crate::message::Msg;
use crate::stack::{Capabilities, EnergyView, RadioStack};

/// The round frame all Local-Broadcast calls operate on: senders with their
/// [`Msg`] payloads, receivers, the delivered output, and (on CD stacks)
/// the per-receiver feedback lane.
pub type LbFrame = RoundFrame<Msg>;

/// Convenience for tests and one-off calls: runs one Local-Broadcast with a
/// freshly allocated frame and returns the deliveries. Hot paths should
/// hold their own [`LbFrame`] and call
/// [`RadioStack::local_broadcast`] directly.
pub fn local_broadcast_once(
    net: &mut dyn RadioStack,
    senders: &[(usize, Msg)],
    receivers: &[usize],
) -> NodeSlots<Msg> {
    let mut frame = net.new_frame();
    for (v, m) in senders {
        frame.add_sender(*v, m.clone());
    }
    for &v in receivers {
        frame.add_receiver(v);
    }
    net.local_broadcast(&mut frame);
    let mut out = NodeSlots::new(frame.num_nodes());
    frame.swap_delivered(&mut out);
    out
}

/// The accounting back-end used by the paper's analysis: each call costs one
/// unit of time, each participant one unit of energy, and delivery follows
/// the Local-Broadcast specification exactly (optionally with an injected
/// failure probability `f` per receiver). With collision detection enabled,
/// the frame's feedback lane reports per-receiver verdicts: `Silence` for
/// receivers with no sending neighbour, `Noise` for receivers whose
/// delivery failed despite sending neighbours.
#[derive(Clone, Debug)]
pub struct AbstractLbNetwork {
    graph: Arc<Graph>,
    global_n: usize,
    cd: CollisionDetection,
    ledger: LbLedger,
    failure_prob: f64,
    rng: ChaCha8Rng,
    /// Per-receiver scratch: the sending neighbours found in the single CSR
    /// pass, so the uniform pick indexes the buffer instead of re-scanning.
    pick_buf: Vec<usize>,
}

impl AbstractLbNetwork {
    pub(crate) fn from_builder(
        graph: Arc<Graph>,
        global_n: usize,
        cd: CollisionDetection,
        failure_prob: f64,
        seed: u64,
    ) -> Self {
        let n = graph.num_nodes();
        AbstractLbNetwork {
            graph,
            global_n,
            cd,
            ledger: LbLedger::new(n),
            failure_prob,
            rng: ChaCha8Rng::seed_from_u64(seed),
            pick_buf: Vec::new(),
        }
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The per-node Local-Broadcast ledger.
    pub fn ledger(&self) -> &LbLedger {
        &self.ledger
    }
}

impl RadioStack for AbstractLbNetwork {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn global_n(&self) -> usize {
        self.global_n
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            collision_detection: self.cd,
            energy_model: EnergyModel::Uniform,
            physical: false,
        }
    }

    fn local_broadcast(&mut self, frame: &mut LbFrame) {
        frame.clear_delivered();
        let (senders, receivers, delivered, feedback) = frame.parts_with_feedback_mut();
        self.ledger
            .record_call(senders.keys().iter(), receivers.iter());
        let cd = self.cd == CollisionDetection::Receiver;
        // Receivers are visited in ascending node order — the frame's
        // iteration order by construction — so the RNG stream maps to
        // receivers deterministically on every run.
        for r in receivers.iter() {
            if senders.contains(r) {
                // Sender/receiver sets are required to be disjoint; a vertex
                // listed in both acts as a sender only.
                continue;
            }
            // Collect sending neighbours in one pass over the CSR adjacency
            // against the sender occupancy bitset; the uniform pick then
            // indexes the buffer instead of re-scanning the adjacency.
            self.pick_buf.clear();
            for &u in self.graph.neighbors(r) {
                if senders.contains(u) {
                    self.pick_buf.push(u);
                }
            }
            let count = self.pick_buf.len();
            if count == 0 {
                if cd {
                    feedback.insert(r, LbFeedback::Silence);
                }
                continue;
            }
            if self.failure_prob > 0.0 && self.rng.gen_bool(self.failure_prob) {
                if cd {
                    feedback.insert(r, LbFeedback::Noise);
                }
                continue;
            }
            // The specification only promises *some* neighbour's message; we
            // pick uniformly to avoid accidental reliance on a tie-break.
            let pick = self.rng.gen_range(0..count);
            let u = self.pick_buf[pick];
            delivered.insert(r, senders.get(u).expect("occupied sender").clone());
            if cd {
                feedback.insert(r, LbFeedback::Delivered);
            }
        }
    }

    fn lb_energy(&self, v: usize) -> u64 {
        self.ledger.participations(v)
    }

    fn lb_time(&self) -> u64 {
        self.ledger.calls()
    }

    fn energy_view(&self) -> EnergyView {
        let n = self.num_nodes();
        EnergyView::lb_only(
            (0..n).map(|v| self.lb_energy(v)).collect(),
            (0..n).map(|v| self.ledger.sends(v)).collect(),
            self.lb_time(),
        )
    }

    fn topology(&self) -> Option<&Graph> {
        Some(&self.graph)
    }
}

/// The physical back-end: every Local-Broadcast call expands into Decay
/// slots (Lemma 2.4) on the `radio-sim` channel, so collisions and per-slot
/// energy are fully modelled. With collision detection enabled, calls run
/// the CD-aware Decay variant
/// ([`decay_local_broadcast_cd`]), which uses Silence
/// feedback to retire hopeless receivers after one iteration and idle
/// senders after their neighbourhoods resolve — fewer slots and lower
/// per-node energy on sparse instances, with the per-receiver verdicts
/// surfaced through the frame's feedback lane.
#[derive(Clone, Debug)]
pub struct PhysicalLbNetwork {
    net: RadioNetwork<Msg>,
    global_n: usize,
    cd: CollisionDetection,
    model: EnergyModel,
    decay: DecayParams,
    ledger: LbLedger,
    scratch: DecayScratch<Msg>,
    rng: ChaCha8Rng,
}

impl PhysicalLbNetwork {
    pub(crate) fn from_builder(
        graph: Arc<Graph>,
        global_n: usize,
        cd: CollisionDetection,
        model: EnergyModel,
        decay: Option<DecayParams>,
        seed: u64,
    ) -> Self {
        let n = graph.num_nodes();
        let decay =
            decay.unwrap_or_else(|| DecayParams::for_network(n.max(2), graph.max_degree().max(1)));
        PhysicalLbNetwork {
            net: RadioNetwork::new(graph).with_collision_detection(cd),
            global_n,
            cd,
            model,
            decay,
            ledger: LbLedger::new(n),
            scratch: DecayScratch::new(n),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The Decay parameters in force.
    pub fn decay_params(&self) -> DecayParams {
        self.decay
    }

    /// The underlying physical simulator (per-slot energy, elapsed slots).
    pub fn radio(&self) -> &RadioNetwork<Msg> {
        &self.net
    }

    /// Per-node *physical* energy in raw slots (listening or transmitting),
    /// as opposed to the LB-unit energy of [`RadioStack::lb_energy`]. For
    /// model-weighted costs use [`RadioStack::energy_view`].
    pub fn physical_energy(&self, v: usize) -> u64 {
        self.net.energy(v)
    }

    /// Maximum per-node physical energy in raw slots.
    pub fn max_physical_energy(&self) -> u64 {
        self.net.max_energy()
    }

    /// Total elapsed physical slots.
    pub fn physical_slots(&self) -> u64 {
        self.net.slots()
    }

    /// The per-node Local-Broadcast ledger.
    pub fn ledger(&self) -> &LbLedger {
        &self.ledger
    }
}

impl RadioStack for PhysicalLbNetwork {
    fn num_nodes(&self) -> usize {
        self.net.num_nodes()
    }

    fn global_n(&self) -> usize {
        self.global_n
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            collision_detection: self.cd,
            energy_model: self.model,
            physical: true,
        }
    }

    fn local_broadcast(&mut self, frame: &mut LbFrame) {
        self.ledger
            .record_call(frame.senders().keys().iter(), frame.receivers().iter());
        match self.cd {
            CollisionDetection::None => {
                decay_local_broadcast(
                    &mut self.net,
                    frame,
                    &mut self.scratch,
                    self.decay,
                    &mut self.rng,
                );
            }
            CollisionDetection::Receiver => {
                decay_local_broadcast_cd(
                    &mut self.net,
                    frame,
                    &mut self.scratch,
                    self.decay,
                    &mut self.rng,
                );
            }
        }
    }

    fn lb_energy(&self, v: usize) -> u64 {
        self.ledger.participations(v)
    }

    fn lb_time(&self) -> u64 {
        self.ledger.calls()
    }

    fn energy_view(&self) -> EnergyView {
        let n = self.num_nodes();
        let meter = self.net.meter();
        EnergyView::lb_only(
            (0..n).map(|v| self.lb_energy(v)).collect(),
            (0..n).map(|v| self.ledger.sends(v)).collect(),
            self.lb_time(),
        )
        .with_physical(
            meter.listen_counts().to_vec(),
            meter.transmit_counts().to_vec(),
            meter.slots(),
            self.model,
        )
    }

    fn topology(&self) -> Option<&Graph> {
        Some(self.net.graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StackBuilder;
    use radio_graph::generators;

    fn msg(x: u64) -> Msg {
        Msg::words(&[x])
    }

    fn abstract_stack(g: Graph) -> AbstractLbNetwork {
        match StackBuilder::new(g).build() {
            crate::Stack::Abstract(a) => *a,
            _ => unreachable!(),
        }
    }

    fn physical_stack(g: Graph, seed: u64) -> PhysicalLbNetwork {
        match StackBuilder::new(g)
            .physical(EnergyModel::Uniform)
            .with_seed(seed)
            .build()
        {
            crate::Stack::Physical(p) => *p,
            _ => unreachable!(),
        }
    }

    #[test]
    fn abstract_delivery_follows_spec() {
        let g = generators::path(4); // 0-1-2-3
        let mut net = abstract_stack(g);
        let out = local_broadcast_once(&mut net, &[(0, msg(10)), (3, msg(30))], &[1, 2]);
        assert_eq!(out.get(1), Some(&msg(10)));
        assert_eq!(out.get(2), Some(&msg(30)));
        assert_eq!(net.lb_time(), 1);
        assert_eq!(net.lb_energy(0), 1);
        assert_eq!(net.lb_energy(1), 1);
        assert_eq!(net.max_lb_energy(), 1);
    }

    #[test]
    fn abstract_receiver_without_sending_neighbor_gets_nothing() {
        let g = generators::path(4);
        let mut net = abstract_stack(g);
        let out = local_broadcast_once(&mut net, &[(0, msg(1))], &[3]);
        assert!(out.is_empty());
        // The hopeless receiver still pays for participating.
        assert_eq!(net.lb_energy(3), 1);
    }

    #[test]
    fn abstract_receiver_with_multiple_senders_hears_one_of_them() {
        let g = generators::star(5);
        let mut net = StackBuilder::new(g).with_seed(7).build();
        let senders: Vec<(usize, Msg)> = (1..5).map(|v| (v, msg(v as u64))).collect();
        let out = local_broadcast_once(&mut net, &senders, &[0]);
        let heard = out.get(0).expect("delivered").word(0);
        assert!((1..5).contains(&(heard as usize)));
    }

    #[test]
    fn abstract_failures_do_fail_sometimes() {
        let g = generators::path(2);
        let mut net = StackBuilder::new(g).with_failures(0.5).with_seed(3).build();
        let mut frame = net.new_frame();
        let mut hits = 0;
        for _ in 0..200 {
            frame.clear();
            frame.add_sender(0, msg(1));
            frame.add_receiver(1);
            net.local_broadcast(&mut frame);
            if !frame.delivered().is_empty() {
                hits += 1;
            }
        }
        assert!(hits > 50 && hits < 150, "hits = {hits}");
    }

    #[test]
    fn sender_listed_as_receiver_is_ignored_as_receiver() {
        let g = generators::path(3);
        let mut net = abstract_stack(g);
        let out = local_broadcast_once(&mut net, &[(0, msg(1)), (1, msg(2))], &[1, 2]);
        assert!(!out.contains(1));
        assert_eq!(out.get(2), Some(&msg(2)));
    }

    #[test]
    fn abstract_cd_records_per_receiver_verdicts() {
        // Path 0-1-2-3, sender 0, receivers {1, 3}: with CD the frame's
        // feedback lane distinguishes the delivered receiver from the one
        // with provably no sending neighbour.
        let g = generators::path(4);
        let mut net = StackBuilder::new(g).with_cd().build();
        let mut frame = net.new_frame();
        frame.add_sender(0, msg(7));
        frame.add_receiver(1);
        frame.add_receiver(3);
        net.local_broadcast(&mut frame);
        assert_eq!(frame.feedback().get(1), Some(&LbFeedback::Delivered));
        assert_eq!(frame.feedback().get(3), Some(&LbFeedback::Silence));
        // Injected failures read as noise: the receiver knows senders exist.
        let g = generators::path(2);
        let mut lossy = StackBuilder::new(g)
            .with_cd()
            .with_failures(0.999)
            .with_seed(1)
            .build();
        let mut frame = lossy.new_frame();
        frame.add_sender(0, msg(1));
        frame.add_receiver(1);
        lossy.local_broadcast(&mut frame);
        if !frame.delivered().contains(1) {
            assert_eq!(frame.feedback().get(1), Some(&LbFeedback::Noise));
        }
    }

    #[test]
    fn no_cd_stacks_leave_the_feedback_lane_empty() {
        let g = generators::path(4);
        let mut net = abstract_stack(g);
        let mut frame = net.new_frame();
        frame.add_sender(0, msg(7));
        frame.add_receiver(1);
        frame.add_receiver(3);
        net.local_broadcast(&mut frame);
        assert!(frame.feedback().is_empty());
    }

    #[test]
    fn physical_backend_delivers_and_charges_slots() {
        let g = generators::path(3);
        let mut net = physical_stack(g, 42);
        let out = local_broadcast_once(&mut net, &[(0, msg(9))], &[1, 2]);
        assert_eq!(out.get(1), Some(&msg(9)));
        assert_eq!(out.get(2), None);
        assert_eq!(net.lb_time(), 1);
        assert_eq!(net.lb_energy(0), 1);
        // Physical energy is the Lemma 2.4 expansion: strictly more than one
        // slot for listeners without a sending neighbour.
        assert!(net.physical_energy(2) > 1);
        assert!(net.physical_slots() as usize >= net.decay_params().total_slots());
    }

    #[test]
    fn physical_cd_backend_saves_energy_on_hopeless_receivers() {
        // The CD-aware decay resolves a receiver with no sending neighbour
        // after one iteration instead of the full slot budget.
        let g = generators::path(4);
        let run = |cd: bool| -> (u64, u64) {
            let mut b = StackBuilder::new(g.clone())
                .physical(EnergyModel::Uniform)
                .with_seed(11);
            if cd {
                b = b.with_cd();
            }
            let mut net = b.build();
            let _ = local_broadcast_once(&mut net, &[(0, msg(9))], &[1, 3]);
            let view = net.energy_view();
            (
                view.physical_energy(3).unwrap(),
                view.physical_slots().unwrap(),
            )
        };
        let (plain_energy, plain_slots) = run(false);
        let (cd_energy, cd_slots) = run(true);
        assert!(cd_energy < plain_energy, "{cd_energy} vs {plain_energy}");
        assert!(cd_slots < plain_slots, "{cd_slots} vs {plain_slots}");
    }

    #[test]
    fn physical_and_abstract_agree_on_lb_unit_accounting() {
        let g = generators::grid(3, 3);
        let senders = [(0, msg(1)), (4, msg(2))];
        let receivers = [1, 3, 5, 7];
        let mut a = abstract_stack(g.clone());
        let mut p = physical_stack(g, 1);
        local_broadcast_once(&mut a, &senders, &receivers);
        local_broadcast_once(&mut p, &senders, &receivers);
        for v in 0..9 {
            assert_eq!(a.lb_energy(v), p.lb_energy(v), "node {v}");
        }
        assert_eq!(a.lb_time(), p.lb_time());
    }

    #[test]
    fn reused_frame_is_equivalent_to_fresh_frames() {
        // One frame reused across calls must behave exactly like fresh
        // frames per call (same deliveries, same ledger) on a reliable net.
        let g = generators::grid(4, 4);
        let mut a = abstract_stack(g.clone());
        let mut b = abstract_stack(g);
        let mut reused = a.new_frame();
        for round in 0..8u64 {
            let senders: Vec<(usize, Msg)> = (0..16)
                .filter(|v| (v + round as usize).is_multiple_of(3))
                .map(|v| (v, msg(round)))
                .collect();
            let receivers: Vec<usize> = (0..16)
                .filter(|v| !(v + round as usize).is_multiple_of(3))
                .collect();
            reused.clear();
            for (v, m) in &senders {
                reused.add_sender(*v, m.clone());
            }
            for &v in &receivers {
                reused.add_receiver(v);
            }
            a.local_broadcast(&mut reused);
            let fresh = local_broadcast_once(&mut b, &senders, &receivers);
            let got: Vec<(usize, Msg)> = reused
                .delivered()
                .iter()
                .map(|(v, m)| (v, m.clone()))
                .collect();
            let want: Vec<(usize, Msg)> = fresh.iter().map(|(v, m)| (v, m.clone())).collect();
            assert_eq!(got, want, "round {round}");
        }
        for v in 0..16 {
            assert_eq!(a.lb_energy(v), b.lb_energy(v));
        }
    }
}
