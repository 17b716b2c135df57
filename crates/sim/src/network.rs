//! The synchronous radio channel: one round of the `RN[b]` model.

use std::collections::HashMap;
use std::sync::Arc;

use radio_graph::{Graph, NodeId};

use crate::energy::{EnergyMeter, EnergyReport};
use crate::frame::{NodeSet, SlotFrame};
use crate::model::{Action, CollisionDetection, Feedback, MessageBudget, Payload};

/// Reusable buffers for the columnar delivery-resolution path of
/// [`RadioNetwork::step_frame`].
#[derive(Clone, Debug)]
struct ResolveScratch {
    /// Nodes covered by at least one transmitting neighbour this slot.
    covered_once: NodeSet,
    /// Nodes covered by two or more transmitting neighbours this slot.
    covered_twice: NodeSet,
    /// For a node covered exactly once: the transmitter that covered it.
    /// Entries are meaningful only where `covered_once` (and not
    /// `covered_twice`) is set *this* slot; stale entries are never read,
    /// so the vector is not cleared between slots.
    from: Vec<usize>,
}

impl ResolveScratch {
    fn new(n: usize) -> Self {
        ResolveScratch {
            covered_once: NodeSet::new(n),
            covered_twice: NodeSet::new(n),
            from: vec![0; n],
        }
    }
}

/// A radio network instance: a topology, a collision-detection mode, a
/// message budget, and the running energy meter.
///
/// The network is generic over the payload type `M`; the paper's protocols
/// all use `O(log n)`-bit payloads, which the budget check enforces when a
/// finite budget is configured.
#[derive(Clone, Debug)]
pub struct RadioNetwork<M> {
    graph: Arc<Graph>,
    cd: CollisionDetection,
    budget: MessageBudget,
    meter: EnergyMeter,
    resolve: ResolveScratch,
    _payload: std::marker::PhantomData<M>,
}

impl<M: Payload> RadioNetwork<M> {
    /// Creates a network over `graph` with no collision detection and an
    /// unlimited message budget.
    ///
    /// Accepts either an owned [`Graph`] or a pre-shared `Arc<Graph>`; the
    /// latter makes per-cell network construction a refcount bump instead of
    /// a full CSR copy when many cells share one topology.
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        let graph = graph.into();
        let n = graph.num_nodes();
        RadioNetwork {
            graph,
            cd: CollisionDetection::None,
            budget: MessageBudget::Unlimited,
            meter: EnergyMeter::new(n),
            resolve: ResolveScratch::new(n),
            _payload: std::marker::PhantomData,
        }
    }

    /// Sets the collision-detection mode.
    pub fn with_collision_detection(mut self, cd: CollisionDetection) -> Self {
        self.cd = cd;
        self
    }

    /// Sets the per-message bit budget (the `b` of `RN[b]`).
    pub fn with_message_budget(mut self, budget: MessageBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of devices.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The collision-detection mode in force.
    pub fn collision_detection(&self) -> CollisionDetection {
        self.cd
    }

    /// Read access to the energy meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Convenience: the meter's summary report.
    pub fn report(&self) -> EnergyReport {
        self.meter.report()
    }

    /// Energy of device `v` so far.
    pub fn energy(&self, v: NodeId) -> u64 {
        self.meter.energy(v)
    }

    /// Maximum per-device energy so far.
    pub fn max_energy(&self) -> u64 {
        self.meter.max_energy()
    }

    /// Elapsed slots so far.
    pub fn slots(&self) -> u64 {
        self.meter.slots()
    }

    /// Executes one synchronous slot.
    ///
    /// `actions` maps a device to its action for the slot; devices not in
    /// the map idle. Returns, for each **listening** device, the channel
    /// feedback it observed. Transmitters and idlers are absent from the
    /// result (a transmitter gets no feedback about its own transmission in
    /// this model).
    ///
    /// Panics if a transmitted payload exceeds the configured bit budget.
    pub fn step(&mut self, actions: &HashMap<NodeId, Action<M>>) -> HashMap<NodeId, Feedback<M>> {
        let n = self.num_nodes();
        // Collect transmitters.
        let mut transmissions: HashMap<NodeId, M> = HashMap::new();
        for (&v, action) in actions {
            assert!(v < n, "device {v} out of range");
            match action {
                Action::Idle => {}
                Action::Listen => {
                    self.meter.charge_listen(v);
                }
                Action::Transmit(m) => {
                    assert!(
                        self.budget.allows(m.bit_size()),
                        "payload of {} bits exceeds the message budget {:?}",
                        m.bit_size(),
                        self.budget
                    );
                    self.meter.charge_transmit(v);
                    transmissions.insert(v, m.clone());
                }
            }
        }
        // Resolve reception for each listener.
        let mut feedback = HashMap::new();
        for (&v, action) in actions {
            if !matches!(action, Action::Listen) {
                continue;
            }
            let mut heard: Option<&M> = None;
            let mut count = 0usize;
            for &u in self.graph.neighbors(v) {
                if let Some(m) = transmissions.get(&u) {
                    count += 1;
                    heard = Some(m);
                    if count > 1 {
                        break;
                    }
                }
            }
            let fb = match (count, self.cd) {
                (1, _) => Feedback::Received(heard.expect("one transmitter").clone()),
                (0, CollisionDetection::None) => Feedback::Nothing,
                (_, CollisionDetection::None) => Feedback::Nothing,
                (0, CollisionDetection::Receiver) => Feedback::Silence,
                (_, CollisionDetection::Receiver) => Feedback::Noise,
            };
            feedback.insert(v, fb);
        }
        self.meter.tick();
        feedback
    }

    /// Executes one synchronous slot in columnar form.
    ///
    /// The counterpart of [`RadioNetwork::step`] for the dense round-frame
    /// engine: transmitters and listeners come in as a [`SlotFrame`], and
    /// per-listener feedback is written back into `frame.feedback` (cleared
    /// on entry), with `frame.received` indexing the listeners that decoded
    /// a message. Nodes in neither set idle and spend no energy.
    ///
    /// Delivery resolution is **adaptive**: when the transmitters' summed
    /// degree is small relative to the listeners' (the common decay case —
    /// a few senders, a settling frontier of listeners), reception is
    /// resolved by the columnar path ([`RadioNetwork::step_frame_columnar`])
    /// that accumulates transmitter coverage into two bitsets and classifies
    /// all listeners a `u64` word at a time; when transmitters dominate, the
    /// listener-scan path ([`RadioNetwork::step_frame_scan`]) walks each
    /// listener's CSR neighbourhood instead. Both paths produce bit-for-bit
    /// identical frames and meters (pinned by the kernel-equivalence tests),
    /// so the choice is invisible to protocols.
    ///
    /// Semantics (energy charges, collision resolution, budget enforcement)
    /// are identical to [`RadioNetwork::step`]; a node present in both sets
    /// acts as a transmitter only, matching `step`'s treatment of a single
    /// action per node.
    ///
    /// Panics if a transmitted payload exceeds the configured bit budget,
    /// or if the frame's universe differs from the network's node count.
    pub fn step_frame(&mut self, frame: &mut SlotFrame<M>) {
        // Crossover heuristic (measured via the `frame_kernels/delivery`
        // bench): the scan path costs ~Σ deg(listener) bitset probes, the
        // columnar path ~Σ deg(transmitter) coverage writes — each a little
        // heavier than a probe, hence the 2x weight — plus a word-parallel
        // classification sweep over the listen set's occupied-word range.
        // Both sums are O(range + |set|) to compute from the CSR degree
        // table, negligible next to either resolution loop.
        let t_deg: usize = frame
            .transmit
            .keys()
            .iter()
            .map(|t| self.graph.degree(t))
            .sum();
        let l_deg: usize = frame
            .listen
            .iter()
            .filter(|&v| !frame.transmit.contains(v))
            .map(|v| self.graph.degree(v))
            .sum();
        if 2 * t_deg + frame.listen.occupied_words().len() <= l_deg {
            self.step_frame_columnar(frame);
        } else {
            self.step_frame_scan(frame);
        }
    }

    /// Charges every transmitter (enforcing the bit budget) — the stage both
    /// resolution paths share.
    fn charge_transmitters(&mut self, frame: &SlotFrame<M>) {
        let n = self.num_nodes();
        assert_eq!(
            frame.listen.universe(),
            n,
            "slot frame universe does not match the network"
        );
        for (v, m) in frame.transmit.iter() {
            assert!(v < n, "device {v} out of range");
            assert!(
                self.budget.allows(m.bit_size()),
                "payload of {} bits exceeds the message budget {:?}",
                m.bit_size(),
                self.budget
            );
            self.meter.charge_transmit(v);
        }
    }

    /// The listener-scan resolution path: one CSR neighbourhood walk per
    /// listener, counting transmitting neighbours with an early exit at two.
    /// `O(Σ deg(listener))`. This is the scalar reference the columnar path
    /// is pinned against; [`RadioNetwork::step_frame`] selects it when
    /// transmitters dominate listeners.
    pub fn step_frame_scan(&mut self, frame: &mut SlotFrame<M>) {
        frame.feedback.clear();
        frame.received.clear();
        self.charge_transmitters(frame);
        for v in frame.listen.iter() {
            if frame.transmit.contains(v) {
                continue; // transmitting wins; already charged above
            }
            self.meter.charge_listen(v);
            let mut heard: Option<&M> = None;
            let mut count = 0usize;
            for &u in self.graph.neighbors(v) {
                if let Some(m) = frame.transmit.get(u) {
                    count += 1;
                    heard = Some(m);
                    if count > 1 {
                        break;
                    }
                }
            }
            let fb = match (count, self.cd) {
                (1, _) => {
                    frame.received.insert(v);
                    Feedback::Received(heard.expect("one transmitter").clone())
                }
                (0, CollisionDetection::None) => Feedback::Nothing,
                (_, CollisionDetection::None) => Feedback::Nothing,
                (0, CollisionDetection::Receiver) => Feedback::Silence,
                (_, CollisionDetection::Receiver) => Feedback::Noise,
            };
            frame.feedback.insert(v, fb);
        }
        self.meter.tick();
    }

    /// The columnar resolution path: accumulate each transmitter's coverage
    /// into `covered_once`/`covered_twice` bitsets (`O(Σ deg(transmitter))`),
    /// then classify all listeners a `u64` word at a time over the listen
    /// set's occupied-word range — silence, unique delivery, or collision
    /// fall out of `listen & !transmit`, `once` and `twice` word
    /// combinations. Byte-identical in outputs and energy to
    /// [`RadioNetwork::step_frame_scan`]; [`RadioNetwork::step_frame`]
    /// selects it when transmitters are few relative to listeners.
    pub fn step_frame_columnar(&mut self, frame: &mut SlotFrame<M>) {
        frame.feedback.clear();
        frame.received.clear();
        self.charge_transmitters(frame);
        let RadioNetwork {
            graph,
            cd,
            meter,
            resolve,
            ..
        } = self;
        let cd = *cd;
        let ResolveScratch {
            covered_once,
            covered_twice,
            from,
        } = resolve;
        covered_once.clear();
        covered_twice.clear();
        for (t, _) in frame.transmit.iter() {
            for &u in graph.neighbors(t) {
                if covered_once.insert(u) {
                    from[u] = t;
                } else {
                    covered_twice.insert(u);
                }
            }
        }
        let listen_w = frame.listen.words();
        let transmit_w = frame.transmit.keys().words();
        let once_w = covered_once.words();
        let twice_w = covered_twice.words();
        for wi in frame.listen.occupied_words() {
            // 64 listeners classified per word; only actual listeners cost
            // a per-bit feedback insert.
            let mut bits = listen_w[wi] & !transmit_w[wi];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = wi * 64 + b;
                meter.charge_listen(v);
                let mask = 1u64 << b;
                let fb = if twice_w[wi] & mask != 0 {
                    match cd {
                        CollisionDetection::None => Feedback::Nothing,
                        CollisionDetection::Receiver => Feedback::Noise,
                    }
                } else if once_w[wi] & mask != 0 {
                    frame.received.insert(v);
                    Feedback::Received(
                        frame
                            .transmit
                            .get(from[v])
                            .expect("unique covering transmitter")
                            .clone(),
                    )
                } else {
                    match cd {
                        CollisionDetection::None => Feedback::Nothing,
                        CollisionDetection::Receiver => Feedback::Silence,
                    }
                };
                frame.feedback.insert(v, fb);
            }
        }
        meter.tick();
    }

    /// Runs `k` consecutive slots in which nobody does anything (useful to
    /// model agreed-upon idle gaps; costs time but no energy).
    pub fn idle_slots(&mut self, k: u64) {
        self.meter.tick_by(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generators;

    fn actions<M: Payload>(list: Vec<(NodeId, Action<M>)>) -> HashMap<NodeId, Action<M>> {
        list.into_iter().collect()
    }

    #[test]
    fn single_transmitter_is_heard() {
        let g = generators::path(3); // 0-1-2
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let fb = net.step(&actions(vec![
            (0, Action::Transmit(42)),
            (1, Action::Listen),
            (2, Action::Listen),
        ]));
        assert_eq!(fb[&1], Feedback::Received(42));
        // Vertex 2 is not adjacent to 0: hears nothing.
        assert_eq!(fb[&2], Feedback::Nothing);
        assert_eq!(net.energy(0), 1);
        assert_eq!(net.energy(1), 1);
        assert_eq!(net.energy(2), 1);
        assert_eq!(net.slots(), 1);
    }

    #[test]
    fn two_transmitters_collide() {
        let g = generators::star(4); // center 0, leaves 1..3
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let fb = net.step(&actions(vec![
            (1, Action::Transmit(1)),
            (2, Action::Transmit(2)),
            (0, Action::Listen),
        ]));
        assert_eq!(fb[&0], Feedback::Nothing);
    }

    #[test]
    fn collision_detection_distinguishes_silence_and_noise() {
        let g = generators::star(4);
        let mut net: RadioNetwork<u64> =
            RadioNetwork::new(g).with_collision_detection(CollisionDetection::Receiver);
        // Noise: two leaves transmit.
        let fb = net.step(&actions(vec![
            (1, Action::Transmit(1)),
            (2, Action::Transmit(2)),
            (0, Action::Listen),
        ]));
        assert_eq!(fb[&0], Feedback::Noise);
        // Silence: nobody transmits.
        let fb = net.step(&actions(vec![(0, Action::Listen)]));
        assert_eq!(fb[&0], Feedback::Silence);
        // Reception still works.
        let fb = net.step(&actions(vec![
            (1, Action::Transmit(9)),
            (0, Action::Listen),
        ]));
        assert_eq!(fb[&0], Feedback::Received(9));
    }

    #[test]
    fn transmitter_does_not_hear_its_own_message() {
        let g = generators::path(2);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let fb = net.step(&actions(vec![
            (0, Action::Transmit(5)),
            (1, Action::Transmit(6)),
        ]));
        assert!(fb.is_empty());
    }

    #[test]
    fn idle_devices_spend_no_energy() {
        let g = generators::path(3);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        net.step(&actions(vec![(0, Action::Idle), (1, Action::Listen)]));
        net.step(&actions(vec![]));
        assert_eq!(net.energy(0), 0);
        assert_eq!(net.energy(1), 1);
        assert_eq!(net.energy(2), 0);
        assert_eq!(net.slots(), 2);
    }

    #[test]
    fn non_neighbors_do_not_interfere() {
        // 0-1 and 2-3 are separate edges; simultaneous transmissions on the
        // two edges are both received.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let fb = net.step(&actions(vec![
            (0, Action::Transmit(10)),
            (2, Action::Transmit(20)),
            (1, Action::Listen),
            (3, Action::Listen),
        ]));
        assert_eq!(fb[&1], Feedback::Received(10));
        assert_eq!(fb[&3], Feedback::Received(20));
    }

    #[test]
    fn message_budget_enforced() {
        let g = generators::path(2);
        let mut net: RadioNetwork<Vec<u8>> =
            RadioNetwork::new(g).with_message_budget(MessageBudget::Bits(16));
        // 2 bytes = 16 bits: fine.
        net.step(&actions(vec![
            (0, Action::Transmit(vec![1, 2])),
            (1, Action::Listen),
        ]));
        // 3 bytes = 24 bits: panics.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.step(&actions(vec![
                (0, Action::Transmit(vec![1, 2, 3])),
                (1, Action::Listen),
            ]));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn step_frame_matches_step_semantics() {
        // Same scenario through both entry points: identical feedback and
        // identical energy/time accounting.
        let g = generators::star(5); // hub 0, leaves 1..4
        type Scenario = (Vec<(NodeId, u64)>, Vec<NodeId>);
        let scenarios: Vec<Scenario> = vec![
            (vec![(1, 11)], vec![0, 2]),         // clean reception at the hub
            (vec![(1, 11), (2, 22)], vec![0]),   // collision at the hub
            (vec![], vec![0, 3]),                // silence
            (vec![(0, 7)], vec![0, 1, 2, 3, 4]), // transmitter also listed as listener
        ];
        for cd in [CollisionDetection::None, CollisionDetection::Receiver] {
            let mut a: RadioNetwork<u64> =
                RadioNetwork::new(g.clone()).with_collision_detection(cd);
            let mut b: RadioNetwork<u64> =
                RadioNetwork::new(g.clone()).with_collision_detection(cd);
            let mut frame: SlotFrame<u64> = SlotFrame::new(5);
            for (tx, listen) in &scenarios {
                let mut acts: HashMap<NodeId, Action<u64>> = HashMap::new();
                frame.clear();
                for &(v, m) in tx {
                    acts.insert(v, Action::Transmit(m));
                    frame.transmit.insert(v, m);
                }
                for &v in listen {
                    acts.entry(v).or_insert(Action::Listen);
                    frame.listen.insert(v);
                }
                let fb_map = a.step(&acts);
                b.step_frame(&mut frame);
                let mut from_map: Vec<(NodeId, Feedback<u64>)> = fb_map.into_iter().collect();
                from_map.sort_by_key(|&(v, _)| v);
                let from_frame: Vec<(NodeId, Feedback<u64>)> =
                    frame.feedback.iter().map(|(v, f)| (v, f.clone())).collect();
                assert_eq!(from_map, from_frame, "feedback diverged under {cd:?}");
            }
            assert_eq!(a.report(), b.report(), "energy accounting diverged");
        }
    }

    #[test]
    fn step_frame_paths_are_byte_identical() {
        // The adaptive dispatch must be invisible: scan and columnar agree
        // bit-for-bit on feedback, received index and energy, whatever the
        // CD mode. (The property suite fuzzes this on random graphs; this
        // pins the hand-picked collision/silence/overlap cases.)
        let g = generators::star(5);
        type Scenario = (Vec<(NodeId, u64)>, Vec<NodeId>);
        let scenarios: Vec<Scenario> = vec![
            (vec![(1, 11)], vec![0, 2]),
            (vec![(1, 11), (2, 22)], vec![0]),
            (vec![], vec![0, 3]),
            (vec![(0, 7)], vec![0, 1, 2, 3, 4]),
        ];
        for cd in [CollisionDetection::None, CollisionDetection::Receiver] {
            let mut a: RadioNetwork<u64> =
                RadioNetwork::new(g.clone()).with_collision_detection(cd);
            let mut b: RadioNetwork<u64> =
                RadioNetwork::new(g.clone()).with_collision_detection(cd);
            let mut fa: SlotFrame<u64> = SlotFrame::new(5);
            let mut fb = fa.clone();
            for (tx, listen) in &scenarios {
                fa.clear();
                for &(v, m) in tx {
                    fa.transmit.insert(v, m);
                }
                for &v in listen {
                    fa.listen.insert(v);
                }
                fb.clear();
                for &(v, m) in tx {
                    fb.transmit.insert(v, m);
                }
                for &v in listen {
                    fb.listen.insert(v);
                }
                a.step_frame_scan(&mut fa);
                b.step_frame_columnar(&mut fb);
                let va: Vec<_> = fa.feedback.iter().map(|(v, f)| (v, f.clone())).collect();
                let vb: Vec<_> = fb.feedback.iter().map(|(v, f)| (v, f.clone())).collect();
                assert_eq!(va, vb, "feedback diverged under {cd:?}");
                assert_eq!(fa.received, fb.received, "received index diverged");
            }
            assert_eq!(a.report(), b.report(), "energy accounting diverged");
        }
    }

    #[test]
    fn idle_slots_cost_time_not_energy() {
        let g = generators::path(2);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        net.idle_slots(10);
        assert_eq!(net.slots(), 10);
        assert_eq!(net.max_energy(), 0);
    }

    use radio_graph::Graph;
}
