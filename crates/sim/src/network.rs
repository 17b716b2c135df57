//! The synchronous radio channel: one slot of the radio-network model.

use std::sync::Arc;

use radio_graph::{Graph, NodeId};

use crate::energy::EnergyMeter;
use crate::frame::{NodeSet, SlotFrame};
use crate::model::{CollisionDetection, Feedback};

/// Reusable coverage buffers of the columnar delivery-resolution path of
/// [`RadioNetwork::step_frame`] and of [`RadioNetwork::step_transmitters`].
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

    /// Accumulates the coverage of `transmitters` — the reception rule: a
    /// device decodes iff exactly one neighbour transmits, i.e. iff it ends
    /// up in `covered_once` but not in `covered_twice`, and then it decodes
    /// `from`'s message. `O(occupied ranges + Σ deg(transmitter))`.
    fn cover(&mut self, graph: &Graph, transmitters: impl IntoIterator<Item = usize>) {
        let ResolveScratch {
            covered_once,
            covered_twice,
            from,
        } = self;
        covered_once.clear();
        covered_twice.clear();
        for t in transmitters {
            for &u in graph.neighbors(t) {
                if covered_once.insert(u) {
                    from[u] = t;
                } else {
                    covered_twice.insert(u);
                }
            }
        }
    }
}

/// A radio network instance: a topology, a collision-detection mode, and
/// the running energy meter.
///
/// The network is generic over the payload type `M` and puts no bound on
/// its size (`RN[∞]`, where the paper's lower bounds hold); how many bits a
/// protocol's messages take is the protocol's concern.
#[derive(Clone, Debug)]
pub struct RadioNetwork<M> {
    graph: Arc<Graph>,
    cd: CollisionDetection,
    meter: EnergyMeter,
    resolve: ResolveScratch,
    _payload: std::marker::PhantomData<M>,
}

impl<M: Clone> RadioNetwork<M> {
    /// Creates a network over `graph` with no collision detection.
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

    /// Executes one synchronous slot with per-listener feedback — the way
    /// the collision-detection Decay and [`run_devices`](crate::device::run_devices)
    /// run a slot.
    ///
    /// Transmitters and listeners come in as a [`SlotFrame`]; each
    /// transmitter and each listener is charged one unit, and every
    /// listener's feedback is written into `frame.feedback` (cleared on
    /// entry). A listener decodes iff exactly one neighbour transmits;
    /// otherwise it gets [`Feedback::Nothing`], or under receiver-side
    /// collision detection [`Feedback::Silence`] (no transmitter) or
    /// [`Feedback::Noise`] (two or more). Nodes in neither set idle and
    /// spend no energy; a node in both sets only transmits, and a
    /// transmitter gets no feedback about its own slot.
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
    /// Panics if the frame's universe differs from the network's node count.
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

    /// Charges every transmitter — the stage both resolution paths share.
    fn charge_transmitters(&mut self, frame: &SlotFrame<M>) {
        let n = self.num_nodes();
        assert_eq!(
            frame.listen.universe(),
            n,
            "slot frame universe does not match the network"
        );
        for v in frame.transmit.keys() {
            assert!(v < n, "device {v} out of range");
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
                (1, _) => Feedback::Received(heard.expect("one transmitter").clone()),
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
        self.charge_transmitters(frame);
        self.resolve
            .cover(&self.graph, frame.transmit.keys().iter());
        let RadioNetwork {
            cd, meter, resolve, ..
        } = self;
        let cd = *cd;
        let ResolveScratch {
            covered_once,
            covered_twice,
            from,
        } = resolve;
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

    /// Executes one slot from the transmitters' side — the way the no-CD
    /// Decay runs a slot. Each of `transmitters` is charged one unit, the
    /// clock advances, and `heard(v, t)` is called for every device `v`
    /// that exactly one transmitter `t` covers: by the same coverage kernel
    /// as [`RadioNetwork::step_frame_columnar`], exactly the devices that
    /// would decode `t`'s message if they listened. Transmitters covered by
    /// one other transmitter are reported too; they cannot listen, so the
    /// caller skips them.
    ///
    /// Nobody is charged for listening: the caller bills its listeners
    /// with [`RadioNetwork::charge_listening`], so a device that listens
    /// through many slots costs one charge instead of one per slot.
    /// `O(Σ deg(transmitter))` plus the coverage sets' occupied ranges,
    /// whatever the number of listeners.
    pub(crate) fn step_transmitters(
        &mut self,
        transmitters: &[usize],
        mut heard: impl FnMut(usize, usize),
    ) {
        for &t in transmitters {
            self.meter.charge_transmit(t);
        }
        self.meter.tick();
        self.resolve
            .cover(&self.graph, transmitters.iter().copied());
        let twice = &self.resolve.covered_twice;
        for &t in transmitters {
            for &u in self.graph.neighbors(t) {
                if !twice.contains(u) {
                    heard(u, t);
                }
            }
        }
    }

    /// Charges device `v` for listening through `slots` slots at once —
    /// the listening half of [`RadioNetwork::step_transmitters`].
    pub(crate) fn charge_listening(&mut self, v: usize, slots: u64) {
        self.meter.charge_listen_slots(v, slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generators;

    /// Runs one slot in which `transmit` transmit and `listen` listen, and
    /// returns the feedback the listeners got, in ascending node order.
    fn slot(
        net: &mut RadioNetwork<u64>,
        transmit: &[(NodeId, u64)],
        listen: &[NodeId],
    ) -> Vec<(NodeId, Feedback<u64>)> {
        let mut frame = SlotFrame::new(net.num_nodes());
        for &(v, m) in transmit {
            frame.transmit.insert(v, m);
        }
        frame.listen.extend(listen.iter().copied());
        net.step_frame(&mut frame);
        frame.feedback.iter().map(|(v, f)| (v, f.clone())).collect()
    }

    #[test]
    fn single_transmitter_is_heard() {
        let g = generators::path(3); // 0-1-2
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let fb = slot(&mut net, &[(0, 42)], &[1, 2]);
        // Vertex 2 is not adjacent to 0: hears nothing.
        assert_eq!(
            fb,
            vec![(1, Feedback::Received(42)), (2, Feedback::Nothing)]
        );
        assert_eq!(net.energy(0), 1);
        assert_eq!(net.energy(1), 1);
        assert_eq!(net.energy(2), 1);
        assert_eq!(net.slots(), 1);
        // A node listed as a listener too only transmits: no feedback, one
        // unit of energy.
        let fb = slot(&mut net, &[(0, 7)], &[0, 1, 2]);
        assert_eq!(fb, vec![(1, Feedback::Received(7)), (2, Feedback::Nothing)]);
        assert_eq!(net.meter().transmit_counts(), &[2, 0, 0]);
        assert_eq!(net.meter().listen_counts(), &[0, 2, 2]);
    }

    #[test]
    fn two_transmitters_collide() {
        let g = generators::star(4); // center 0, leaves 1..3
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let fb = slot(&mut net, &[(1, 1), (2, 2)], &[0]);
        assert_eq!(fb, vec![(0, Feedback::Nothing)]);
    }

    #[test]
    fn collision_detection_distinguishes_silence_and_noise() {
        let g = generators::star(4);
        let mut net: RadioNetwork<u64> =
            RadioNetwork::new(g).with_collision_detection(CollisionDetection::Receiver);
        // Noise: two leaves transmit.
        let fb = slot(&mut net, &[(1, 1), (2, 2)], &[0]);
        assert_eq!(fb, vec![(0, Feedback::Noise)]);
        // Silence: nobody transmits.
        let fb = slot(&mut net, &[], &[0]);
        assert_eq!(fb, vec![(0, Feedback::Silence)]);
        // Reception still works.
        let fb = slot(&mut net, &[(1, 9)], &[0]);
        assert_eq!(fb, vec![(0, Feedback::Received(9))]);
    }

    #[test]
    fn transmitter_does_not_hear_its_own_message() {
        let g = generators::path(2);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let fb = slot(&mut net, &[(0, 5), (1, 6)], &[]);
        assert!(fb.is_empty());
    }

    #[test]
    fn idle_devices_spend_no_energy() {
        let g = generators::path(3);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        slot(&mut net, &[], &[1]);
        slot(&mut net, &[], &[]);
        assert_eq!(net.energy(0), 0);
        assert_eq!(net.energy(1), 1);
        assert_eq!(net.energy(2), 0);
        assert_eq!(net.slots(), 2);
    }

    #[test]
    fn idle_slots_cost_time_not_energy() {
        let g = generators::path(2);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        for _ in 0..10 {
            slot(&mut net, &[], &[]);
        }
        assert_eq!(net.slots(), 10);
        assert_eq!(net.max_energy(), 0);
    }

    #[test]
    fn non_neighbors_do_not_interfere() {
        // 0-1 and 2-3 are separate edges; simultaneous transmissions on the
        // two edges are both received.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let fb = slot(&mut net, &[(0, 10), (2, 20)], &[1, 3]);
        assert_eq!(
            fb,
            vec![(1, Feedback::Received(10)), (3, Feedback::Received(20))]
        );
    }

    #[test]
    fn step_frame_paths_are_byte_identical() {
        // The adaptive dispatch must be invisible: scan and columnar agree
        // bit-for-bit on feedback and energy, whatever the CD mode. (The
        // property suite fuzzes this on random graphs; this pins the
        // hand-picked collision/silence/overlap cases.)
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
            for (tx, listen) in &scenarios {
                fa.clear();
                for &(v, m) in tx {
                    fa.transmit.insert(v, m);
                }
                fa.listen.extend(listen.iter().copied());
                let mut fb = fa.clone();
                a.step_frame_scan(&mut fa);
                b.step_frame_columnar(&mut fb);
                let va: Vec<_> = fa.feedback.iter().map(|(v, f)| (v, f.clone())).collect();
                let vb: Vec<_> = fb.feedback.iter().map(|(v, f)| (v, f.clone())).collect();
                assert_eq!(va, vb, "feedback diverged under {cd:?}");
            }
            assert_eq!(a.meter(), b.meter(), "energy accounting diverged");
        }
    }
}
