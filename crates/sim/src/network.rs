//! The synchronous radio channel: one slot of the radio-network model.

use std::sync::Arc;

use radio_graph::{Graph, NodeId};

use crate::energy::EnergyMeter;
use crate::frame::{NodeSet, SlotFrame};
use crate::model::{CollisionDetection, Feedback};

/// Reusable coverage buffers of the reception rule, shared by
/// [`RadioNetwork::step_frame`] and [`RadioNetwork::step_transmitters`].
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
    /// [`run_devices`](crate::device::run_devices) runs a slot, each device
    /// acting on what it heard in the last one.
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
    /// The transmitters' coverage is accumulated into covered-once and
    /// covered-twice bitsets (`O(Σ deg(transmitter))`), then the listeners
    /// are classified a `u64` word at a time over the listen set's
    /// occupied-word range: silence, unique delivery, or collision fall out
    /// of `listen & !transmit`, `once` and `twice` word combinations.
    ///
    /// Panics if the frame's universe differs from the network's node count.
    pub fn step_frame(&mut self, frame: &mut SlotFrame<M>) {
        let n = self.num_nodes();
        assert_eq!(
            frame.listen.universe(),
            n,
            "slot frame universe does not match the network"
        );
        frame.feedback.clear();
        for v in frame.transmit.keys() {
            assert!(v < n, "device {v} out of range");
            self.meter.charge_transmit(v);
        }
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
                meter.charge_listen(v, 1);
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

    /// Executes one slot from the transmitters' side — the way both Decay
    /// variants run their data slots. Each of `transmitters` is charged one
    /// unit, the clock advances, and `heard(v, from)` is called for every
    /// neighbour `v` of every transmitter, once per transmitter that covers
    /// it. By the reception rule of [`RadioNetwork::step_frame`] (the same
    /// coverage kernel decides it), `from` is `Some(t)` when `t` is `v`'s
    /// only transmitting neighbour, whose message `v` would decode if it
    /// listened, and `None` when two or more neighbours transmit. A device
    /// no transmitter covers would hear silence and is never reported.
    /// Transmitters covered by another transmitter are reported too; they
    /// cannot listen, so the caller skips them.
    ///
    /// Nobody is charged for listening: the caller bills its listeners
    /// with [`RadioNetwork::charge_listening`], so a device that listens
    /// through many slots costs one charge instead of one per slot.
    /// `O(Σ deg(transmitter))` plus the coverage sets' occupied ranges,
    /// whatever the number of listeners.
    pub(crate) fn step_transmitters(
        &mut self,
        transmitters: &[usize],
        mut heard: impl FnMut(usize, Option<usize>),
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
                heard(u, (!twice.contains(u)).then_some(t));
            }
        }
    }

    /// Charges one slot whose outcome the caller works out itself: each of
    /// `transmitters` transmits, each of `listeners` listens, and the clock
    /// advances — the collision-detection Decay's echo slot, in which a
    /// listening sender only learns whether any neighbour beacons.
    pub(crate) fn charge_slot(&mut self, transmitters: &NodeSet, listeners: &NodeSet) {
        for v in transmitters {
            self.meter.charge_transmit(v);
        }
        for v in listeners {
            self.meter.charge_listen(v, 1);
        }
        self.meter.tick();
    }

    /// Charges device `v` for listening through `slots` slots at once —
    /// the listening half of [`RadioNetwork::step_transmitters`].
    pub(crate) fn charge_listening(&mut self, v: usize, slots: u64) {
        self.meter.charge_listen(v, slots);
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
    fn transmitter_side_slot_reports_decodes_and_collisions() {
        // Path 0-1-2-3-4 with 1 and 3 transmitting: 0 and 4 decode their
        // only transmitting neighbour, 2 hears both (once per transmitter).
        let g = generators::path(5);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let mut heard = Vec::new();
        net.step_transmitters(&[1, 3], |v, from| heard.push((v, from)));
        heard.sort_unstable();
        assert_eq!(
            heard,
            vec![(0, Some(1)), (2, None), (2, None), (4, Some(3))]
        );
        // Transmitters pay and the clock ticks; nobody is charged for
        // listening until the caller bills it.
        assert_eq!(net.meter().transmit_counts(), &[0, 1, 0, 1, 0]);
        assert_eq!(net.meter().listen_counts(), &[0; 5]);
        assert_eq!(net.slots(), 1);
        net.charge_listening(0, 3);
        // An echo slot: 2 beacons while 1 and 3 listen, one more tick.
        let mut beacons = NodeSet::new(5);
        beacons.insert(2);
        let mut listeners = NodeSet::new(5);
        listeners.extend([1, 3]);
        net.charge_slot(&beacons, &listeners);
        assert_eq!(net.meter().transmit_counts(), &[0, 1, 1, 1, 0]);
        assert_eq!(net.meter().listen_counts(), &[3, 1, 0, 1, 0]);
        assert_eq!(net.slots(), 2);
    }

    #[test]
    fn step_frame_paths_are_byte_identical() {
        // A slot's two paths must agree bit-for-bit on feedback and energy,
        // whatever the CD mode: `step_frame` classifies its listeners, and
        // `step_transmitters` reports what the transmitters' neighbours
        // hear while the caller bills its listeners and reads silence off
        // the devices never reported. (The property suite checks
        // `step_frame` against the model on random graphs; this pins the
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
            let (silence, noise) = match cd {
                CollisionDetection::None => (Feedback::Nothing, Feedback::Nothing),
                CollisionDetection::Receiver => (Feedback::Silence, Feedback::Noise),
            };
            let mut a: RadioNetwork<u64> =
                RadioNetwork::new(g.clone()).with_collision_detection(cd);
            let mut b: RadioNetwork<u64> =
                RadioNetwork::new(g.clone()).with_collision_detection(cd);
            for (tx, listen) in &scenarios {
                let fa = slot(&mut a, tx, listen);
                let senders: Vec<NodeId> = tx.iter().map(|&(v, _)| v).collect();
                let mut heard = vec![Vec::new(); 5];
                b.step_transmitters(&senders, |v, from| heard[v].push(from));
                let mut fb = Vec::new();
                for &v in listen.iter().filter(|v| !senders.contains(v)) {
                    b.charge_listening(v, 1);
                    // Read the verdict as the Decays do: `Some(t)` decodes
                    // `t`'s message, `None` is a collision.
                    let f = match heard[v].first() {
                        None => silence.clone(),
                        Some(Some(t)) => {
                            Feedback::Received(tx[senders.iter().position(|u| u == t).unwrap()].1)
                        }
                        Some(None) => noise.clone(),
                    };
                    fb.push((v, f));
                }
                assert_eq!(fa, fb, "feedback diverged under {cd:?}");
            }
            assert_eq!(a.meter(), b.meter(), "energy accounting diverged");
        }
    }
}
