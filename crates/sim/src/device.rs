//! A per-device state-machine interface for round-by-round protocols.
//!
//! The higher-level algorithms in this repository are orchestrated at the
//! Local-Broadcast level (see `radio-protocols`), which is how the paper
//! itself reasons. This module provides the complementary, fully local view:
//! a [`Device`] decides an action each slot purely from its own state and
//! the feedback it has observed, and a [`run_devices`] loop drives an
//! arbitrary set of devices against the channel. It is used by the examples
//! (e.g. the steady-state polling scenario from the paper's introduction)
//! and by tests that validate the channel semantics end-to-end.

use std::collections::BTreeMap;

use radio_graph::NodeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::frame::{NodeSlots, SlotFrame};
use crate::model::{Action, Feedback};
use crate::network::RadioNetwork;

/// A device participating in a slot-by-slot protocol.
pub trait Device<M: Clone> {
    /// Decides the action for slot `slot`, given the feedback observed in
    /// the previous slot (`None` in slot 0 or if the device idled or
    /// transmitted).
    fn act(&mut self, slot: u64, prev_feedback: Option<&Feedback<M>>) -> Action<M>;

    /// Whether the device has halted. Halted devices idle forever.
    fn halted(&self) -> bool;
}

/// Runs a set of devices for at most `max_slots` slots or until all halt.
/// Returns the number of slots executed.
///
/// Each slot fills one reused [`SlotFrame`] from the devices' actions and
/// runs it through [`RadioNetwork::step_frame`]; the frame's feedback lane
/// is swapped out before the frame is refilled, so each device reads its
/// own entry of the previous slot's feedback without a copy.
///
/// Devices are polled in ascending node order each slot — `BTreeMap`
/// iteration order — so that a [`Device`] implementation drawing from a
/// seeded RNG shared across devices behaves identically on every run.
/// (With a `HashMap` the per-process-randomized iteration order would
/// permute the RNG stream across devices, the same determinism bug class
/// the Local-Broadcast layer fixed by iterating receivers in node order.)
pub fn run_devices<M: Clone, D: Device<M>>(
    net: &mut RadioNetwork<M>,
    devices: &mut BTreeMap<NodeId, D>,
    max_slots: u64,
) -> u64 {
    let n = net.num_nodes();
    let mut frame = SlotFrame::new(n);
    let mut last_feedback = NodeSlots::new(n);
    for slot in 0..max_slots {
        if devices.values().all(|d| d.halted()) {
            return slot;
        }
        std::mem::swap(&mut last_feedback, &mut frame.feedback);
        frame.clear();
        for (&v, dev) in devices.iter_mut() {
            if dev.halted() {
                continue;
            }
            match dev.act(slot, last_feedback.get(v)) {
                Action::Idle => {}
                Action::Listen => {
                    frame.listen.insert(v);
                }
                Action::Transmit(m) => frame.transmit.insert(v, m),
            }
        }
        net.step_frame(&mut frame);
    }
    max_slots
}

/// The steady-state dissemination scheme from the paper's introduction:
/// a device with BFS label `i` wakes only at slots `j·P + (i mod P)` to
/// listen for the alert; once it holds the alert it forwards it during the
/// slots in which the label-`(i+1)` devices listen.
///
/// Because several same-label devices may hold the alert simultaneously,
/// forwarding uses a small Decay-style backoff *across polling cycles*: in
/// each cycle a holder transmits in its forwarding slot with probability
/// `2^{−(1 + cycle mod L)}`, so that within `O(L)` cycles some slot has
/// exactly one transmitter in each listener's neighbourhood w.h.p. A holder
/// gives up (halts) after `2·L` forwarding cycles.
///
/// With polling period `P`, the alert's latency grows by a factor of
/// roughly `P` while per-device energy — awake slots — is independent of
/// `P` (each device listens at most once per cycle), which is the
/// latency-for-energy trade the paper's introduction describes
/// (experiment E14).
#[derive(Clone, Debug)]
pub struct PollingDevice {
    /// BFS label of this device.
    pub label: u64,
    /// Polling period `P` (at least 2).
    pub period: u64,
    /// The message held (devices at label 0 start with it).
    pub message: Option<u64>,
    /// Slot horizon after which the device halts.
    pub deadline: u64,
    /// Slot at which the message was first received (0 for the source).
    pub received_at: Option<u64>,
    /// Number of decay levels in the forwarding backoff.
    decay_levels: u64,
    /// Forwarding cycles used so far.
    forward_cycles: u64,
    rng: ChaCha8Rng,
}

impl PollingDevice {
    /// Creates a device with BFS label `label`, polling period `period`, and
    /// a halting deadline of `deadline` slots. `initial_message` seeds the
    /// label-0 source.
    pub fn new(label: u64, period: u64, deadline: u64, initial_message: Option<u64>) -> Self {
        PollingDevice {
            label,
            period: period.max(2),
            message: initial_message,
            deadline,
            received_at: if initial_message.is_some() {
                Some(0)
            } else {
                None
            },
            decay_levels: 6,
            forward_cycles: 0,
            rng: ChaCha8Rng::seed_from_u64(label.wrapping_mul(0x9e3779b97f4a7c15) ^ deadline),
        }
    }

    /// Overrides the RNG seed (so that simulations are reproducible per
    /// device rather than per label).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self
    }

    /// Maximum number of forwarding cycles before the device gives up.
    fn max_forward_cycles(&self) -> u64 {
        8 * self.decay_levels
    }
}

impl Device<u64> for PollingDevice {
    fn act(&mut self, slot: u64, prev_feedback: Option<&Feedback<u64>>) -> Action<u64> {
        // Record a reception from the previous slot.
        if self.message.is_none() {
            if let Some(Feedback::Received(m)) = prev_feedback {
                self.message = Some(*m);
                self.received_at = Some(slot.saturating_sub(1));
            }
        }
        if self.halted() || slot >= self.deadline {
            return Action::Idle;
        }
        let phase = slot % self.period;
        // Waiting for the alert: listen only in this label's polling slot.
        if self.message.is_none() {
            if phase == self.label % self.period {
                return Action::Listen;
            }
            return Action::Idle;
        }
        // Holding the alert: forward it in the slot where label-(i+1)
        // devices listen, with a Decay-style per-cycle backoff.
        if phase == (self.label + 1) % self.period {
            self.forward_cycles += 1;
            let level = 1 + (self.forward_cycles - 1) % self.decay_levels;
            let p = 0.5_f64.powi(level as i32);
            if self.rng.gen_bool(p) {
                return Action::Transmit(self.message.expect("message present"));
            }
        }
        Action::Idle
    }

    fn halted(&self) -> bool {
        self.message.is_some() && self.forward_cycles >= self.max_forward_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::bfs::bfs_distances;
    use radio_graph::generators;

    fn devices_for(
        g: &radio_graph::Graph,
        labels: &[radio_graph::Dist],
        period: u64,
        deadline: u64,
        source: usize,
    ) -> BTreeMap<NodeId, PollingDevice> {
        g.nodes()
            .map(|v| {
                let msg = if v == source { Some(77) } else { None };
                (
                    v,
                    PollingDevice::new(labels[v] as u64, period, deadline, msg)
                        .with_seed(1000 + v as u64),
                )
            })
            .collect()
    }

    #[test]
    fn polling_devices_propagate_along_a_path() {
        let g = generators::path(8);
        let labels = bfs_distances(&g, 0);
        let period = 4u64;
        let deadline = 4000u64;
        let mut devices = devices_for(&g, &labels, period, deadline, 0);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
        run_devices(&mut net, &mut devices, deadline);
        for v in g.nodes() {
            assert_eq!(
                devices[&v].message,
                Some(77),
                "vertex {v} never got the message"
            );
        }
        // Per-device energy stays far below the always-on cost (≈ latency):
        // each device listens at most once per cycle until it receives, and
        // transmits at most 2·L times.
        let latency = g
            .nodes()
            .filter_map(|v| devices[&v].received_at)
            .max()
            .unwrap();
        for v in g.nodes() {
            assert!(
                net.energy(v) <= latency / period + 8 * 6 + 2,
                "vertex {v} used {} slots of energy (latency {latency})",
                net.energy(v)
            );
        }
    }

    #[test]
    fn polling_devices_propagate_on_a_dense_star_despite_collisions() {
        // All leaves share the same label, so forwarding contends; the decay
        // backoff must still deliver the alert from the center to every leaf
        // and onwards is irrelevant (leaves have no further neighbours).
        let g = generators::star(40);
        let labels = bfs_distances(&g, 0);
        let deadline = 2000u64;
        let mut devices = devices_for(&g, &labels, 4, deadline, 0);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
        run_devices(&mut net, &mut devices, deadline);
        let informed = g.nodes().filter(|&v| devices[&v].message.is_some()).count();
        assert_eq!(informed, 40);
    }

    #[test]
    fn polling_devices_propagate_on_a_grid() {
        let g = generators::grid(6, 6);
        let labels = bfs_distances(&g, 0);
        let deadline = 6000u64;
        let mut devices = devices_for(&g, &labels, 8, deadline, 0);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
        run_devices(&mut net, &mut devices, deadline);
        let informed = g.nodes().filter(|&v| devices[&v].message.is_some()).count();
        assert!(
            informed >= 34,
            "only {informed}/36 grid sensors received the alert"
        );
    }

    #[test]
    fn larger_period_costs_latency_not_energy() {
        let g = generators::path(10);
        let labels = bfs_distances(&g, 0);
        let mut results = Vec::new();
        for period in [2u64, 16u64] {
            let deadline = 20_000u64;
            let mut devices = devices_for(&g, &labels, period, deadline, 0);
            let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
            run_devices(&mut net, &mut devices, deadline);
            assert!(g.nodes().all(|v| devices[&v].message.is_some()));
            let latency = g
                .nodes()
                .filter_map(|v| devices[&v].received_at)
                .max()
                .unwrap();
            results.push((latency, net.max_energy()));
        }
        let (lat_small, energy_small) = results[0];
        let (lat_large, energy_large) = results[1];
        // Latency grows with the period...
        assert!(lat_large > lat_small);
        // ...while energy stays in the same ballpark (within 2x).
        assert!(energy_large <= 2 * energy_small.max(8));
    }

    #[test]
    fn run_devices_stops_when_all_halt() {
        let g = generators::path(2);
        let mut devices: BTreeMap<NodeId, PollingDevice> =
            [(0usize, PollingDevice::new(0, 2, 50_000, Some(1)))]
                .into_iter()
                .collect();
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let slots = run_devices(&mut net, &mut devices, 50_000);
        assert!(
            slots < 50_000,
            "source should halt after its forwarding budget"
        );
    }

    /// A device that plays a fixed action script and records the feedback
    /// it is handed each slot.
    struct Scripted {
        script: Vec<Action<u64>>,
        seen: Vec<Option<Feedback<u64>>>,
    }

    impl Device<u64> for Scripted {
        fn act(&mut self, slot: u64, prev: Option<&Feedback<u64>>) -> Action<u64> {
            self.seen.push(prev.cloned());
            self.script[slot as usize].clone()
        }

        fn halted(&self) -> bool {
            false
        }
    }

    #[test]
    fn run_devices_hands_each_device_the_previous_slots_feedback() {
        // A collision-detection star: the hub hears silence, then one leaf,
        // then both. Every verdict must reach the device one slot late, and
        // a device that transmitted or idled must be handed nothing.
        use crate::model::CollisionDetection;
        use Action::{Idle, Listen, Transmit};
        use Feedback::{Noise, Received, Silence};
        let g = generators::star(3); // hub 0, leaves 1 and 2
        let scripts = [
            vec![Listen, Listen, Listen, Idle, Idle],
            vec![Idle, Transmit(11), Transmit(12), Listen, Idle],
            vec![Listen, Idle, Transmit(22), Idle, Idle],
        ];
        let mut devices: BTreeMap<NodeId, Scripted> = scripts
            .into_iter()
            .enumerate()
            .map(|(v, script)| {
                let seen = Vec::new();
                (v, Scripted { script, seen })
            })
            .collect();
        let mut net: RadioNetwork<u64> =
            RadioNetwork::new(g).with_collision_detection(CollisionDetection::Receiver);
        assert_eq!(run_devices(&mut net, &mut devices, 5), 5);
        assert_eq!(
            devices[&0].seen,
            vec![None, Some(Silence), Some(Received(11)), Some(Noise), None]
        );
        assert_eq!(
            devices[&1].seen,
            vec![None, None, None, None, Some(Silence)]
        );
        assert_eq!(
            devices[&2].seen,
            vec![None, Some(Silence), None, None, None]
        );
        assert_eq!(net.meter().listen_counts(), &[3, 1, 1]);
        assert_eq!(net.meter().transmit_counts(), &[0, 2, 1]);
        assert_eq!(net.slots(), 5);
    }

    /// A device that draws from an RNG *shared* across all devices (via a
    /// per-run clone of the same seed): only the ascending polling order of
    /// `run_devices` makes its behaviour reproducible.
    struct SharedRngDevice {
        rng: std::rc::Rc<std::cell::RefCell<ChaCha8Rng>>,
        transmissions: u64,
        heard: Vec<u64>,
    }

    impl Device<u64> for SharedRngDevice {
        fn act(&mut self, _slot: u64, prev: Option<&Feedback<u64>>) -> Action<u64> {
            if let Some(Feedback::Received(m)) = prev {
                self.heard.push(*m);
            }
            let x: u64 = self.rng.borrow_mut().gen_range(0u64..100);
            if x < 30 {
                self.transmissions += 1;
                Action::Transmit(x)
            } else {
                Action::Listen
            }
        }

        fn halted(&self) -> bool {
            false
        }
    }

    #[test]
    fn run_devices_is_deterministic_across_repeated_runs() {
        // Same seeds, two runs: identical energy meters, transmission
        // counts, and reception logs — even though every device draws from
        // one shared RNG, whose stream order is fixed by the ascending
        // iteration of run_devices.
        let g = generators::grid(4, 4);
        let run = || {
            let shared = std::rc::Rc::new(std::cell::RefCell::new(ChaCha8Rng::seed_from_u64(42)));
            let mut devices: BTreeMap<NodeId, SharedRngDevice> = g
                .nodes()
                .map(|v| {
                    (
                        v,
                        SharedRngDevice {
                            rng: shared.clone(),
                            transmissions: 0,
                            heard: Vec::new(),
                        },
                    )
                })
                .collect();
            let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
            let slots = run_devices(&mut net, &mut devices, 200);
            let log: Vec<(u64, Vec<u64>)> = devices
                .values()
                .map(|d| (d.transmissions, d.heard.clone()))
                .collect();
            (net.meter().clone(), slots, log)
        };
        assert_eq!(run(), run(), "repeated seeded runs diverged");
    }
}
