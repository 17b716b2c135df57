//! The Decay-based Local-Broadcast primitive (paper, Lemma 2.4).
//!
//! **Local-Broadcast**: given disjoint vertex sets `S` (senders, each
//! holding a message) and `R` (receivers), guarantee that every `v ∈ R`
//! with at least one neighbour in `S` receives *some* neighbour's message
//! with probability `1 − f`.
//!
//! The implementation follows the proof of Lemma 2.4: the protocol runs
//! `O(log f⁻¹)` iterations of `⌈log₂ Δ⌉` slots; in each iteration every
//! sender picks a slot `X_u ∈ [1, log Δ]` with `P(X_u = t) ≥ 2^{−t}` and
//! transmits only in that slot. If the number of senders adjacent to a
//! receiver is in `[2^{t−1}, 2^t]`, then in slot `t` of every iteration the
//! receiver hears a message with constant probability. Receivers stop
//! listening as soon as they have heard something (this is what gives the
//! `O(log Δ)` expected energy for receivers with a sending neighbour);
//! receivers with no sending neighbour listen through all
//! `O(log Δ · log f⁻¹)` slots.
//!
//! The call operates on a reusable [`RoundFrame`]: senders and receivers go
//! in, deliveries come out in `frame.delivered()`, and a [`DecayScratch`]
//! carries the per-call buffers so that repeated calls (the normal case —
//! every higher-level protocol is a long sequence of Local-Broadcasts)
//! allocate nothing. Senders draw their decay slots in ascending node order
//! — the order [`NodeSlots`](crate::frame::NodeSlots) iterates by
//! construction — so the RNG stream maps to devices deterministically
//! without any per-call sort.
//!
//! Both [`decay_local_broadcast`] and its collision-detection form
//! [`decay_local_broadcast_cd`] resolve each slot from its transmitters'
//! side. What a receiver learns from a *data slot* (one in which senders
//! transmit; the CD form adds an echo slot per iteration) — the message it
//! decodes, and under collision detection whether any neighbour
//! transmitted at all — is decided by that slot's transmitters'
//! neighbourhoods, so each data slot runs through
//! `RadioNetwork::step_transmitters`, which walks only those. Each
//! receiver's listening is billed once per call: every data slot up to and
//! including the one in which it heard or got its verdict, or every data
//! slot of the call if it never did. A no-CD call then costs
//! `O(iterations · (|S| + Σ_{s ∈ S} deg(s)) + |R|)` host work rather than
//! one pass over the listeners per slot; a CD call adds one pass per
//! iteration over the unresolved receivers' words. RNG draws, deliveries,
//! verdicts and meters are those of a slot-by-slot run.

use rand::Rng;

use crate::frame::{NodeSet, RoundFrame};
use crate::model::{CollisionDetection, LbFeedback};
use crate::network::RadioNetwork;

/// Parameters of one Local-Broadcast execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecayParams {
    /// An upper bound `Δ` on the maximum degree (the paper allows any bound
    /// `Δ ≤ n − 1`; using the true maximum degree is always safe).
    pub max_degree: usize,
    /// Target failure probability `f` per receiver with a sending
    /// neighbour. The paper always uses `f = 1/poly(n)`.
    pub failure_prob: f64,
}

impl DecayParams {
    /// Conventional parameters: `Δ` = the graph's maximum degree and
    /// `f = n^{-3}`.
    pub fn for_network(n: usize, max_degree: usize) -> Self {
        let n = n.max(2) as f64;
        DecayParams {
            max_degree: max_degree.max(1),
            failure_prob: n.powi(-3),
        }
    }

    /// Weight-ratio-aware parameters (the paper's "other energy models"
    /// discussion): on a skewed radio — listen-heavy like `w4l1t` or
    /// transmit-heavy like `w1l4t` — every extra decay iteration costs the
    /// expensive side `⌈log₂ Δ⌉ + 1` weighted slots, so the conventional
    /// `f = n^{-3}` over-insures. This relaxes the failure exponent from
    /// `3` toward `3/ratio` (floored at `1.5`, still `1/poly(n)` and far
    /// below any per-call delivery the sweeps observe), cutting iterations
    /// — and therefore max weighted energy — roughly in proportion to the
    /// skew. On a uniform radio (`ratio = 1`) it is exactly
    /// [`DecayParams::for_network`], so tuning is a strict no-op where
    /// there is nothing to trade.
    pub fn for_energy_model(n: usize, max_degree: usize, model: crate::EnergyModel) -> Self {
        let ratio = match model {
            crate::EnergyModel::Uniform => 1.0,
            crate::EnergyModel::Weighted { listen, transmit } => {
                let (listen, transmit) = (listen.max(1) as f64, transmit.max(1) as f64);
                (listen.max(transmit)) / (listen.min(transmit))
            }
        };
        if ratio <= 1.0 {
            return DecayParams::for_network(n, max_degree);
        }
        let exponent = (3.0 / ratio).max(1.5);
        let n = n.max(2) as f64;
        DecayParams {
            max_degree: max_degree.max(1),
            failure_prob: n.powf(-exponent),
        }
    }

    /// Number of slots per decay iteration: `⌈log₂ Δ⌉ + 1` (at least 1), so
    /// that every sender-count in `[1, Δ]` has a matching slot.
    pub fn slots_per_iteration(&self) -> usize {
        ((self.max_degree.max(1) as f64).log2().ceil() as usize) + 1
    }

    /// Number of iterations: `⌈c · ln(1/f)⌉` with the constant calibrated to
    /// the constant per-iteration success probability of the decay step
    /// (each iteration succeeds with probability at least ≈ 1/(2e) for a
    /// receiver with a sending neighbour).
    pub fn iterations(&self) -> usize {
        let f = self.failure_prob.clamp(1e-18, 0.5);
        // Per-iteration success ≥ p0; need (1 - p0)^k ≤ f.
        let p0 = 0.18_f64;
        ((1.0 / f).ln() / (1.0 / (1.0 - p0)).ln()).ceil() as usize
    }

    /// Total number of slots one Local-Broadcast occupies.
    pub fn total_slots(&self) -> usize {
        self.slots_per_iteration() * self.iterations()
    }
}

/// Reusable buffers for [`decay_local_broadcast`] and
/// [`decay_local_broadcast_cd`], so that repeated calls allocate nothing.
#[derive(Clone, Debug)]
pub struct DecayScratch {
    /// `buckets[t]` lists the senders that picked slot `t` this iteration,
    /// in ascending node order (bucket 0 is unused — slots are 1-based).
    /// Bucketing the schedule once per iteration lets each slot touch only
    /// its own transmitters instead of re-scanning every sender per slot.
    buckets: Vec<Vec<usize>>,
    /// For a receiver that stopped listening this call, the number of data
    /// slots it listened through: up to and including the one in which it
    /// heard or got its verdict. Entries of other devices are stale and
    /// never read.
    heard_at: Vec<u64>,
    /// CD variant only: senders that still have unresolved receivers nearby.
    active_senders: NodeSet,
    /// CD variant only: receivers that heard activity this iteration.
    heard_activity: NodeSet,
    /// The receivers still listening: those that have not heard (no-CD),
    /// or have no verdict yet (CD).
    pending: NodeSet,
}

impl DecayScratch {
    /// Scratch buffers for a network of `n` devices.
    pub fn new(n: usize) -> Self {
        DecayScratch {
            buckets: Vec::new(),
            heard_at: vec![0; n],
            active_senders: NodeSet::new(n),
            heard_activity: NodeSet::new(n),
            pending: NodeSet::new(n),
        }
    }
}

/// Draws one iteration's schedule: each of `senders`, in ascending node
/// order, picks its transmission slot, and the picks are bucketed by slot.
/// Returns the buckets of slots `1..=levels`, each in ascending node order.
/// Iterating a [`NodeSet`] is ascending by construction, so the RNG stream
/// maps to devices deterministically with no sort (the draw order is a
/// pinned contract).
fn draw_schedule<'a, R: Rng + ?Sized>(
    buckets: &'a mut Vec<Vec<usize>>,
    senders: &NodeSet,
    levels: usize,
    rng: &mut R,
) -> &'a [Vec<usize>] {
    if buckets.len() <= levels {
        buckets.resize_with(levels + 1, Vec::new);
    }
    for bucket in &mut buckets[..=levels] {
        bucket.clear();
    }
    for u in senders {
        buckets[sample_decay_slot(levels, rng)].push(u);
    }
    &buckets[1..=levels]
}

/// Samples the decay slot: `P(X = t) = 2^{−t}` for `t < L`, with the
/// remaining mass on `t = L` (so `P(X = t) ≥ 2^{−t}` for every `t ≤ L`,
/// matching the lemma's requirement).
pub fn sample_decay_slot<R: Rng + ?Sized>(levels: usize, rng: &mut R) -> usize {
    debug_assert!(levels >= 1);
    for t in 1..levels {
        if rng.gen_bool(0.5) {
            return t;
        }
    }
    levels
}

/// Executes one Local-Broadcast on the physical radio network.
///
/// `frame.senders()` maps each sender to its message; `frame.receivers()`
/// is the receiver set. The two sets should be disjoint (senders found in
/// the receiver set are ignored as receivers). Devices outside both sets
/// idle and spend no energy. Deliveries are written into
/// `frame.delivered()` (cleared on entry, first message heard wins);
/// returns the number of channel slots the call occupied.
///
/// Every receiver listens from the first slot until it decodes a message
/// and then sleeps (Lemma 2.4's expected-energy saving); the meter is
/// charged exactly as if each slot had run through
/// [`RadioNetwork::step_frame`] with the unserved receivers listening, but
/// each slot only walks its transmitters' neighbourhoods (see the module
/// docs).
pub fn decay_local_broadcast<M: Clone, R: Rng + ?Sized>(
    net: &mut RadioNetwork<M>,
    frame: &mut RoundFrame<M>,
    scratch: &mut DecayScratch,
    params: DecayParams,
    rng: &mut R,
) -> u64 {
    assert_eq!(
        frame.num_nodes(),
        net.num_nodes(),
        "frame universe mismatch"
    );
    let levels = params.slots_per_iteration();
    let iterations = params.iterations();
    frame.clear_delivered();
    let (senders, receivers, delivered, _) = frame.parts_mut();
    let DecayScratch {
        buckets,
        heard_at,
        pending,
        ..
    } = scratch;
    // The receivers still listening: receivers − senders, less each one
    // as it hears.
    pending.copy_from(receivers);
    pending.difference_with(senders.keys());
    let mut slots_used = 0u64;

    for _ in 0..iterations {
        for transmitters in draw_schedule(buckets, senders.keys(), levels, rng) {
            slots_used += 1;
            net.step_transmitters(transmitters, |v, from| {
                if let Some(t) = from {
                    if pending.remove(v) {
                        delivered.insert(v, senders.get(t).expect("occupied sender").clone());
                        heard_at[v] = slots_used;
                    }
                }
            });
        }
    }

    // Listening, billed once per receiver: through the slot in which it
    // heard, or through every slot of the call.
    for v in delivered.keys() {
        net.charge_listening(v, heard_at[v]);
    }
    for v in pending.iter() {
        net.charge_listening(v, slots_used);
    }
    slots_used
}

/// The collision-detection-aware Local-Broadcast: Decay plus early
/// termination driven by receiver-side CD.
///
/// Requires the network to run with [`CollisionDetection::Receiver`]
/// (panics otherwise). Two observations turn CD feedback into energy and
/// time savings without weakening the Lemma 2.4 delivery guarantee:
///
/// 1. **Silent iteration ⇒ no sending neighbour.** Every sender transmits
///    in exactly one slot per iteration, so a receiver that hears
///    [`Feedback::Silence`](crate::model::Feedback::Silence) in *every*
///    slot of one full iteration provably has no active sending neighbour
///    and sleeps for the rest of the call.
///    (Without CD it cannot distinguish silence from collisions and must
///    listen through all `O(log Δ · log f⁻¹)` slots.)
/// 2. **Echo slot ⇒ local sender termination.** Each iteration ends with
///    one extra slot in which every still-unresolved receiver transmits a
///    beacon and every active sender listens. A sender that hears silence
///    has no unresolved receiver left in its neighbourhood — the only
///    receivers it could ever serve — and retires. Once every sender has
///    retired the whole call ends. The echo costs each active sender one
///    listening slot and each unresolved receiver one transmission per
///    iteration, far below what the saved iterations would have cost.
///
/// The two rules interlock soundly: a sender only retires when no
/// *unresolved* neighbouring receiver remains, so an unresolved receiver
/// always keeps all of its sending neighbours active, and its silent-
/// iteration inference (rule 1) never fires spuriously.
///
/// Per-receiver verdicts are recorded in the frame's feedback lane:
/// [`LbFeedback::Delivered`], [`LbFeedback::Silence`] (no sending
/// neighbour), or [`LbFeedback::Noise`] (activity heard but nothing decoded
/// by the end of the call). Returns the number of channel slots used.
///
/// Slots are resolved from the transmitters' side (see the module docs): a
/// data slot can only change the state of its transmitters' unresolved
/// neighbours, and the echo slot only that of the active senders, each of
/// which hears a beacon iff an unresolved receiver is its neighbour. The
/// meter is charged exactly as if every slot had run through
/// [`RadioNetwork::step_frame`].
pub fn decay_local_broadcast_cd<M: Clone, R: Rng + ?Sized>(
    net: &mut RadioNetwork<M>,
    frame: &mut RoundFrame<M>,
    scratch: &mut DecayScratch,
    params: DecayParams,
    rng: &mut R,
) -> u64 {
    assert_eq!(
        frame.num_nodes(),
        net.num_nodes(),
        "frame universe mismatch"
    );
    assert_eq!(
        net.collision_detection(),
        CollisionDetection::Receiver,
        "decay_local_broadcast_cd requires receiver-side collision detection"
    );
    let levels = params.slots_per_iteration();
    let iterations = params.iterations();
    frame.clear_delivered();
    let (senders, receivers, delivered, feedback) = frame.parts_mut();
    let DecayScratch {
        buckets,
        heard_at,
        active_senders,
        heard_activity,
        pending,
    } = scratch;
    active_senders.copy_from(senders.keys());
    // The unresolved receivers: receivers − senders, less each one as its
    // verdict lands.
    pending.copy_from(receivers);
    pending.difference_with(senders.keys());
    let (mut data_slots, mut echo_slots) = (0u64, 0u64);

    for _ in 0..iterations {
        // Stop once every sender has retired AND every receiver is
        // resolved. A sender-less call with unresolved receivers still runs
        // one all-silent iteration, so those receivers earn an honest
        // `Silence` verdict by listening — matching the abstract CD
        // backend's verdict for the same call — rather than being
        // misreported as `Noise` by the fallback below.
        if active_senders.is_empty() && pending.is_empty() {
            break;
        }
        heard_activity.clear();
        for transmitters in draw_schedule(buckets, active_senders, levels, rng) {
            data_slots += 1;
            // An unresolved receiver a transmitter covers hears activity:
            // a message if it is covered once, noise otherwise. The rest
            // hear silence.
            net.step_transmitters(transmitters, |v, from| {
                if !pending.contains(v) {
                    return;
                }
                heard_activity.insert(v);
                if let Some(t) = from {
                    pending.remove(v);
                    delivered.insert(v, senders.get(t).expect("occupied sender").clone());
                    feedback.insert(v, LbFeedback::Delivered);
                    heard_at[v] = data_slots;
                }
            });
        }
        // Rule 1: an unresolved receiver that heard silence in every slot of
        // this iteration has no active sending neighbour — and since senders
        // only retire once all their neighbouring receivers are resolved, no
        // sending neighbour at all.
        pending.retain(|v| {
            let heard = heard_activity.contains(v);
            if !heard {
                feedback.insert(v, LbFeedback::Silence);
                heard_at[v] = data_slots;
            }
            heard
        });
        // Rule 2 (echo slot): unresolved receivers beacon, active senders
        // listen; silence retires the sender. With no senders left to
        // retire the slot would be pure dead air — skip it.
        if active_senders.is_empty() {
            continue;
        }
        net.charge_slot(pending, active_senders);
        echo_slots += 1;
        let graph = net.graph();
        active_senders.retain(|u| graph.neighbors(u).iter().any(|&v| pending.contains(v)));
    }

    // Receivers still unresolved after all iterations heard activity they
    // could never decode (persistent collisions — a 1/poly(n) tail event).
    for v in pending.iter() {
        feedback.insert(v, LbFeedback::Noise);
        heard_at[v] = data_slots;
    }
    // Listening, billed once per receiver: every data slot through the one
    // of its verdict. In echo slots receivers beacon, and `charge_slot`
    // billed them.
    for v in feedback.keys() {
        net.charge_listening(v, heard_at[v]);
    }
    data_slots + echo_slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NodeSlots;
    use radio_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Runs one [`decay_local_broadcast`] on a fresh frame and scratch and
    /// returns the deliveries and the slots used.
    fn broadcast_once(
        net: &mut RadioNetwork<u64>,
        senders: &[(usize, u64)],
        receivers: &[usize],
        params: DecayParams,
        rng: &mut ChaCha8Rng,
    ) -> (NodeSlots<u64>, u64) {
        let mut frame = RoundFrame::new(net.num_nodes());
        let mut scratch = DecayScratch::new(net.num_nodes());
        for &(v, m) in senders {
            frame.add_sender(v, m);
        }
        for &v in receivers {
            frame.add_receiver(v);
        }
        let slots = decay_local_broadcast(net, &mut frame, &mut scratch, params, rng);
        let mut out = NodeSlots::new(net.num_nodes());
        frame.swap_delivered(&mut out);
        (out, slots)
    }

    #[test]
    fn decay_slot_distribution_is_geometric_ish() {
        let mut r = rng(1);
        let levels = 6;
        let k = 60_000;
        let mut counts = vec![0usize; levels + 1];
        for _ in 0..k {
            counts[sample_decay_slot(levels, &mut r)] += 1;
        }
        // P(1) ≈ 1/2, P(2) ≈ 1/4, and P(t) ≥ 2^-t for all t.
        assert!((counts[1] as f64 / k as f64 - 0.5).abs() < 0.02);
        assert!((counts[2] as f64 / k as f64 - 0.25).abs() < 0.02);
        for (t, &count) in counts.iter().enumerate().take(levels + 1).skip(1) {
            let p = count as f64 / k as f64;
            assert!(p >= 0.9 * 2f64.powi(-(t as i32)), "slot {t} too rare: {p}");
        }
    }

    #[test]
    fn single_sender_single_receiver_always_delivers() {
        let g = generators::path(2);
        let mut r = rng(2);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let params = DecayParams::for_network(2, 1);
        let (out, _) = broadcast_once(&mut net, &[(0, 99u64)], &[1], params, &mut r);
        assert_eq!(out.get(1), Some(&99));
    }

    #[test]
    fn receiver_with_no_sending_neighbor_hears_nothing_and_pays_full_price() {
        // Path 0-1-2-3: sender 0, receivers {1, 3}. Vertex 3 is not adjacent
        // to 0, hears nothing, and listens for every slot.
        let g = generators::path(4);
        let mut r = rng(3);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let params = DecayParams {
            max_degree: 2,
            failure_prob: 1e-6,
        };
        let (out, _) = broadcast_once(&mut net, &[(0, 7u64)], &[1, 3], params, &mut r);
        assert_eq!(out.get(1), Some(&7));
        assert_eq!(out.get(3), None);
        assert_eq!(net.energy(3), params.total_slots() as u64);
        // The successful receiver stops early: strictly less energy than the
        // hopeless one (with overwhelming probability for these many slots).
        assert!(net.energy(1) < net.energy(3));
        // Sender energy is exactly one transmission per iteration.
        assert_eq!(net.energy(0), params.iterations() as u64);
        // Idle vertex 2 pays nothing.
        assert_eq!(net.energy(2), 0);
    }

    #[test]
    fn many_senders_still_deliver_to_hub_whp() {
        // Star: all leaves send, the hub must hear at least one despite
        // collisions. Repeat over several seeds, reusing one frame and one
        // scratch across all runs (the reuse discipline hot paths follow).
        let n = 65;
        let g = generators::star(n);
        let params = DecayParams::for_network(n, n - 1);
        let mut frame: RoundFrame<u64> = RoundFrame::new(n);
        let mut scratch: DecayScratch = DecayScratch::new(n);
        let mut failures = 0;
        for seed in 0..20 {
            let mut r = rng(100 + seed);
            let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
            frame.clear();
            for v in 1..n {
                frame.add_sender(v, v as u64);
            }
            frame.add_receiver(0);
            decay_local_broadcast(&mut net, &mut frame, &mut scratch, params, &mut r);
            if !frame.delivered().contains(0) {
                failures += 1;
            }
        }
        assert_eq!(failures, 0, "local broadcast failed under contention");
    }

    #[test]
    fn slots_used_matches_parameter_formula() {
        let g = generators::path(3);
        let mut r = rng(5);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let params = DecayParams {
            max_degree: 4,
            failure_prob: 1e-4,
        };
        let (_, slots) = broadcast_once(&mut net, &[(0, 1u64)], &[1], params, &mut r);
        assert_eq!(slots, params.total_slots() as u64);
        assert_eq!(net.slots(), params.total_slots() as u64);
    }

    #[test]
    fn sender_energy_is_logarithmic_in_failure_probability() {
        let cheap = DecayParams {
            max_degree: 8,
            failure_prob: 1e-2,
        };
        let strict = DecayParams {
            max_degree: 8,
            failure_prob: 1e-8,
        };
        assert!(strict.iterations() > cheap.iterations());
        // Growth should be roughly 4x (log-linear), certainly not 100x.
        assert!(strict.iterations() < 8 * cheap.iterations());
    }

    #[test]
    fn disjoint_sender_receiver_components_do_not_interact() {
        let g = radio_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut r = rng(6);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let params = DecayParams::for_network(4, 1);
        let (out, _) = broadcast_once(&mut net, &[(0, 5u64)], &[3], params, &mut r);
        assert!(out.is_empty());
    }

    fn cd_net(g: radio_graph::Graph) -> RadioNetwork<u64> {
        RadioNetwork::new(g).with_collision_detection(crate::model::CollisionDetection::Receiver)
    }

    #[test]
    #[should_panic]
    fn cd_variant_rejects_networks_without_collision_detection() {
        let g = generators::path(2);
        let mut r = rng(1);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let mut frame = RoundFrame::new(2);
        let mut scratch = DecayScratch::new(2);
        frame.add_sender(0, 1u64);
        frame.add_receiver(1);
        decay_local_broadcast_cd(
            &mut net,
            &mut frame,
            &mut scratch,
            DecayParams::for_network(2, 1),
            &mut r,
        );
    }

    #[test]
    fn cd_variant_delivers_and_records_verdicts() {
        // Path 0-1-2-3, sender 0, receivers {1, 3}: 1 is delivered to, 3
        // provably has no sending neighbour.
        let g = generators::path(4);
        let mut r = rng(2);
        let mut net = cd_net(g);
        let params = DecayParams {
            max_degree: 2,
            failure_prob: 1e-6,
        };
        let mut frame: RoundFrame<u64> = RoundFrame::new(4);
        let mut scratch: DecayScratch = DecayScratch::new(4);
        frame.add_sender(0, 7u64);
        frame.add_receiver(1);
        frame.add_receiver(3);
        decay_local_broadcast_cd(&mut net, &mut frame, &mut scratch, params, &mut r);
        assert_eq!(frame.delivered().get(1), Some(&7));
        assert_eq!(frame.feedback().get(1), Some(&LbFeedback::Delivered));
        assert_eq!(frame.delivered().get(3), None);
        assert_eq!(frame.feedback().get(3), Some(&LbFeedback::Silence));
    }

    #[test]
    fn cd_hopeless_receiver_pays_one_iteration_instead_of_all() {
        // The headline saving: without CD a receiver with no sending
        // neighbour listens through every slot; with CD it resolves Silence
        // after one iteration and sleeps.
        let g = generators::path(4);
        let params = DecayParams {
            max_degree: 2,
            failure_prob: 1e-9,
        };
        let mut r1 = rng(3);
        let mut plain: RadioNetwork<u64> = RadioNetwork::new(g.clone());
        let (_, plain_slots) = broadcast_once(&mut plain, &[(0, 7u64)], &[1, 3], params, &mut r1);
        let mut r2 = rng(3);
        let mut cd = cd_net(g);
        let mut frame: RoundFrame<u64> = RoundFrame::new(4);
        let mut scratch: DecayScratch = DecayScratch::new(4);
        frame.add_sender(0, 7u64);
        frame.add_receiver(1);
        frame.add_receiver(3);
        let cd_slots = decay_local_broadcast_cd(&mut cd, &mut frame, &mut scratch, params, &mut r2);
        assert_eq!(plain.energy(3), params.total_slots() as u64);
        // One iteration of listening, then provable silence; no echo beacons
        // (the receiver resolves before the first echo slot).
        assert_eq!(
            cd.energy(3),
            params.slots_per_iteration() as u64,
            "hopeless receiver should resolve after one iteration"
        );
        assert!(cd.energy(3) < plain.energy(3));
        // Early global termination: the sender retires once receiver 1 is
        // delivered and receiver 3 has gone silent.
        assert!(cd_slots < plain_slots, "{cd_slots} vs {plain_slots}");
        assert!(cd.max_energy() < plain.max_energy());
    }

    #[test]
    fn cd_variant_still_delivers_under_contention() {
        // All leaves of a star send; the hub must still hear one despite
        // collisions, across seeds — CD must not weaken Lemma 2.4.
        let n = 65;
        let g = generators::star(n);
        let params = DecayParams::for_network(n, n - 1);
        let mut frame: RoundFrame<u64> = RoundFrame::new(n);
        let mut scratch: DecayScratch = DecayScratch::new(n);
        for seed in 0..20 {
            let mut r = rng(500 + seed);
            let mut net = cd_net(g.clone());
            frame.clear();
            for v in 1..n {
                frame.add_sender(v, v as u64);
            }
            frame.add_receiver(0);
            decay_local_broadcast_cd(&mut net, &mut frame, &mut scratch, params, &mut r);
            assert!(
                frame.delivered().contains(0),
                "CD local broadcast failed under contention (seed {seed})"
            );
            assert_eq!(frame.feedback().get(0), Some(&LbFeedback::Delivered));
        }
    }

    #[test]
    fn cd_call_with_no_senders_yields_silence_not_noise() {
        // Regression: a sender-less call must still run one listening
        // iteration so receivers earn a provable `Silence` verdict (the
        // abstract CD backend's verdict for the same call), not the
        // leftover-`Noise` fallback.
        let g = generators::path(3);
        let mut r = rng(12);
        let mut net = cd_net(g);
        let params = DecayParams {
            max_degree: 2,
            failure_prob: 1e-6,
        };
        let mut frame: RoundFrame<u64> = RoundFrame::new(3);
        let mut scratch: DecayScratch = DecayScratch::new(3);
        frame.add_receiver(0);
        frame.add_receiver(2);
        let slots = decay_local_broadcast_cd(&mut net, &mut frame, &mut scratch, params, &mut r);
        assert!(frame.delivered().is_empty());
        assert_eq!(frame.feedback().get(0), Some(&LbFeedback::Silence));
        assert_eq!(frame.feedback().get(2), Some(&LbFeedback::Silence));
        // Exactly one all-silent iteration of listening, no echo slot.
        assert_eq!(slots, params.slots_per_iteration() as u64);
        assert_eq!(net.energy(0), params.slots_per_iteration() as u64);
        // A call with neither senders nor receivers costs nothing.
        frame.clear();
        let slots = decay_local_broadcast_cd(&mut net, &mut frame, &mut scratch, params, &mut r);
        assert_eq!(slots, 0);
    }

    #[test]
    fn cd_call_with_no_receivers_terminates_after_one_iteration() {
        let g = generators::path(3);
        let mut r = rng(9);
        let mut net = cd_net(g);
        let params = DecayParams {
            max_degree: 2,
            failure_prob: 1e-9,
        };
        let mut frame: RoundFrame<u64> = RoundFrame::new(3);
        let mut scratch: DecayScratch = DecayScratch::new(3);
        frame.add_sender(0, 1u64);
        let slots = decay_local_broadcast_cd(&mut net, &mut frame, &mut scratch, params, &mut r);
        // One full iteration plus its echo slot, then every sender retires.
        assert_eq!(slots, params.slots_per_iteration() as u64 + 1);
    }

    #[test]
    fn reused_frame_does_not_leak_previous_deliveries() {
        // Call once with a delivering sender, then reuse the same frame for
        // a hopeless receiver: the old delivery must not survive.
        let g = generators::path(4);
        let mut r = rng(7);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g);
        let params = DecayParams::for_network(4, 2);
        let mut frame: RoundFrame<u64> = RoundFrame::new(4);
        let mut scratch: DecayScratch = DecayScratch::new(4);
        frame.add_sender(0, 9);
        frame.add_receiver(1);
        decay_local_broadcast(&mut net, &mut frame, &mut scratch, params, &mut r);
        assert_eq!(frame.delivered().get(1), Some(&9));
        frame.clear();
        frame.add_sender(0, 9);
        frame.add_receiver(3);
        decay_local_broadcast(&mut net, &mut frame, &mut scratch, params, &mut r);
        assert!(frame.delivered().is_empty());
    }

    #[test]
    fn energy_model_tuning_cuts_slots_on_skewed_radios_only() {
        use crate::EnergyModel;
        let (n, delta) = (256usize, 4usize);
        let blind = DecayParams::for_network(n, delta);
        // Uniform radio: tuning is the identity.
        assert_eq!(
            DecayParams::for_energy_model(n, delta, EnergyModel::Uniform),
            blind
        );
        assert_eq!(
            DecayParams::for_energy_model(
                n,
                delta,
                EnergyModel::Weighted {
                    listen: 2,
                    transmit: 2
                }
            ),
            blind
        );
        // Skewed radios (either direction) relax the failure exponent and
        // shorten the call; more skew, shorter.
        let listen_heavy = DecayParams::for_energy_model(
            n,
            delta,
            EnergyModel::Weighted {
                listen: 4,
                transmit: 1,
            },
        );
        let transmit_heavy = DecayParams::for_energy_model(
            n,
            delta,
            EnergyModel::Weighted {
                listen: 1,
                transmit: 4,
            },
        );
        assert_eq!(listen_heavy, transmit_heavy, "ratio is direction-blind");
        assert!(listen_heavy.failure_prob > blind.failure_prob);
        assert!(listen_heavy.total_slots() < blind.total_slots());
        let extreme = DecayParams::for_energy_model(
            n,
            delta,
            EnergyModel::Weighted {
                listen: 1,
                transmit: 100,
            },
        );
        assert!(extreme.total_slots() <= listen_heavy.total_slots());
        // The exponent floor keeps failures 1/poly(n).
        assert!(extreme.failure_prob <= (n as f64).powf(-1.5) * 1.0001);
    }

    #[test]
    fn tuned_params_still_deliver_on_a_star() {
        use crate::EnergyModel;
        let n = 64;
        let g = generators::star(n);
        let params = DecayParams {
            max_degree: n - 1,
            ..DecayParams::for_energy_model(
                n,
                n - 1,
                EnergyModel::Weighted {
                    listen: 4,
                    transmit: 1,
                },
            )
        };
        let mut r = rng(9);
        let mut delivered = 0usize;
        let trials = 30;
        let mut frame: RoundFrame<u64> = RoundFrame::new(n);
        let mut scratch: DecayScratch = DecayScratch::new(n);
        for _ in 0..trials {
            let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
            frame.clear();
            for v in 1..n {
                frame.add_sender(v, v as u64);
            }
            frame.add_receiver(0);
            decay_local_broadcast(&mut net, &mut frame, &mut scratch, params, &mut r);
            delivered += usize::from(frame.delivered().contains(0));
        }
        assert_eq!(delivered, trials, "shorter calls must still deliver whp");
    }
}
