//! Executable versions of the Section 5 lower bounds.
//!
//! Lower bounds are impossibility results, so "reproducing" them means three
//! things here:
//!
//! 1. **Hard instances** — the `K_n` vs `K_n − e` pair of Theorem 5.1 (built
//!    in `radio-graph::generators`) and the set-disjointness graphs of
//!    Theorem 5.2 (`radio-graph::lower_bound`).
//! 2. **The counting argument, replayed on real traces** — Theorem 5.1's
//!    proof classifies each time slot as *good* for a vertex pair `{u, v}`
//!    (one of them listens, the other transmits, and at most two devices
//!    transmit overall); pairs with no good slot are in `X_bad`, and the
//!    adversary's edge lands in `X_bad` with probability
//!    `≥ 1 − 2·|X_good|/(n(n−1))`, capping the success probability of *any*
//!    algorithm with per-device energy `E` at roughly `1/2 + O(E/n)`.
//!    [`GoodSlotAccounting`] computes `X_good` for an arbitrary recorded
//!    trace, and [`edge_probing_protocol`] / [`round_robin_protocol`]
//!    provide natural low- and high-energy protocols to feed it.
//! 3. **The communication ledger of the Theorem 5.2 reduction** — given an
//!    energy budget, [`disjointness_communication_bits`] computes how many
//!    bits the two simulating players would exchange, to be compared with
//!    the `Ω(k)` set-disjointness bound.

use std::collections::HashSet;

use rand::Rng;

use radio_graph::lower_bound::DisjointnessGraph;
use radio_graph::{Graph, NodeId};

/// What every device did in one recorded slot of a protocol trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceRound {
    /// Devices that transmitted in this slot.
    pub transmitters: Vec<NodeId>,
    /// Devices that listened in this slot.
    pub listeners: Vec<NodeId>,
}

/// A recorded execution: one entry per slot.
pub type Trace = Vec<TraceRound>;

/// The outcome of applying Theorem 5.1's counting argument to a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct GoodSlotAccounting {
    /// Number of devices.
    pub n: usize,
    /// Number of unordered pairs with at least one good slot.
    pub good_pairs: usize,
    /// Total unordered pairs `n(n−1)/2`.
    pub total_pairs: usize,
    /// Maximum per-device energy in the trace.
    pub max_energy: u64,
    /// Total energy (sum over devices) in the trace.
    pub total_energy: u64,
    /// The proof's upper bound on any distinguisher's success probability:
    /// `1/2 + |X_good| / (2·total_pairs)`.
    pub success_upper_bound: f64,
}

impl GoodSlotAccounting {
    /// Evaluates the counting argument on a trace over `n` devices.
    pub fn evaluate(n: usize, trace: &Trace) -> Self {
        let mut good: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut energy = vec![0u64; n];
        for round in trace {
            for &t in &round.transmitters {
                energy[t] += 1;
            }
            for &l in &round.listeners {
                energy[l] += 1;
            }
            // A slot can only be good for some pair if at most two devices
            // transmit (otherwise no listener can decode anything that
            // depends on a single potential edge).
            if round.transmitters.is_empty() || round.transmitters.len() > 2 {
                continue;
            }
            for &t in &round.transmitters {
                for &l in &round.listeners {
                    if t != l {
                        good.insert((t.min(l), t.max(l)));
                    }
                }
            }
        }
        let total_pairs = n * n.saturating_sub(1) / 2;
        let good_pairs = good.len();
        let success_upper_bound = if total_pairs == 0 {
            1.0
        } else {
            (0.5 + good_pairs as f64 / (2.0 * total_pairs as f64)).min(1.0)
        };
        GoodSlotAccounting {
            n,
            good_pairs,
            total_pairs,
            max_energy: energy.iter().copied().max().unwrap_or(0),
            total_energy: energy.iter().sum(),
            success_upper_bound,
        }
    }

    /// The structural inequality from the proof: a slot good for `x` pairs
    /// has at least `x/2` listeners, so `|X_good| ≤ 2·total_energy`.
    pub fn satisfies_energy_inequality(&self) -> bool {
        self.good_pairs as u64 <= 2 * self.total_energy
    }
}

/// A natural low-energy protocol for the `K_n` vs `K_n − e` game: in each of
/// `budget` slots every device independently transmits its identity with
/// probability `1/n` and otherwise listens. Returns the recorded trace and
/// the set of edges whose presence was directly witnessed (a listener heard
/// a sole transmitter that is adjacent to it in `g`).
pub fn edge_probing_protocol<R: Rng + ?Sized>(
    g: &Graph,
    budget: u64,
    rng: &mut R,
) -> (Trace, HashSet<(NodeId, NodeId)>) {
    let n = g.num_nodes();
    let mut trace = Vec::with_capacity(budget as usize);
    let mut witnessed = HashSet::new();
    let p = 1.0 / n.max(1) as f64;
    for _ in 0..budget {
        let mut transmitters = Vec::new();
        let mut listeners = Vec::new();
        for v in 0..n {
            if rng.gen_bool(p) {
                transmitters.push(v);
            } else {
                listeners.push(v);
            }
        }
        if transmitters.len() == 1 {
            let t = transmitters[0];
            for &l in &listeners {
                if g.has_edge(t, l) {
                    witnessed.insert((t.min(l), t.max(l)));
                }
            }
        }
        trace.push(TraceRound {
            transmitters,
            listeners,
        });
    }
    (trace, witnessed)
}

/// The `Ω(n)`-energy protocol that *does* distinguish `K_n` from `K_n − e`:
/// devices take turns transmitting (round robin) while everyone else
/// listens, so after `n` slots every device knows its full neighbourhood.
/// Returns the trace and the witnessed edge set (which equals `E(g)`).
pub fn round_robin_protocol(g: &Graph) -> (Trace, HashSet<(NodeId, NodeId)>) {
    let n = g.num_nodes();
    let mut trace = Vec::with_capacity(n);
    let mut witnessed = HashSet::new();
    for t in 0..n {
        let listeners: Vec<NodeId> = (0..n).filter(|&v| v != t).collect();
        for &l in &listeners {
            if g.has_edge(t, l) {
                witnessed.insert((t.min(l), t.max(l)));
            }
        }
        trace.push(TraceRound {
            transmitters: vec![t],
            listeners,
        });
    }
    (trace, witnessed)
}

/// One play of the Theorem 5.1 distinguishing game with a given per-device
/// energy budget: the adversary flips a fair coin between `K_n` and
/// `K_n − e` (with `e` uniform), the edge-probing protocol runs, and the
/// distinguisher answers "`K_n − e`" iff the chosen pair was *not*
/// witnessed. Returns whether the answer was correct.
pub fn play_distinguishing_game<R: Rng + ?Sized>(n: usize, budget: u64, rng: &mut R) -> bool {
    assert!(n >= 3);
    let u = rng.gen_range(0..n);
    let v = loop {
        let v = rng.gen_range(0..n);
        if v != u {
            break v;
        }
    };
    let missing_edge = rng.gen_bool(0.5);
    let graph = if missing_edge {
        radio_graph::generators::complete_minus_edge(n, u, v)
    } else {
        radio_graph::generators::complete(n)
    };
    let (_, witnessed) = edge_probing_protocol(&graph, budget, rng);
    let guess_missing = !witnessed.contains(&(u.min(v), u.max(v)));
    guess_missing == missing_edge
}

/// Empirical success rate of the distinguishing game over `trials` plays.
pub fn distinguishing_success_rate<R: Rng + ?Sized>(
    n: usize,
    budget: u64,
    trials: u64,
    rng: &mut R,
) -> f64 {
    let wins = (0..trials)
        .filter(|_| play_distinguishing_game(n, budget, rng))
        .count();
    wins as f64 / trials as f64
}

/// The Theorem 5.2 reduction's communication ledger: a radio protocol on the
/// disjointness graph in which every device spends at most
/// `energy_per_device` slots listening translates into a two-party protocol
/// exchanging at most this many bits (each slot in which a shared vertex —
/// `V_C ∪ V_D ∪ {u*, v*}` — listens costs `O(log k)` bits from each player).
pub fn disjointness_communication_bits(
    instance: &DisjointnessGraph,
    energy_per_device: u64,
) -> u64 {
    let shared = instance.shared_vertices().len() as u64;
    // Every shared vertex listens in at most `energy_per_device` slots.
    instance.round_communication_bits(1) * shared * energy_per_device
}

/// The largest per-device energy budget for which the reduction's
/// communication stays below the `Ω(k)` set-disjointness lower bound — i.e.
/// the energy below which the protocol *cannot* decide the diameter, *so*
/// any correct protocol must exceed it. This is the executable form of
/// Theorem 5.2's `Ω(n / log² n)` bound.
pub fn disjointness_energy_threshold(instance: &DisjointnessGraph) -> u64 {
    let per_unit = disjointness_communication_bits(instance, 1).max(1);
    instance.communication_lower_bound() / per_unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generators;
    use radio_graph::lower_bound::build_disjointness_graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn good_slot_accounting_on_a_tiny_trace() {
        // Slot 0: device 0 transmits, 1 and 2 listen → pairs (0,1), (0,2) good.
        // Slot 1: three transmitters → nothing good.
        let trace = vec![
            TraceRound {
                transmitters: vec![0],
                listeners: vec![1, 2],
            },
            TraceRound {
                transmitters: vec![0, 1, 2],
                listeners: vec![3],
            },
        ];
        let acc = GoodSlotAccounting::evaluate(4, &trace);
        assert_eq!(acc.good_pairs, 2);
        assert_eq!(acc.total_pairs, 6);
        assert_eq!(acc.max_energy, 2);
        assert!(acc.satisfies_energy_inequality());
        assert!((acc.success_upper_bound - (0.5 + 2.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn low_budget_traces_leave_most_pairs_bad() {
        let n = 60;
        let g = generators::complete(n);
        let mut r = rng(1);
        let budget = 5;
        let (trace, _) = edge_probing_protocol(&g, budget, &mut r);
        let acc = GoodSlotAccounting::evaluate(n, &trace);
        assert!(acc.satisfies_energy_inequality());
        // With E = 5 ≪ (n-1)/8, the success bound stays close to 1/2.
        assert!(
            acc.success_upper_bound < 0.6,
            "bound {} too optimistic",
            acc.success_upper_bound
        );
    }

    #[test]
    fn round_robin_witnesses_every_edge_and_costs_linear_energy() {
        let n = 30;
        let g = generators::complete_minus_edge(n, 3, 17);
        let (trace, witnessed) = round_robin_protocol(&g);
        assert_eq!(witnessed.len(), g.num_edges());
        assert!(!witnessed.contains(&(3, 17)));
        let acc = GoodSlotAccounting::evaluate(n, &trace);
        assert_eq!(acc.max_energy, n as u64 - 1 + 1);
        // Every pair has a good slot: the bound degenerates to 1 and the
        // protocol genuinely distinguishes.
        assert_eq!(acc.good_pairs, acc.total_pairs);
        assert!(acc.success_upper_bound >= 1.0 - 1e-12);
    }

    #[test]
    fn distinguishing_game_tracks_energy_budget() {
        let n = 40;
        let mut r = rng(2);
        let low = distinguishing_success_rate(n, 2, 150, &mut r);
        let high = distinguishing_success_rate(n, 60 * n as u64, 150, &mut r);
        assert!(
            low < 0.75,
            "a 2-slot budget should be close to guessing, got {low}"
        );
        assert!(
            high > low,
            "a large budget ({high}) should beat a tiny one ({low})"
        );
    }

    #[test]
    fn disjointness_ledger_scales_with_energy_and_k() {
        let instance = build_disjointness_graph(&[1, 2, 3], &[4, 5, 6], 6);
        let one = disjointness_communication_bits(&instance, 1);
        let ten = disjointness_communication_bits(&instance, 10);
        assert_eq!(ten, 10 * one);
        let threshold = disjointness_energy_threshold(&instance);
        // Below the threshold, the reduction communicates fewer than k bits.
        if threshold > 0 {
            assert!(disjointness_communication_bits(&instance, threshold) <= instance.k);
        }
        assert!(disjointness_communication_bits(&instance, threshold + 1) > 0);
    }

    #[test]
    fn edge_probing_only_witnesses_true_edges() {
        let n = 25;
        let g = generators::complete_minus_edge(n, 0, 1);
        let mut r = rng(3);
        let (_, witnessed) = edge_probing_protocol(&g, 2000, &mut r);
        for &(u, v) in &witnessed {
            assert!(g.has_edge(u, v));
        }
        assert!(!witnessed.contains(&(0, 1)));
    }
}
