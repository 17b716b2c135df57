//! Sketch protocols: HyperLogLog counters and the HyperBall
//! neighborhood-function protocol.
//!
//! The paper's BFS drivers compute *exact* distances; this module puts the
//! sketch-based end of the distance-computation spectrum on the same
//! [`Protocol`] surface. A HyperBall run maintains one fixed-precision
//! HyperLogLog counter per node, seeded with the node's own hash. Each
//! round, every node whose counter changed in the previous round
//! Local-Broadcasts its register array and every receiver merges what it
//! hears (bytewise register max — the receive step *is* the merge). After
//! `r` rounds node `v`'s counter covers exactly the ball `B_r(v)`, so the
//! per-round estimate sums trace the neighborhood function `N(r)` and the
//! last round that changed any register is a diameter estimate.
//!
//! Layout and kernels follow the word-parallel discipline of the frame
//! engine: `2^p` one-byte registers are packed eight per `u64`, and
//! [`merge_words`]/[`covers_words`] operate on whole words with SWAR
//! bytewise comparisons (no per-register branching). Registers never reach
//! `0x80` — the maximum rank is `65 − p ≤ 61` — which is what makes the
//! carry-free SWAR max sound.
//!
//! Determinism: node hashes derive from (sweep seed, node id) via a
//! splitmix64 mix, merges are order-independent (max is commutative and
//! associative), and the round schedule visits senders in ascending id
//! order — so on a loss-free stack the whole run, estimates included, is a
//! pure function of (graph, p, seed). On lossy stacks missed deliveries
//! can only *lower* register values, never corrupt them.

use radio_sim::NodeSet;

use crate::lb::LbFrame;
use crate::message::Msg;
use crate::protocol::{
    Protocol, ProtocolError, ProtocolId, ProtocolInput, ProtocolOutput, SpecParams,
};
use crate::stack::RadioStack;

/// Smallest supported precision (`m = 16` registers) — below this the
/// standard bias correction has no published constant.
pub const MIN_PRECISION: u32 = 4;
/// Largest supported precision (`m = 4096` registers, 512-word payloads).
pub const MAX_PRECISION: u32 = 12;

/// The high bit of every register byte. Registers stay strictly below it,
/// so `(a | HIGH) - b` never borrows across byte lanes.
const HIGH: u64 = 0x8080_8080_8080_8080;

/// One round of splitmix64 — the stateless mixer used for per-node hashing
/// (deterministic, seedable, and good enough avalanche for HLL's
/// "uniform 64-bit hash" requirement).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 64-bit item hash of `node` under `seed`: two splitmix64 rounds so
/// that neither consecutive ids nor consecutive seeds produce correlated
/// register indices.
pub fn node_hash(seed: u64, node: usize) -> u64 {
    splitmix64(seed ^ splitmix64(node as u64))
}

/// Number of `u64` words holding the `2^p` one-byte registers.
pub fn words_for(p: u32) -> usize {
    (1usize << p) / 8
}

/// The standard HyperLogLog relative-error envelope `1.04 / √(2^p)`.
pub fn relative_error(p: u32) -> f64 {
    1.04 / ((1u64 << p) as f64).sqrt()
}

/// Word-parallel bytewise-max merge of `src` into `dst`; returns whether
/// any register grew. Eight registers per word, no per-byte branching:
/// `(a | HIGH) - b` sets each lane's high bit iff `a ≥ b` (both < 0x80, so
/// lanes never borrow), and the spread mask selects the larger byte.
pub fn merge_words(dst: &mut [u64], src: &[u64]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let mut grew = 0u64;
    for (d, &b) in dst.iter_mut().zip(src) {
        let a = *d;
        let ge = (((a | HIGH).wrapping_sub(b)) & HIGH) >> 7;
        let keep = ge.wrapping_mul(0xFF);
        let max = (a & keep) | (b & !keep);
        grew |= max ^ a;
        *d = max;
    }
    grew != 0
}

/// `true` iff merging `src` into `dst` would change nothing — every `dst`
/// register already dominates its `src` counterpart. The word-parallel
/// convergence test: a node whose counter covers everything it can hear
/// has locally converged.
pub fn covers_words(dst: &[u64], src: &[u64]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    dst.iter()
        .zip(src)
        .all(|(&a, &b)| (((a | HIGH).wrapping_sub(b)) & HIGH) >> 7 == HIGH >> 7)
}

/// The cardinality estimate of a packed register array at precision `p`:
/// the bias-corrected harmonic mean, falling back to linear counting in
/// the small range (the standard estimator, so the `1.04/√m` envelope
/// applies).
pub fn estimate_words(words: &[u64], p: u32) -> f64 {
    debug_assert_eq!(words.len(), words_for(p));
    let m = 1usize << p;
    let mut sum = 0.0f64;
    let mut zeros = 0usize;
    for &w in words {
        for lane in 0..8 {
            let r = ((w >> (8 * lane)) & 0xFF) as u32;
            zeros += usize::from(r == 0);
            sum += 1.0 / (1u64 << r) as f64;
        }
    }
    let mf = m as f64;
    let alpha = match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / mf),
    };
    let raw = alpha * mf * mf / sum;
    if raw <= 2.5 * mf && zeros > 0 {
        mf * (mf / zeros as f64).ln()
    } else {
        raw
    }
}

/// A fixed-precision HyperLogLog counter: `2^p` one-byte registers packed
/// eight per `u64`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HllSketch {
    p: u32,
    words: Vec<u64>,
}

impl HllSketch {
    /// An empty counter at precision `p`.
    ///
    /// Panics outside [`MIN_PRECISION`]`..=`[`MAX_PRECISION`] — registry
    /// factories validate first, so an out-of-range `p` here is a
    /// programming error.
    pub fn new(p: u32) -> Self {
        assert!(
            (MIN_PRECISION..=MAX_PRECISION).contains(&p),
            "precision p={p} outside {MIN_PRECISION}..={MAX_PRECISION}"
        );
        HllSketch {
            p,
            words: vec![0; words_for(p)],
        }
    }

    /// The counter holding exactly `{node}` — HyperBall's per-node initial
    /// state under `seed`.
    pub fn singleton(p: u32, seed: u64, node: usize) -> Self {
        let mut s = HllSketch::new(p);
        s.insert_hash(node_hash(seed, node));
        s
    }

    /// The packed register words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Inserts a pre-hashed item: the top `p` bits pick the register, the
    /// rank is the position of the first set bit among the rest (all-zero
    /// rest saturates at `65 − p`, which keeps every register < 0x80).
    pub fn insert_hash(&mut self, h: u64) {
        let idx = (h >> (64 - self.p)) as usize;
        let rank = ((h << self.p).leading_zeros() + 1).min(65 - self.p);
        let (w, shift) = (idx / 8, 8 * (idx % 8));
        let cur = (self.words[w] >> shift) & 0xFF;
        if u64::from(rank) > cur {
            self.words[w] = (self.words[w] & !(0xFFu64 << shift)) | (u64::from(rank) << shift);
        }
    }

    /// Merges `other` into `self` (bytewise register max); returns whether
    /// any register grew.
    pub fn merge(&mut self, other: &HllSketch) -> bool {
        assert_eq!(self.p, other.p, "merging sketches of different precision");
        merge_words(&mut self.words, &other.words)
    }

    /// The cardinality estimate.
    pub fn estimate(&self) -> f64 {
        estimate_words(&self.words, self.p)
    }
}

/// The result of a HyperBall run: the neighborhood function and the
/// distance estimates read off it.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchSummary {
    /// Register-index bits (`2^p` registers per node).
    pub p: u32,
    /// Local-Broadcast rounds executed, the final all-quiet round (or the
    /// bound cutoff) included.
    pub rounds: u64,
    /// `neighborhood_function[r]` estimates `Σ_v |B_r(v)|` — the number of
    /// node pairs within distance `r` — for `r = 0..` up to the last round
    /// that changed a register.
    pub neighborhood_function: Vec<f64>,
    /// The last round that changed any register anywhere: on a loss-free
    /// stack this is the graph diameter up to hash collisions (collisions
    /// can only make it undershoot, never overshoot).
    pub diameter_estimate: u64,
    /// The smallest (interpolated) radius at which the neighborhood
    /// function reaches 90% of its final value.
    pub effective_diameter: f64,
    /// Per-node eccentricity estimates: the last round node `v`'s counter
    /// changed (a lower estimate of `ecc(v)` under the same collision
    /// caveat).
    pub eccentricities: Vec<u64>,
}

impl SketchSummary {
    /// The scalar the scenario records carry.
    pub fn outcome(&self) -> u64 {
        self.diameter_estimate
    }
}

/// The HyperBall protocol: per-node HyperLogLog counters flooded along
/// edges until a round changes no register (or the round bound is hit).
///
/// Each round, every *active* node — one whose counter changed in the
/// previous round, everyone in round 1 — takes one Local-Broadcast as the
/// sole sender with its neighbors listening, so delivery is deterministic
/// and after round `r` every counter covers exactly `B_r(v)`. Neighbor
/// sets come from [`RadioStack::topology`]; on a stack without one
/// (virtual cluster networks) every other node listens instead, which is
/// semantically identical and merely costs more listener energy. A node
/// that hears nothing new goes inactive, so the sender set *is* the
/// convergence state and the run terminates exactly when the wave of
/// register changes dies out — the feedback the frame's delivery lane
/// already provides.
///
/// Like clustering, the protocol ignores [`ProtocolInput::active`] (the
/// neighborhood function is a whole-graph quantity). `rounds` bounds the
/// run for graphs whose diameter exceeds the time budget — the xl sweep's
/// regime, where the estimate becomes "the NF up to radius `rounds`".
#[derive(Clone, Debug)]
pub struct HyperballProtocol {
    /// Register-index bits (`2^p` registers, error `1.04/√2^p`).
    pub p: u32,
    /// Optional round bound; `None` runs to convergence.
    pub rounds: Option<u64>,
}

impl HyperballProtocol {
    /// Resolves `hyperball[:p=…[,rounds=…]]` spec parameters (registry
    /// factory body; also reused by the `diameter:hyperball` wrapper).
    pub fn from_params(params: &SpecParams) -> Result<Self, ProtocolError> {
        params.ensure_known_keys(&["p", "rounds"])?;
        let p = params.get_u64("p", 6)?;
        if !(u64::from(MIN_PRECISION)..=u64::from(MAX_PRECISION)).contains(&p) {
            return Err(params.invalid(format!(
                "parameter p={p} outside {MIN_PRECISION}..={MAX_PRECISION}"
            )));
        }
        let rounds = params.get_opt_u64("rounds")?;
        if rounds == Some(0) {
            return Err(params.invalid("parameter rounds must be ≥ 1"));
        }
        Ok(HyperballProtocol {
            p: p as u32,
            rounds,
        })
    }

    /// Runs the rounds and reads the summary off the register history.
    fn hyperball(&self, net: &mut dyn RadioStack, seed: u64, frame: &mut LbFrame) -> SketchSummary {
        let n = net.num_nodes();
        let wp = words_for(self.p);
        // Flat register plane: node v's counter is regs[v*wp..(v+1)*wp],
        // so snapshotting a sender's counter is a slice copy, not an
        // allocation.
        let mut regs: Vec<u64> = Vec::with_capacity(n * wp);
        for v in 0..n {
            regs.extend_from_slice(HllSketch::singleton(self.p, seed, v).words());
        }
        let mut prev = regs.clone();
        let mut est: Vec<f64> = (0..n)
            .map(|v| estimate_words(&regs[v * wp..(v + 1) * wp], self.p))
            .collect();
        let mut nf_sum: f64 = est.iter().sum();
        let mut nf = vec![nf_sum];
        let mut ecc = vec![0u64; n];
        // Senders of the round and the nodes it changed, as sets, so a
        // round costs its active nodes rather than n once activity thins.
        let mut active = NodeSet::new(n);
        active.extend(0..n);
        let mut changed = NodeSet::new(n);
        let bound = self.rounds.unwrap_or(n as u64);
        let mut round = 0u64;
        let mut last_change = 0u64;
        while round < bound && !active.is_empty() {
            round += 1;
            // Every message of the round carries its sender's counter as
            // the round began, before this round's merges into it.
            for u in active.iter() {
                prev[u * wp..(u + 1) * wp].copy_from_slice(&regs[u * wp..(u + 1) * wp]);
            }
            changed.clear();
            for u in active.iter() {
                frame.clear();
                frame.add_sender(u, Msg::words(&prev[u * wp..(u + 1) * wp]));
                match net.topology() {
                    Some(g) => {
                        for &v in g.neighbors(u) {
                            frame.add_receiver(v);
                        }
                    }
                    None => {
                        for v in (0..n).filter(|&v| v != u) {
                            frame.add_receiver(v);
                        }
                    }
                }
                net.local_broadcast(frame);
                for (v, msg) in frame.delivered().iter() {
                    if merge_words(&mut regs[v * wp..(v + 1) * wp], msg.as_slice()) {
                        changed.insert(v);
                    }
                }
            }
            for v in changed.iter() {
                let e = estimate_words(&regs[v * wp..(v + 1) * wp], self.p);
                nf_sum += e - est[v];
                est[v] = e;
                ecc[v] = round;
            }
            if !changed.is_empty() {
                last_change = round;
                nf.push(nf_sum);
            }
            std::mem::swap(&mut active, &mut changed);
        }
        let effective = effective_diameter(&nf);
        SketchSummary {
            p: self.p,
            rounds: round,
            neighborhood_function: nf,
            diameter_estimate: last_change,
            effective_diameter: effective,
            eccentricities: ecc,
        }
    }
}

/// The smallest interpolated radius at which `nf` reaches 90% of its final
/// value (HyperBall's effective-diameter readout).
fn effective_diameter(nf: &[f64]) -> f64 {
    let last = match nf.last() {
        Some(&x) if x > 0.0 => x,
        _ => return 0.0,
    };
    let target = 0.9 * last;
    if nf[0] >= target {
        return 0.0;
    }
    for r in 1..nf.len() {
        if nf[r] >= target {
            let step = nf[r] - nf[r - 1];
            let frac = if step > 0.0 {
                (target - nf[r - 1]) / step
            } else {
                0.0
            };
            return (r - 1) as f64 + frac;
        }
    }
    (nf.len() - 1) as f64
}

impl Protocol for HyperballProtocol {
    fn name(&self) -> ProtocolId {
        match self.rounds {
            None => ProtocolId::new(format!("hyperball_p{}", self.p)),
            Some(r) => ProtocolId::new(format!("hyperball_p{}_r{r}", self.p)),
        }
    }

    fn execute(
        &self,
        net: &mut dyn RadioStack,
        input: &ProtocolInput,
        frame: &mut LbFrame,
    ) -> ProtocolOutput {
        ProtocolOutput::Sketch(self.hyperball(net, input.seed, frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::base_registry;
    use crate::stack::StackBuilder;
    use radio_graph::generators;

    fn exact_counter(p: u32, seed: u64, nodes: impl IntoIterator<Item = usize>) -> HllSketch {
        let mut s = HllSketch::new(p);
        for v in nodes {
            s.insert_hash(node_hash(seed, v));
        }
        s
    }

    #[test]
    fn merge_is_bytewise_max_and_reports_growth() {
        let mut a = exact_counter(6, 3, 0..10);
        let b = exact_counter(6, 3, 5..20);
        let mut union = exact_counter(6, 3, 0..20);
        assert!(a.merge(&b), "merging new items must report growth");
        assert_eq!(a, union);
        assert!(!a.merge(&b), "re-merging a covered counter changes nothing");
        assert!(covers_words(a.words(), b.words()));
        assert!(!union.merge(&a));
    }

    #[test]
    fn estimates_track_exact_cardinalities_inside_the_envelope() {
        let p = 8;
        for &count in &[1usize, 10, 50, 200, 1000] {
            let s = exact_counter(p, 42, 0..count);
            let err = (s.estimate() - count as f64).abs() / count as f64;
            // 3σ of the 1.04/√m envelope — generous, but catches a broken
            // estimator (which is off by whole multiples).
            assert!(
                err <= 3.0 * relative_error(p),
                "count {count}: estimate {} err {err}",
                s.estimate()
            );
        }
    }

    #[test]
    fn registers_never_reach_the_swar_high_bit() {
        let mut s = HllSketch::new(4);
        // The all-zero suffix saturates the rank at 65 - p.
        s.insert_hash(0);
        for &w in s.words() {
            for lane in 0..8 {
                assert!(((w >> (8 * lane)) & 0xFF) < 0x80);
            }
        }
        assert_eq!(s.words()[0] & 0xFF, 65 - 4);
    }

    #[test]
    fn hyperball_counters_cover_exact_balls_on_a_path() {
        // On a loss-free abstract stack the round-r counter of v must equal
        // the counter built directly from B_r(v) — the ball-exactness the
        // schedule is designed for. Diameter falls out as the last change.
        let n = 8;
        let g = generators::path(n);
        let mut net = StackBuilder::new(g).build();
        let proto = HyperballProtocol { p: 6, rounds: None };
        let report = proto.run(&mut net, &ProtocolInput::from_seed(5)).unwrap();
        let summary = match &report.output {
            ProtocolOutput::Sketch(s) => s,
            other => panic!("expected sketch output, got {other:?}"),
        };
        assert_eq!(summary.diameter_estimate, (n - 1) as u64);
        assert_eq!(summary.rounds, n as u64, "n-1 changing rounds + 1 quiet");
        assert_eq!(summary.neighborhood_function.len(), n);
        // Endpoint eccentricity n-1, midpoint n/2.
        assert_eq!(summary.eccentricities[0], (n - 1) as u64);
        assert_eq!(summary.eccentricities[n / 2], (n / 2) as u64);
        // NF is nondecreasing and ends at ~n² (every pair within range).
        for w in summary.neighborhood_function.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let final_nf = *summary.neighborhood_function.last().unwrap();
        assert!((final_nf - (n * n) as f64).abs() / (n * n) as f64 <= 3.0 * relative_error(6));
        assert!(summary.effective_diameter <= summary.diameter_estimate as f64);
    }

    #[test]
    fn round_bound_caps_the_run_and_labels_the_protocol() {
        let g = generators::path(16);
        let mut net = StackBuilder::new(g).build();
        let proto = HyperballProtocol {
            p: 6,
            rounds: Some(3),
        };
        assert_eq!(proto.name(), "hyperball_p6_r3");
        let report = proto.run(&mut net, &ProtocolInput::from_seed(0)).unwrap();
        let summary = match &report.output {
            ProtocolOutput::Sketch(s) => s,
            other => panic!("expected sketch output, got {other:?}"),
        };
        assert_eq!(summary.rounds, 3);
        assert_eq!(summary.diameter_estimate, 3);
    }

    #[test]
    fn registry_resolves_hyperball_specs() {
        let r = base_registry();
        assert_eq!(r.get("hyperball").unwrap().name(), "hyperball_p6");
        assert_eq!(r.get("hyperball:p=8").unwrap().name(), "hyperball_p8");
        assert_eq!(
            r.get("hyperball:p=6,rounds=4").unwrap().name(),
            "hyperball_p6_r4"
        );
        assert!(r.get("hyperball:p=2").is_err(), "p below the floor");
        assert!(r.get("hyperball:p=13").is_err(), "p above the ceiling");
        assert!(r.get("hyperball:rounds=0").is_err());
        assert!(r.get("hyperball:q=1").is_err(), "unknown key");
    }

    #[test]
    fn hyperball_is_deterministic_across_runs_and_backends_share_semantics() {
        let g = generators::grid(5, 5);
        let run = || {
            let mut net = StackBuilder::new(g.clone()).build();
            let proto = HyperballProtocol { p: 6, rounds: None };
            let report = proto.run(&mut net, &ProtocolInput::from_seed(7)).unwrap();
            match report.output {
                ProtocolOutput::Sketch(s) => s,
                other => panic!("expected sketch output, got {other:?}"),
            }
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.diameter_estimate, 8, "grid(5,5) diameter");
    }
}
