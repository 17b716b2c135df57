//! Property tests pinning the word-parallel frame kernels to their scalar
//! definitions.
//!
//! Two families:
//!
//! * every bulk [`NodeSet`] kernel must agree with a naive per-bit reference
//!   (`Vec<bool>`), across universes chosen to straddle the 64-bit word
//!   boundaries — including the empty universe — and arbitrary fill
//!   patterns; and sparse sets whose members sit only in a window of words,
//!   anywhere up to the top of universes as large as 2^14, must keep
//!   agreeing through random insert/remove/clear/kernel sequences that
//!   leave stale occupied-word ranges behind, with every word outside a
//!   set's reported range zero after every step;
//! * the two delivery-resolution paths of the simulator,
//!   `step_frame_scan` and `step_frame_columnar`, must produce identical
//!   feedback lanes and identical energy meters on random graphs and random
//!   transmit/listen splits, with and without receiver-side collision
//!   detection — the invariant that makes the adaptive dispatch in
//!   `step_frame` unobservable — both at the bottom of the id space and
//!   with every participant confined to a high id window;
//! * the no-CD `decay_local_broadcast`, which resolves each slot from its
//!   transmitters' side and bills listening once per call, must leave the
//!   same deliveries, meters, slot counts and RNG stream as the Decay loop
//!   run slot by slot through `step_frame` (the oracle below), on random
//!   graphs mixing stars, cliques and disconnected parts, with random and
//!   overlapping sender/receiver roles;
//! * a reused [`RoundFrame`], whose participant lists drive the ledger
//!   charge and the clear of sparse frames, must charge exactly
//!   senders ∪ receivers after every operation and be empty in every word
//!   and slot after every clear, through random sequences of sender and
//!   receiver inserts (duplicates, overwrites, ids on both sides), bulk
//!   receiver copies, sparse and dense clears and delivery swaps.

use proptest::prelude::*;

use radio_graph::Graph;
use radio_sim::decay::sample_decay_slot;
use radio_sim::{
    decay_local_broadcast, CollisionDetection, DecayParams, DecayScratch, Feedback, LbFeedback,
    NodeSet, NodeSlots, RadioNetwork, RoundFrame, SlotFrame,
};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Universes straddling the word boundaries: empty, single word, exactly
/// one word, one past it, exactly two words, one past them.
const UNIVERSES: [usize; 7] = [0, 1, 63, 64, 65, 127, 128];

/// Splitmix-style deterministic bit stream, so the tests need no RNG crate.
fn next_bits(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let z = *state;
    let z = (z ^ (z >> 33)).wrapping_mul(0xff51afd7ed558ccd);
    z ^ (z >> 33)
}

/// A pseudo-random set over `0..n` with roughly `density`/64 fill, plus its
/// per-bit reference.
fn random_set(n: usize, density: u64, seed: &mut u64) -> (NodeSet, Vec<bool>) {
    let mut set = NodeSet::new(n);
    let mut bits = vec![false; n];
    for (v, b) in bits.iter_mut().enumerate() {
        if next_bits(seed) % 64 < density {
            set.insert(v);
            *b = true;
        }
    }
    (set, bits)
}

fn to_indices(bits: &[bool]) -> Vec<usize> {
    bits.iter()
        .enumerate()
        .filter_map(|(v, &b)| b.then_some(v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_kernels_match_the_per_bit_reference(
        (upick, da, db) in (0usize..7, 0u64..65, 0u64..65),
        seed in 0u64..1_000_000,
    ) {
        let n = UNIVERSES[upick];
        let mut s = seed.wrapping_mul(2).wrapping_add(1);
        let (a, ra) = random_set(n, da, &mut s);
        let (b, rb) = random_set(n, db, &mut s);

        // Construction invariants: len is exact, iter ascends over exactly
        // the reference members.
        prop_assert_eq!(a.len(), ra.iter().filter(|&&x| x).count());
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), to_indices(&ra));

        // intersect_with ≡ per-bit AND.
        let mut i = a.clone();
        i.intersect_with(&b);
        let ri: Vec<bool> = ra.iter().zip(&rb).map(|(&x, &y)| x && y).collect();
        prop_assert_eq!(i.iter().collect::<Vec<_>>(), to_indices(&ri));

        // difference_with ≡ per-bit AND-NOT.
        let mut d = a.clone();
        d.difference_with(&b);
        let rd: Vec<bool> = ra.iter().zip(&rb).map(|(&x, &y)| x && !y).collect();
        prop_assert_eq!(d.iter().collect::<Vec<_>>(), to_indices(&rd));

        // copy_from adopts the source exactly, even from a dirty target.
        let mut c = b.clone();
        c.copy_from(&a);
        prop_assert_eq!(&c, &a);

        // Kernels on a cleared set behave as on a fresh one (the range
        // reset is invisible).
        let mut cleared = b;
        cleared.clear();
        prop_assert_eq!(cleared.len(), 0);
        cleared.copy_from(&a);
        prop_assert_eq!(&cleared, &a);
    }
}

/// Universes for the windowed tests: word-boundary straddlers from two
/// words up to 2^14, so a window can sit at the very top of a large
/// universe, in a partial last word, or anywhere below.
const WIDE_UNIVERSES: [usize; 6] = [129, 1000, 4097, 8191, 8192, 1 << 14];

/// The two-sided range invariant: the reported occupied-word range is in
/// bounds, `watermark()` is its high end, and every word outside it is zero.
fn assert_range_invariant(set: &NodeSet, what: &str) {
    let range = set.occupied_words();
    let words = set.words();
    assert!(
        range.start <= range.end && range.end <= words.len(),
        "{what}: range {range:?} outside 0..{}",
        words.len()
    );
    assert_eq!(set.watermark(), range.end, "{what}: watermark");
    for (i, &w) in words.iter().enumerate() {
        assert!(
            range.contains(&i) || w == 0,
            "{what}: word {i} = {w:#x} outside the reported range {range:?}"
        );
    }
}

/// `set` holds exactly the reference's members, with an exact `len`, and
/// keeps the range invariant.
fn assert_matches(set: &NodeSet, reference: &[bool], what: &str) {
    assert_range_invariant(set, what);
    let want = to_indices(reference);
    assert_eq!(set.iter().collect::<Vec<_>>(), want, "{what}: members");
    assert_eq!(set.len(), want.len(), "{what}: len");
}

/// A window of ids `start..end` covering `width` words, placed by `place`:
/// 0 = flush with the top of the universe, 1 = the bottom, 2 = one word
/// below the top, anything else = a pseudo-random word.
fn id_window(n: usize, place: u64, width: usize, seed: &mut u64) -> (usize, usize) {
    let words = n.div_ceil(64);
    let width = width.clamp(1, words);
    let first = match place {
        0 => words - width,
        1 => 0,
        2 => words.saturating_sub(width + 1),
        _ => next_bits(seed) as usize % (words - width + 1),
    };
    (first * 64, ((first + width) * 64).min(n))
}

/// A pseudo-random id inside the window `start..end`.
fn id_in(window: (usize, usize), seed: &mut u64) -> usize {
    window.0 + next_bits(seed) as usize % (window.1 - window.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn windowed_sets_match_the_reference_through_random_op_sequences(
        (upick, place_a, place_b) in (0usize..6, 0u64..4, 0u64..4),
        seed in 0u64..1_000_000,
    ) {
        let n = WIDE_UNIVERSES[upick];
        let mut s = seed.wrapping_mul(2).wrapping_add(1);
        let width = |s: &mut u64| 1 + next_bits(s) as usize % 4;
        let (mut a, mut ra) = (NodeSet::new(n), vec![false; n]);
        let (mut b, mut rb) = (NodeSet::new(n), vec![false; n]);
        let mut win_a = id_window(n, place_a, width(&mut s), &mut s);
        let mut win_b = id_window(n, place_b, width(&mut s), &mut s);
        for step in 0..64 {
            let what = format!("n={n} step {step}");
            match next_bits(&mut s) % 16 {
                0..=3 => {
                    let v = id_in(win_a, &mut s);
                    prop_assert_eq!(a.insert(v), !ra[v], "{}: insert {}", what, v);
                    ra[v] = true;
                }
                4..=5 => {
                    let v = id_in(win_b, &mut s);
                    prop_assert_eq!(b.insert(v), !rb[v], "{}: insert {}", what, v);
                    rb[v] = true;
                }
                // Removals leave the range where it was: a stale range.
                6 => {
                    let v = id_in(win_a, &mut s);
                    prop_assert_eq!(a.remove(v), ra[v], "{}: remove {}", what, v);
                    ra[v] = false;
                }
                7 => {
                    for v in a.iter().collect::<Vec<_>>() {
                        a.remove(v);
                    }
                    ra.fill(false);
                }
                8 => {
                    a.clear();
                    ra.fill(false);
                }
                9 => {
                    a.extend(b.iter());
                    ra.iter_mut().zip(&rb).for_each(|(x, &y)| *x |= y);
                }
                10 => {
                    a.intersect_with(&b);
                    ra.iter_mut().zip(&rb).for_each(|(x, &y)| *x &= y);
                }
                11 => {
                    a.difference_with(&b);
                    ra.iter_mut().zip(&rb).for_each(|(x, &y)| *x &= !y);
                }
                12 => {
                    a.copy_from(&b);
                    ra.copy_from_slice(&rb);
                }
                13 => {
                    b.copy_from(&a);
                    rb.copy_from_slice(&ra);
                }
                // Move a window, so later inserts land away from the
                // range the earlier ones left behind.
                14 => {
                    let place = next_bits(&mut s) % 4;
                    win_a = id_window(n, place, width(&mut s), &mut s);
                }
                _ => {
                    std::mem::swap(&mut a, &mut b);
                    std::mem::swap(&mut ra, &mut rb);
                    std::mem::swap(&mut win_a, &mut win_b);
                }
            }
            assert_matches(&a, &ra, &format!("{what}: a"));
            assert_matches(&b, &rb, &format!("{what}: b"));
        }
        // A kernel over a stale range still matches a fresh set built from
        // the same members.
        let mut fresh = NodeSet::new(n);
        fresh.extend(to_indices(&ra));
        prop_assert_eq!(&a, &fresh);
    }
}

/// A pseudo-random graph with edge probability `p`/8 among the `m` nodes
/// `base..base + m` of a universe of `n`; every other node is isolated.
fn random_graph_at(m: usize, base: usize, n: usize, p: u64, seed: &mut u64) -> Graph {
    let mut edges = Vec::new();
    for u in 0..m {
        for v in (u + 1)..m {
            if next_bits(seed) % 8 < p {
                edges.push((base + u, base + v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Runs one slot through the given resolution path and serializes
/// everything observable: per-listener feedback, the elapsed slots, and
/// every device's nonzero listen and transmit counts.
fn run_path(
    g: &Graph,
    cd: CollisionDetection,
    transmitters: &[(usize, u64)],
    listeners: &[usize],
    columnar: bool,
) -> String {
    let n = g.num_nodes();
    let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone()).with_collision_detection(cd);
    let mut frame: SlotFrame<u64> = SlotFrame::new(n);
    for &(v, m) in transmitters {
        frame.transmit.insert(v, m);
    }
    for &v in listeners {
        frame.listen.insert(v);
    }
    if columnar {
        net.step_frame_columnar(&mut frame);
    } else {
        net.step_frame_scan(&mut frame);
    }
    let feedback: Vec<(usize, String)> = frame
        .feedback
        .iter()
        .map(|(v, fb)| (v, format!("{fb:?}")))
        .collect();
    format!(
        "feedback {:?}\nslots {}\nlisten {:?}\ntransmit {:?}",
        feedback,
        net.slots(),
        nonzero(net.meter().listen_counts()),
        nonzero(net.meter().transmit_counts()),
    )
}

/// The nonzero entries of a per-device counter, as `(device, count)`.
fn nonzero(counts: &[u64]) -> Vec<(usize, u64)> {
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c != 0)
        .map(|(v, &c)| (v, c))
        .collect()
}

/// A random transmit/listen split over the nodes `base..base + m`: each
/// transmits with probability `split`/8, otherwise listens with
/// probability 7/8 and idles otherwise.
fn random_roles(
    m: usize,
    base: usize,
    split: u64,
    seed: &mut u64,
) -> (Vec<(usize, u64)>, Vec<usize>) {
    let mut transmitters = Vec::new();
    let mut listeners = Vec::new();
    for v in base..base + m {
        if next_bits(seed) % 8 < split {
            transmitters.push((v, v as u64 + 100));
        } else if !next_bits(seed).is_multiple_of(8) {
            listeners.push(v);
        }
    }
    (transmitters, listeners)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_and_scan_resolution_are_byte_identical(
        (n, p, split) in (2usize..48, 0u64..9, 0u64..8),
        seed in 0u64..1_000_000,
    ) {
        let mut s = seed.wrapping_mul(2).wrapping_add(1);
        // The same draw twice: at the bottom of an n-node universe, and
        // confined to a window near the top of a 2^14-node one (starting at
        // an arbitrary bit of a high word), so the columnar loop's start
        // word is exercised away from word 0.
        let universe = 1usize << 14;
        let high_base = universe - n - (next_bits(&mut s) as usize % 200);
        for (base, total) in [(0, n), (high_base, universe)] {
            let mut draw = s;
            let g = random_graph_at(n, base, total, p, &mut draw);
            let (transmitters, listeners) = random_roles(n, base, split, &mut draw);
            for cd in [CollisionDetection::None, CollisionDetection::Receiver] {
                let scan = run_path(&g, cd, &transmitters, &listeners, false);
                let columnar = run_path(&g, cd, &transmitters, &listeners, true);
                prop_assert_eq!(
                    &scan, &columnar,
                    "paths diverged on n={} base={} p={} split={} cd={:?}",
                    n, base, p, split, cd
                );
            }
        }
    }
}

/// The no-CD Decay run slot by slot: each slot's transmitters and the
/// receivers that have not heard yet go into a [`SlotFrame`] that
/// `step_frame` resolves, and every decoded message is harvested from its
/// feedback lane. The RNG draws are `decay_local_broadcast`'s contract:
/// one `sample_decay_slot` per sender per iteration, in ascending order.
fn decay_slot_by_slot(
    net: &mut RadioNetwork<u64>,
    frame: &mut RoundFrame<u64>,
    params: DecayParams,
    rng: &mut ChaCha8Rng,
) -> u64 {
    let levels = params.slots_per_iteration();
    frame.clear_delivered();
    let (senders, receivers, delivered) = frame.parts_mut();
    let mut slot: SlotFrame<u64> = SlotFrame::new(receivers.universe());
    let mut slots_used = 0u64;
    for _ in 0..params.iterations() {
        let picks: Vec<(usize, usize)> = senders
            .keys()
            .iter()
            .map(|u| (u, sample_decay_slot(levels, rng)))
            .collect();
        for t in 1..=levels {
            slot.clear();
            for &(u, pick) in &picks {
                if pick == t {
                    slot.transmit.insert(u, *senders.get(u).expect("sender"));
                }
            }
            slot.listen.copy_from(receivers);
            slot.listen.difference_with(delivered.keys());
            slot.listen.difference_with(senders.keys());
            net.step_frame(&mut slot);
            slots_used += 1;
            for (v, fb) in slot.feedback.iter() {
                if let Feedback::Received(m) = fb {
                    delivered.insert_if_absent(v, *m);
                }
            }
        }
    }
    slots_used
}

/// A graph on `n` nodes cut into consecutive blocks of random length, each
/// a star, a clique or a random graph with edge probability `p`/8; no edge
/// joins two blocks, so most graphs have several components, and a block
/// of one node is an isolated vertex.
fn mixed_graph(n: usize, p: u64, seed: &mut u64) -> Graph {
    let mut edges = Vec::new();
    let mut start = 0;
    while start < n {
        let block = start..start + 1 + next_bits(seed) as usize % (n - start);
        match next_bits(seed) % 3 {
            0 => edges.extend(block.clone().skip(1).map(|v| (start, v))),
            1 => {
                for u in block.clone() {
                    edges.extend((u + 1..block.end).map(|v| (u, v)));
                }
            }
            _ => {
                for u in block.clone() {
                    for v in u + 1..block.end {
                        if next_bits(seed) % 8 < p {
                            edges.push((u, v));
                        }
                    }
                }
            }
        }
        start = block.end;
    }
    Graph::from_edges(n, &edges)
}

/// Fills `frame` with random roles: each node sends with probability
/// `send`/4 and, independently, receives with probability `receive`/4, so
/// a node may be both, and a side is empty at 0 or all nodes at 4.
fn random_decay_roles(frame: &mut RoundFrame<u64>, send: u64, receive: u64, seed: &mut u64) {
    frame.clear();
    for v in 0..frame.num_nodes() {
        if next_bits(seed) % 4 < send {
            frame.add_sender(v, 1_000 + v as u64);
        }
        if next_bits(seed) % 4 < receive {
            frame.add_receiver(v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transmitter_side_decay_matches_the_slot_by_slot_loop(
        (n, p, send, receive) in (1usize..40, 0u64..9, 0u64..5, 0u64..5),
        (degree_pick, f_pick) in (0usize..3, 0usize..4),
        seed in 0u64..1_000_000,
    ) {
        let mut s = seed.wrapping_mul(2).wrapping_add(1);
        let g = mixed_graph(n, p, &mut s);
        // One slot per iteration, the graph's own Δ, or an arbitrary bound.
        let max_degree = match degree_pick {
            0 => 1,
            1 => g.max_degree(),
            _ => 1 + next_bits(&mut s) as usize % (2 * n),
        };
        let params = DecayParams {
            max_degree,
            failure_prob: [0.5, 0.1, 1e-2, 1e-3][f_pick],
        };
        for rng_seed in [seed, seed ^ 0x9e37_79b9, 7] {
            let mut rng_new = ChaCha8Rng::seed_from_u64(rng_seed);
            let mut rng_old = ChaCha8Rng::seed_from_u64(rng_seed);
            let mut net_new: RadioNetwork<u64> = RadioNetwork::new(g.clone());
            let mut net_old: RadioNetwork<u64> = RadioNetwork::new(g.clone());
            let mut frame_new: RoundFrame<u64> = RoundFrame::new(n);
            let mut scratch: DecayScratch<u64> = DecayScratch::new(n);
            // Two calls with different roles through one frame, scratch and
            // network, so nothing one call leaves behind may leak into the
            // next.
            let mut roles = s ^ rng_seed;
            for (send, receive) in [(send, receive), (receive, send)] {
                random_decay_roles(&mut frame_new, send, receive, &mut roles);
                let mut frame_old = frame_new.clone();
                let got =
                    decay_local_broadcast(&mut net_new, &mut frame_new, &mut scratch, params, &mut rng_new);
                let want = decay_slot_by_slot(&mut net_old, &mut frame_old, params, &mut rng_old);
                let case = format!(
                    "n={n} p={p} roles=({send},{receive}) params={params:?} rng seed {rng_seed}"
                );
                prop_assert_eq!(got, want, "returned slots: {}", case);
                prop_assert_eq!(
                    frame_new.delivered().iter().map(|(v, &m)| (v, m)).collect::<Vec<_>>(),
                    frame_old.delivered().iter().map(|(v, &m)| (v, m)).collect::<Vec<_>>(),
                    "deliveries: {}", case
                );
                prop_assert!(frame_new.feedback().is_empty(), "no-CD feedback: {}", case);
                prop_assert_eq!(net_new.slots(), net_old.slots(), "elapsed slots: {}", case);
                prop_assert_eq!(
                    nonzero(net_new.meter().listen_counts()),
                    nonzero(net_old.meter().listen_counts()),
                    "listen counts: {}", case
                );
                prop_assert_eq!(
                    nonzero(net_new.meter().transmit_counts()),
                    nonzero(net_old.meter().transmit_counts()),
                    "transmit counts: {}", case
                );
            }
            prop_assert_eq!(rng_new.next_u64(), rng_old.next_u64(), "next RNG draw");
        }
    }
}

/// The frame holds exactly the reference senders (with their messages) and
/// receivers, and charges every node of senders ∪ receivers once.
fn assert_frame_matches(
    frame: &RoundFrame<u64>,
    senders: &[Option<u64>],
    receivers: &[bool],
    what: &str,
) {
    let n = frame.num_nodes();
    let want_senders: Vec<(usize, u64)> = senders
        .iter()
        .enumerate()
        .filter_map(|(v, m)| m.map(|m| (v, m)))
        .collect();
    let got_senders: Vec<(usize, u64)> = frame.senders().iter().map(|(v, &m)| (v, m)).collect();
    assert_eq!(got_senders, want_senders, "{what}: senders");
    assert_eq!(
        frame.senders().len(),
        want_senders.len(),
        "{what}: sender count"
    );
    assert_matches(frame.receivers(), receivers, &format!("{what}: receivers"));
    assert_range_invariant(frame.senders().keys(), &format!("{what}: sender set"));
    let mut charged = vec![0u64; n];
    frame.for_each_participant(|v| charged[v] += 1);
    let union: Vec<u64> = (0..n)
        .map(|v| u64::from(senders[v].is_some() || receivers[v]))
        .collect();
    assert_eq!(charged, union, "{what}: one charge per node of S ∪ R");
}

/// Every word and every slot of the frame is empty.
fn assert_frame_empty(frame: &RoundFrame<u64>, what: &str) {
    let n = frame.num_nodes();
    let zero = |words: &[u64]| words.iter().all(|&w| w == 0);
    assert!(zero(frame.senders().keys().words()), "{what}: sender words");
    assert!(zero(frame.receivers().words()), "{what}: receiver words");
    assert!(
        zero(frame.delivered().keys().words()),
        "{what}: delivery words"
    );
    assert!(
        zero(frame.feedback().keys().words()),
        "{what}: feedback words"
    );
    for v in 0..n {
        assert!(
            frame.senders().get(v).is_none()
                && frame.delivered().get(v).is_none()
                && frame.feedback().get(v).is_none(),
            "{what}: slot {v} survived the clear"
        );
    }
    let mut charged = 0;
    frame.for_each_participant(|_| charged += 1);
    assert_eq!(charged, 0, "{what}: a cleared frame charges nobody");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reused_frame_charges_the_union_and_clears_every_word(
        n in 1usize..301,
        seed in 0u64..1_000_000,
    ) {
        let mut s = seed.wrapping_mul(2).wrapping_add(1);
        let mut frame: RoundFrame<u64> = RoundFrame::new(n);
        let mut senders: Vec<Option<u64>> = vec![None; n];
        let mut receivers = vec![false; n];
        let mut held: NodeSlots<u64> = NodeSlots::new(n);
        // Ids are drawn from a few far-apart words, so a sparse frame's
        // occupied range is wider than its participant list.
        let spread = |s: &mut u64| {
            let words = n.div_ceil(64);
            let w = [0, words / 2, words - 1][next_bits(s) as usize % 3];
            (w * 64 + next_bits(s) as usize % 64).min(n - 1)
        };
        for step in 0..96 {
            let what = format!("n={n} step {step}");
            match next_bits(&mut s) % 16 {
                0..=3 => {
                    // Overwrites an existing sender's message now and then.
                    let v = spread(&mut s);
                    let m = next_bits(&mut s) % 1_000;
                    frame.add_sender(v, m);
                    senders[v] = Some(m);
                }
                4..=6 => {
                    // Duplicates, and ids that are also senders.
                    let v = if next_bits(&mut s).is_multiple_of(3) {
                        (0..n).find(|&u| senders[u].is_some()).unwrap_or(0)
                    } else {
                        spread(&mut s)
                    };
                    frame.add_receiver(v);
                    receivers[v] = true;
                }
                7 => {
                    let (set, bits) = random_set(n, next_bits(&mut s) % 65, &mut s);
                    frame.set_receivers(&set);
                    receivers = bits;
                }
                8 => {
                    // A dense fill, as a clustering round or a sweep makes.
                    for v in 0..n {
                        if next_bits(&mut s).is_multiple_of(2) {
                            frame.add_receiver(v);
                            receivers[v] = true;
                        } else if next_bits(&mut s).is_multiple_of(4) {
                            frame.add_sender(v, v as u64);
                            senders[v] = Some(v as u64);
                        }
                    }
                }
                9 => {
                    // A backend's output: deliveries and verdicts for some
                    // receivers that are not senders.
                    let (_, r, delivered, feedback) = frame.parts_with_feedback_mut();
                    for v in r.iter().collect::<Vec<_>>() {
                        if senders[v].is_none() && next_bits(&mut s).is_multiple_of(2) {
                            delivered.insert(v, 7_000 + v as u64);
                            feedback.insert(v, LbFeedback::Delivered);
                        }
                    }
                }
                10 => {
                    let before: Vec<(usize, u64)> =
                        frame.delivered().iter().map(|(v, &m)| (v, m)).collect();
                    let mut other: Vec<(usize, u64)> =
                        held.iter().map(|(v, &m)| (v, m)).collect();
                    frame.swap_delivered(&mut held);
                    prop_assert_eq!(
                        held.iter().map(|(v, &m)| (v, m)).collect::<Vec<_>>(),
                        before,
                        "{}: swapped-out deliveries", what
                    );
                    other.sort_unstable();
                    prop_assert_eq!(
                        frame.delivered().iter().map(|(v, &m)| (v, m)).collect::<Vec<_>>(),
                        other,
                        "{}: swapped-in deliveries", what
                    );
                }
                _ => {
                    frame.clear();
                    senders.fill(None);
                    receivers.fill(false);
                    assert_frame_empty(&frame, &what);
                }
            }
            assert_frame_matches(&frame, &senders, &receivers, &what);
        }
        // Both clear paths at the end of every case: participants at both
        // ends of the universe (listed, and cheaper than their range once
        // n spans three words), then every node (past the lists' cap).
        frame.clear();
        for v in [0, n - 1, 0] {
            frame.add_sender(v, 1);
        }
        for v in [n / 2, n - 1, n / 2] {
            frame.add_receiver(v);
        }
        frame.parts_mut().2.insert(n / 2, 3);
        frame.clear();
        assert_frame_empty(&frame, &format!("n={n} final sparse clear"));
        for v in 0..n {
            frame.add_receiver(v);
            frame.add_sender(v, 2);
        }
        frame.clear();
        assert_frame_empty(&frame, &format!("n={n} final dense clear"));
    }
}
