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
//!   frames (feedback lane, received index) and identical energy meters on
//!   random graphs and random transmit/listen splits, with and without
//!   receiver-side collision detection — the invariant that makes the
//!   adaptive dispatch in `step_frame` unobservable — both at the bottom of
//!   the id space and with every participant confined to a high id window.

use proptest::prelude::*;

use radio_graph::Graph;
use radio_sim::{CollisionDetection, NodeSet, RadioNetwork, SlotFrame};

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

        // union_with ≡ per-bit OR.
        let mut u = a.clone();
        u.union_with(&b);
        let ru: Vec<bool> = ra.iter().zip(&rb).map(|(&x, &y)| x || y).collect();
        prop_assert_eq!(u.iter().collect::<Vec<_>>(), to_indices(&ru));
        prop_assert_eq!(u.len(), to_indices(&ru).len());

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

        // count_intersection / is_disjoint ≡ the reference counts.
        let ric = ra.iter().zip(&rb).filter(|(&x, &y)| x && y).count();
        prop_assert_eq!(a.count_intersection(&b), ric);
        prop_assert_eq!(a.is_disjoint(&b), ric == 0);
        prop_assert_eq!(a.count_intersection(&b), b.count_intersection(&a));

        // copy_from adopts the source exactly, even from a dirty target.
        let mut c = u.clone();
        c.copy_from(&a);
        prop_assert_eq!(&c, &a);

        // Kernels on a cleared set behave as on a fresh one (the range
        // reset is invisible).
        let mut cleared = u;
        cleared.clear();
        prop_assert_eq!(cleared.len(), 0);
        cleared.union_with(&a);
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
                    a.union_with(&b);
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
            let shared = ra.iter().zip(&rb).filter(|(&x, &y)| x && y).count();
            prop_assert_eq!(a.count_intersection(&b), shared, "{}", what);
            prop_assert_eq!(b.count_intersection(&a), shared, "{}", what);
            prop_assert_eq!(a.is_disjoint(&b), shared == 0, "{}", what);
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
/// everything observable: per-listener feedback, the received index, the
/// elapsed slots, and every device's nonzero listen and transmit counts.
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
    let nonzero = |counts: &[u64]| -> Vec<(usize, u64)> {
        counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(v, &c)| (v, c))
            .collect()
    };
    format!(
        "feedback {:?}\nreceived {:?}\nslots {}\nlisten {:?}\ntransmit {:?}",
        feedback,
        frame.received.iter().collect::<Vec<_>>(),
        net.slots(),
        nonzero(net.meter().listen_counts()),
        nonzero(net.meter().transmit_counts()),
    )
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
