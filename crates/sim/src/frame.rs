//! Dense, reusable round-frame data structures.
//!
//! Every protocol in this repository is a sequence of rounds in which a
//! *sparse subset* of a *fixed universe* of nodes acts. Representing those
//! subsets as `HashMap`/`HashSet` (as the seed did) costs an allocation and
//! a hash per participant per round, and — because hash iteration order is
//! randomized per process — forces every consumer that draws from a seeded
//! RNG to sort the keys first to stay deterministic.
//!
//! The types here make determinism a *structural* property instead:
//!
//! * [`NodeSet`] — a dense bitset over `0..n` whose iterator is ascending
//!   by construction. No sort is ever needed.
//! * [`NodeSlots<T>`] — a slot-indexed arena `node → T` backed by a
//!   `Vec<Option<T>>` plus a [`NodeSet`] occupancy index, so membership is
//!   one bit-test and iteration is ascending.
//! * [`RoundFrame<M>`] — one Local-Broadcast-shaped round: senders (with
//!   their messages), receivers, and the delivered output, all reusable
//!   across calls via [`RoundFrame::clear`] (clearing touches only the
//!   words and slots the previous round occupied, so a sparse round on a
//!   large universe stays cheap wherever its ids sit).
//! * [`SlotFrame<M>`] — one physical channel slot: transmitters, listeners,
//!   and per-listener feedback — the only input of
//!   [`RadioNetwork::step_frame`](crate::network::RadioNetwork::step_frame),
//!   the simulator's one way to run a slot.

use crate::model::{Feedback, LbFeedback};

/// The low end of an empty set's occupied-word range: above every real
/// word index, so widening the range is a plain `min`/`max` with no
/// emptiness branch on the insert path.
const EMPTY_LO: usize = usize::MAX;

/// A dense set of node identifiers over a fixed universe `0..n`.
///
/// Insert, remove and membership are `O(1)`; iteration is ascending by
/// construction. Every set carries a conservative *occupied-word range*
/// `lo..hi` over its `u64` blocks: every word outside it is zero. Insert
/// grows the range, [`NodeSet::clear`] resets it, and the word loops —
/// `clear`, `iter` and the bulk kernels — run only inside it, so a sparse
/// set costs the words it touches wherever its members sit in a large
/// universe, not the position of its highest member.
///
/// The bulk kernels ([`NodeSet::union_with`], [`NodeSet::intersect_with`],
/// [`NodeSet::difference_with`], [`NodeSet::copy_from`],
/// [`NodeSet::is_disjoint`], [`NodeSet::count_intersection`]) are written
/// as straight-line loops over `u64` blocks — 64 membership decisions per
/// iteration, autovectorizer-friendly — with `len` kept exact by
/// `count_ones` accumulation. Raw word access for external kernels is
/// available through [`NodeSet::words`] / [`NodeSet::words_mut`] +
/// [`NodeSet::recount`], with [`NodeSet::occupied_words`] naming the range
/// a read-only kernel needs to walk.
///
/// # Out-of-universe ids
///
/// The mutating and querying entry points deliberately differ on ids
/// `v >= universe`: [`NodeSet::insert`] **panics** (an out-of-universe
/// insert is always a logic error — the bit has nowhere to live), while
/// [`NodeSet::remove`] and [`NodeSet::contains`] tolerate them (removing a
/// non-member is a no-op and an out-of-universe id is never a member, so
/// both have a sensible total answer). Frame-reuse call sites that probe
/// speculatively can use [`NodeSet::try_insert`] instead of pre-checking.
#[derive(Clone, Debug)]
pub struct NodeSet {
    words: Vec<u64>,
    universe: usize,
    len: usize,
    /// The occupied-word range `lo..hi`: every word outside it is zero.
    /// Grows on insert and union, resets on clear, and is *not* shrunk by
    /// remove — it is a conservative bound, not an exact one. An empty
    /// range is stored as `EMPTY_LO..0`, which
    /// [`NodeSet::occupied_words`] reports as `0..0`.
    lo: usize,
    hi: usize,
}

/// Equality is semantic — same universe, same members. The occupied-word
/// range is bookkeeping (two equal sets may carry different ranges after
/// different insert/remove histories), so `PartialEq` is implemented by
/// hand over `universe` and the words rather than derived.
impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.len == other.len && self.words == other.words
    }
}

impl Eq for NodeSet {}

/// The empty set over the empty universe.
impl Default for NodeSet {
    fn default() -> Self {
        NodeSet::new(0)
    }
}

impl NodeSet {
    /// An empty set over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
            universe: n,
            len: 0,
            lo: EMPTY_LO,
            hi: 0,
        }
    }

    /// Size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every member. `O(occupied range)`: only the words that may
    /// hold bits are zeroed, so clearing a sparse set over a big universe
    /// costs proportional to what was actually occupied.
    #[inline]
    pub fn clear(&mut self) {
        let range = self.occupied_words();
        self.words[range].fill(0);
        self.forget_range();
    }

    /// Removes every member in one pass over the occupied words, handing
    /// each to `f` in ascending order before its word is zeroed.
    /// `O(occupied range + |set|)`.
    fn clear_each(&mut self, mut f: impl FnMut(usize)) {
        for w in self.occupied_words() {
            let mut bits = std::mem::take(&mut self.words[w]);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.forget_range();
    }

    /// Resets the bookkeeping once every word is zero.
    #[inline]
    fn forget_range(&mut self) {
        (self.len, self.lo, self.hi) = (0, EMPTY_LO, 0);
    }

    /// The words both sets' occupied ranges share (empty if they do not
    /// overlap) — the only words where a bit can be in both sets.
    fn overlap(&self, other: &NodeSet) -> std::ops::Range<usize> {
        let hi = self.hi.min(other.hi);
        self.lo.max(other.lo).min(hi)..hi
    }

    /// Inserts `v`; returns `true` if it was not already present.
    ///
    /// Panics if `v` is outside the universe (see the type-level note on
    /// out-of-universe ids; use [`NodeSet::try_insert`] to probe instead).
    #[inline]
    pub fn insert(&mut self, v: usize) -> bool {
        assert!(
            v < self.universe,
            "node {v} outside universe {}",
            self.universe
        );
        let (w, b) = (v / 64, 1u64 << (v % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        self.len += usize::from(fresh);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w + 1);
        fresh
    }

    /// Non-panicking [`NodeSet::insert`]: returns `true` iff `v` is inside
    /// the universe *and* was not already present. Out-of-universe ids are
    /// ignored (mirroring how [`NodeSet::remove`] / [`NodeSet::contains`]
    /// treat them), which is the shape speculative frame-reuse call sites
    /// want.
    pub fn try_insert(&mut self, v: usize) -> bool {
        if v >= self.universe {
            return false;
        }
        self.insert(v)
    }

    /// Removes `v`; returns `true` if it was present. Out-of-universe ids
    /// are tolerated (never members, so removal is a no-op).
    pub fn remove(&mut self, v: usize) -> bool {
        if v >= self.universe {
            return false;
        }
        let (w, b) = (v / 64, 1u64 << (v % 64));
        let present = self.words[w] & b != 0;
        self.words[w] &= !b;
        self.len -= usize::from(present);
        present
    }

    /// Keeps only the members for which `keep` returns `true`, asking in
    /// ascending order. `O(occupied range + |set|)`; the range is kept, as
    /// after [`NodeSet::remove`].
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for w in self.occupied_words() {
            let mut bits = self.words[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !keep(w * 64 + b) {
                    self.words[w] &= !(1u64 << b);
                    self.len -= 1;
                }
            }
        }
    }

    /// Membership test. `O(1)`; out-of-universe ids are never members.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        v < self.universe && self.words[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Iterates the members in ascending order. `O(occupied range + |set|)`.
    #[inline]
    pub fn iter(&self) -> NodeSetIter<'_> {
        let range = self.occupied_words();
        let words = &self.words[..range.end];
        NodeSetIter {
            words,
            word_idx: range.start,
            current: words.get(range.start).copied().unwrap_or(0),
        }
    }

    /// Inserts every id produced by `iter`.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = usize>) {
        for v in iter {
            self.insert(v);
        }
    }

    /// The occupied-word range `lo..hi`: every word of [`NodeSet::words`]
    /// outside it is zero, so a read-only word loop over
    /// `words()[occupied_words()]` sees every member. Conservative — words
    /// inside it may be zero too — and `0..0` for a cleared or fresh set.
    #[inline]
    pub fn occupied_words(&self) -> std::ops::Range<usize> {
        self.lo.min(self.hi)..self.hi
    }

    /// One past the highest word index that may hold a set bit — the high
    /// end of [`NodeSet::occupied_words`]. Words at `watermark()..` of
    /// [`NodeSet::words`] are guaranteed zero, so word loops over
    /// `words()[..watermark()]` see every member.
    pub fn watermark(&self) -> usize {
        self.hi
    }

    /// The raw backing words, least-significant bit of word `w` = node
    /// `64 * w`. The slice always has `universe.div_ceil(64)` words; those
    /// outside [`NodeSet::occupied_words`] are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw word access for external word-at-a-time kernels.
    ///
    /// After writing through this slice the cached `len` and occupied-word
    /// range are stale — call [`NodeSet::recount`] before using any other
    /// method. Callers must not set bits at `universe` or beyond.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Recomputes `len` and the occupied-word range (tight: first to last
    /// nonzero word) from the raw words after a [`NodeSet::words_mut`]
    /// edit. `O(n/64)` — the one method that walks the whole universe,
    /// because an external edit may have touched any word.
    pub fn recount(&mut self) {
        debug_assert!(
            self.universe.is_multiple_of(64)
                || self
                    .words
                    .last()
                    .is_none_or(|&w| w >> (self.universe % 64) == 0),
            "bit set beyond universe {}",
            self.universe
        );
        let (mut len, mut lo, mut hi) = (0usize, EMPTY_LO, 0usize);
        for (i, &w) in self.words.iter().enumerate() {
            len += w.count_ones() as usize;
            if w != 0 {
                lo = lo.min(i);
                hi = i + 1;
            }
        }
        (self.len, self.lo, self.hi) = (len, lo, hi);
    }

    /// Makes this set a copy of `other` (same universe required) without
    /// reallocating. `O(both occupied ranges)`: the words of `self`'s range
    /// that `other`'s does not cover are zeroed, `other`'s range is copied,
    /// and the rest of the universe is zero on both sides already.
    pub fn copy_from(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let (own, src) = (self.occupied_words(), other.occupied_words());
        // Stale words of `self` below and above `other`'s range.
        if own.start < src.start {
            self.words[own.start..src.start.min(own.end)].fill(0);
        }
        if own.end > src.end {
            self.words[src.end.max(own.start)..own.end].fill(0);
        }
        self.words[src.clone()].copy_from_slice(&other.words[src]);
        (self.len, self.lo, self.hi) = (other.len, other.lo, other.hi);
    }

    /// `self |= other` (same universe required), word-parallel over
    /// `other`'s occupied range; `len` stays exact by counting the bits
    /// each word gains.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let src = other.occupied_words();
        let mut gained = 0usize;
        for (a, &b) in self.words[src.clone()].iter_mut().zip(&other.words[src]) {
            gained += (b & !*a).count_ones() as usize;
            *a |= b;
        }
        self.len += gained;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }

    /// `self &= other` (same universe required), word-parallel over
    /// `self`'s occupied range; the range narrows to the overlap of both
    /// sets' ranges, the only words a common member can sit in.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let both = self.overlap(other);
        if both.is_empty() {
            self.clear();
            return;
        }
        let own = self.occupied_words();
        self.words[own.start..both.start].fill(0);
        self.words[both.end..own.end].fill(0);
        let mut len = 0usize;
        for (a, &b) in self.words[both.clone()]
            .iter_mut()
            .zip(&other.words[both.clone()])
        {
            let w = *a & b;
            *a = w;
            len += w.count_ones() as usize;
        }
        (self.len, self.lo, self.hi) = (len, both.start, both.end);
    }

    /// `self -= other` (same universe required), word-parallel over the
    /// overlap of both sets' occupied ranges — elsewhere one side is zero
    /// and nothing changes. The range is kept (removal never grows it).
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let both = self.overlap(other);
        let mut removed = 0usize;
        for (a, &b) in self.words[both.clone()].iter_mut().zip(&other.words[both]) {
            removed += (*a & b).count_ones() as usize;
            *a &= !b;
        }
        self.len -= removed;
    }

    /// `true` iff the sets share no member (same universe required).
    /// Word-parallel over the overlap of the occupied ranges, with early
    /// exit on the first shared word.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let both = self.overlap(other);
        self.words[both.clone()]
            .iter()
            .zip(&other.words[both])
            .all(|(&a, &b)| a & b == 0)
    }

    /// `|self & other|` without materialising the intersection (same
    /// universe required), word-parallel `count_ones` accumulation over the
    /// overlap of the occupied ranges.
    pub fn count_intersection(&self, other: &NodeSet) -> usize {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let both = self.overlap(other);
        self.words[both.clone()]
            .iter()
            .zip(&other.words[both])
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = usize;
    type IntoIter = NodeSetIter<'a>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Ascending iterator over a [`NodeSet`].
pub struct NodeSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for NodeSetIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

/// A slot-indexed arena mapping node ids to values, with a [`NodeSet`]
/// occupancy index.
///
/// This is the dense replacement for `HashMap<usize, T>` in per-round
/// message plumbing: `O(1)` unhashed insert/lookup, ascending iteration by
/// construction, and `clear` touches only the occupied slots (so reuse
/// across sparse rounds is cheap even over a large universe).
#[derive(Clone, Debug)]
pub struct NodeSlots<T> {
    slots: Vec<Option<T>>,
    occupied: NodeSet,
}

impl<T> NodeSlots<T> {
    /// An empty arena over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        NodeSlots {
            slots: (0..n).map(|_| None).collect(),
            occupied: NodeSet::new(n),
        }
    }

    /// Size of the universe.
    pub fn universe(&self) -> usize {
        self.occupied.universe()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// `true` if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Removes and drops every entry in one pass over the occupied words:
    /// each word's members have their values dropped, then the word is
    /// zeroed. `O(occupied range + |occupied|)`, so sparse rounds over big
    /// universes cost what they touched. Values are dropped, not left stale,
    /// so a cleared arena holds no heap payload alive.
    pub fn clear(&mut self) {
        let slots = &mut self.slots;
        self.occupied.clear_each(|v| slots[v] = None);
    }

    /// Inserts `value` at node `v`, replacing any previous value.
    pub fn insert(&mut self, v: usize, value: T) {
        self.slots[v] = Some(value);
        self.occupied.insert(v);
    }

    /// Inserts only if `v` is unoccupied (first-write-wins semantics, the
    /// shape every delivery loop in this repository wants).
    pub fn insert_if_absent(&mut self, v: usize, value: T) {
        if !self.occupied.contains(v) {
            self.insert(v, value);
        }
    }

    /// The value at node `v`, if any.
    pub fn get(&self, v: usize) -> Option<&T> {
        self.slots.get(v).and_then(|s| s.as_ref())
    }

    /// Membership test: `O(1)` against the occupancy bitset.
    pub fn contains(&self, v: usize) -> bool {
        self.occupied.contains(v)
    }

    /// The occupancy index (e.g. to iterate keys only).
    pub fn keys(&self) -> &NodeSet {
        &self.occupied
    }

    /// Iterates `(node, &value)` in ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.occupied
            .iter()
            .map(|v| (v, self.slots[v].as_ref().expect("occupied slot")))
    }
}

/// One Local-Broadcast-shaped round over a fixed universe of nodes:
/// senders (each with a message), receivers, and the delivered output.
///
/// The frame is the unit of reuse: allocate it once per network (e.g. via
/// `RadioStack::new_frame` in `radio-protocols`), then `clear`/fill/call for
/// every round. Backends write deliveries through [`RoundFrame::parts_mut`],
/// which splits the frame into disjoint input/output borrows.
#[derive(Clone, Debug)]
pub struct RoundFrame<M> {
    senders: NodeSlots<M>,
    receivers: NodeSet,
    delivered: NodeSlots<M>,
    feedback: NodeSlots<LbFeedback>,
}

impl<M> RoundFrame<M> {
    /// An empty frame over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        RoundFrame {
            senders: NodeSlots::new(n),
            receivers: NodeSet::new(n),
            delivered: NodeSlots::new(n),
            feedback: NodeSlots::new(n),
        }
    }

    /// Size of the node universe this frame ranges over.
    pub fn num_nodes(&self) -> usize {
        self.receivers.universe()
    }

    /// Clears senders, receivers, deliveries and feedback for reuse, each
    /// in `O(occupied range + |set|)`.
    pub fn clear(&mut self) {
        self.senders.clear();
        self.receivers.clear();
        self.delivered.clear();
        self.feedback.clear();
    }

    /// Registers `v` as a sender holding `m`.
    pub fn add_sender(&mut self, v: usize, m: M) {
        self.senders.insert(v, m);
    }

    /// Registers `v` as a receiver.
    pub fn add_receiver(&mut self, v: usize) {
        self.receivers.insert(v);
    }

    /// Replaces the receiver set with a copy of `set` (same universe
    /// required) — the word-parallel bulk form of [`RoundFrame::add_receiver`]
    /// for drivers that already track their listening frontier as a
    /// [`NodeSet`].
    pub fn set_receivers(&mut self, set: &NodeSet) {
        self.receivers.copy_from(set);
    }

    /// The sender arena.
    pub fn senders(&self) -> &NodeSlots<M> {
        &self.senders
    }

    /// The receiver set.
    pub fn receivers(&self) -> &NodeSet {
        &self.receivers
    }

    /// The messages delivered by the last call executed on this frame.
    pub fn delivered(&self) -> &NodeSlots<M> {
        &self.delivered
    }

    /// Per-receiver channel verdicts of the last call, populated only by
    /// collision-detection-capable backends (empty otherwise). A receiver
    /// holding [`LbFeedback::Silence`] learned that it has no sending
    /// neighbour — the signal CD-aware protocols branch on.
    pub fn feedback(&self) -> &NodeSlots<LbFeedback> {
        &self.feedback
    }

    /// Splits the frame into `(senders, receivers, delivered)` with the
    /// output mutably borrowed — the shape every backend needs to read the
    /// inputs while recording deliveries.
    pub fn parts_mut(&mut self) -> (&NodeSlots<M>, &NodeSet, &mut NodeSlots<M>) {
        (&self.senders, &self.receivers, &mut self.delivered)
    }

    /// Like [`RoundFrame::parts_mut`], additionally borrowing the feedback
    /// lane mutably — the shape collision-detection-capable backends need to
    /// record per-receiver verdicts alongside deliveries.
    pub fn parts_with_feedback_mut(
        &mut self,
    ) -> (
        &NodeSlots<M>,
        &NodeSet,
        &mut NodeSlots<M>,
        &mut NodeSlots<LbFeedback>,
    ) {
        (
            &self.senders,
            &self.receivers,
            &mut self.delivered,
            &mut self.feedback,
        )
    }

    /// Clears only the per-call outputs — deliveries and feedback (backends
    /// call this on entry so a reused frame never leaks the previous round's
    /// results).
    pub fn clear_delivered(&mut self) {
        self.delivered.clear();
        self.feedback.clear();
    }

    /// Swaps the delivery arena with `other` (same universe required), e.g.
    /// to hold on to one round's output while the frame is reused for the
    /// next round without cloning messages.
    pub fn swap_delivered(&mut self, other: &mut NodeSlots<M>) {
        assert_eq!(other.universe(), self.delivered.universe());
        std::mem::swap(&mut self.delivered, other);
    }
}

/// One physical channel slot in columnar form: who transmits (with the
/// payload), who listens, and — after
/// [`RadioNetwork::step_frame`](crate::network::RadioNetwork::step_frame) —
/// what each listener heard.
#[derive(Clone, Debug)]
pub struct SlotFrame<M> {
    /// Transmitters and their payloads.
    pub transmit: NodeSlots<M>,
    /// Listeners.
    pub listen: NodeSet,
    /// Per-listener feedback (filled by the network).
    pub feedback: NodeSlots<Feedback<M>>,
    /// The listeners whose feedback is [`Feedback::Received`] (filled by the
    /// network alongside `feedback`), so harvest loops walk only the
    /// deliveries instead of re-classifying every listener.
    pub received: NodeSet,
}

impl<M> SlotFrame<M> {
    /// An empty slot frame over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        SlotFrame {
            transmit: NodeSlots::new(n),
            listen: NodeSet::new(n),
            feedback: NodeSlots::new(n),
            received: NodeSet::new(n),
        }
    }

    /// Clears transmitters, listeners, feedback and the received index for
    /// the next slot.
    pub fn clear(&mut self) {
        self.transmit.clear();
        self.listen.clear();
        self.feedback.clear();
        self.received.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_and_scratch_are_send_sound() {
        // Per-worker frame/scratch sets cross thread boundaries in the
        // parallel scenario runner; pin the auto-traits here so any future
        // shared-interior-mutability addition fails at the source.
        fn assert_send<T: Send>() {}
        assert_send::<NodeSet>();
        assert_send::<NodeSlots<u64>>();
        assert_send::<RoundFrame<u64>>();
        assert_send::<SlotFrame<u64>>();
        assert_send::<crate::DecayScratch<u64>>();
        assert_send::<crate::RadioNetwork<u64>>();
        assert_send::<crate::EnergyMeter>();
    }

    #[test]
    fn node_set_insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(s.insert(64));
        assert!(!s.insert(64), "double insert reports not-fresh");
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(130));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn node_set_iterates_ascending_by_construction() {
        let mut s = NodeSet::new(200);
        for v in [199, 0, 63, 64, 65, 127, 128, 3] {
            s.insert(v);
        }
        let order: Vec<usize> = s.iter().collect();
        assert_eq!(order, vec![0, 3, 63, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn node_set_clear_resets() {
        let mut s = NodeSet::new(70);
        s.extend([1, 2, 69]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(1));
    }

    #[test]
    #[should_panic]
    fn node_set_rejects_out_of_universe_insert() {
        NodeSet::new(4).insert(4);
    }

    #[test]
    fn node_set_try_insert_tolerates_out_of_universe() {
        let mut s = NodeSet::new(4);
        assert!(s.try_insert(3));
        assert!(!s.try_insert(3), "duplicate reports not-fresh");
        assert!(!s.try_insert(4), "out-of-universe is ignored");
        assert!(!s.try_insert(1000));
        assert_eq!(s.len(), 1);
        assert!(!s.contains(4));
    }

    #[test]
    fn node_set_equality_ignores_watermark_history() {
        let mut a = NodeSet::new(300);
        let mut b = NodeSet::new(300);
        a.insert(5);
        a.insert(299); // watermark high...
        a.remove(299); // ...and left high by remove
        b.insert(5);
        assert_eq!(a, b, "same members, different watermarks");
        assert_ne!(a, NodeSet::new(300));
        assert_ne!(NodeSet::new(64), NodeSet::new(65), "universe is semantic");
    }

    #[test]
    fn node_set_watermark_clear_then_reuse() {
        let mut s = NodeSet::new(640);
        s.insert(639);
        assert_eq!(s.watermark(), 10);
        s.clear();
        assert_eq!(s.watermark(), 0);
        s.insert(2);
        assert_eq!(s.watermark(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2]);
        assert!(!s.contains(639));
    }

    #[test]
    fn node_set_bulk_kernels_match_per_bit_semantics() {
        let n = 200;
        let xs = [0usize, 3, 63, 64, 65, 127, 128, 199];
        let ys = [3usize, 64, 66, 128, 190, 199];
        let mut a = NodeSet::new(n);
        a.extend(xs);
        let mut b = NodeSet::new(n);
        b.extend(ys);

        let mut u = a.clone();
        u.union_with(&b);
        let want: Vec<usize> = (0..n)
            .filter(|v| xs.contains(v) || ys.contains(v))
            .collect();
        assert_eq!(u.iter().collect::<Vec<_>>(), want);
        assert_eq!(u.len(), want.len());

        let mut i = a.clone();
        i.intersect_with(&b);
        let want: Vec<usize> = (0..n)
            .filter(|v| xs.contains(v) && ys.contains(v))
            .collect();
        assert_eq!(i.iter().collect::<Vec<_>>(), want);
        assert_eq!(i.len(), want.len());
        assert_eq!(a.count_intersection(&b), want.len());
        assert!(!a.is_disjoint(&b));

        let mut d = a.clone();
        d.difference_with(&b);
        let want: Vec<usize> = (0..n)
            .filter(|v| xs.contains(v) && !ys.contains(v))
            .collect();
        assert_eq!(d.iter().collect::<Vec<_>>(), want);
        assert_eq!(d.len(), want.len());
        assert!(
            d.is_disjoint(&i),
            "difference and intersection are disjoint"
        );
        assert_eq!(d.count_intersection(&i), 0);

        let mut r = a.clone();
        let mut asked = Vec::new();
        r.retain(|v| {
            asked.push(v);
            ys.contains(&v)
        });
        assert_eq!(asked, xs, "every member asked once, ascending");
        assert_eq!(r, i, "retaining the members of b is intersecting with b");
    }

    #[test]
    fn node_set_copy_from_overwrites_stale_high_words() {
        let n = 300;
        let mut a = NodeSet::new(n);
        a.insert(299); // high watermark in the destination
        let mut b = NodeSet::new(n);
        b.insert(1);
        a.copy_from(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(a.len(), 1);
        assert!(!a.contains(299), "stale high word must be zeroed");
        a.insert(299);
        assert!(a.contains(299), "watermark grows back on insert");
    }

    #[test]
    fn node_set_occupied_range_is_two_sided() {
        let mut s = NodeSet::new(64 * 100);
        assert_eq!(s.occupied_words(), 0..0);
        s.insert(64 * 90 + 5);
        assert_eq!(s.occupied_words(), 90..91, "a high member starts high");
        s.insert(64 * 95);
        s.insert(64 * 92 + 63);
        assert_eq!(s.occupied_words(), 90..96);
        assert_eq!(s.watermark(), 96, "watermark is the high end");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5765, 5951, 6080]);
        s.remove(64 * 90 + 5);
        assert_eq!(s.occupied_words(), 90..96, "remove keeps the range");
        let mut low = NodeSet::new(64 * 100);
        low.insert(3);
        s.union_with(&low);
        assert_eq!(s.occupied_words(), 0..96, "union covers both ranges");
        s.intersect_with(&low);
        assert_eq!(s.occupied_words(), 0..1, "intersect narrows to the overlap");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3]);
        let mut high = NodeSet::new(64 * 100);
        high.insert(64 * 99 + 1);
        s.copy_from(&high);
        assert_eq!(s.occupied_words(), 99..100, "copy adopts the source range");
        assert_eq!(s.words()[0], 0, "the stale low word is zeroed");
        s.clear();
        assert_eq!(s.occupied_words(), 0..0);
        assert!(s.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn node_set_words_mut_recount_round_trip() {
        let mut s = NodeSet::new(130);
        s.insert(129);
        s.words_mut()[0] = 0b1011;
        s.recount();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 3, 129]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.occupied_words(), 0..3);
        s.words_mut()[0] = 0;
        s.recount();
        assert_eq!(s.occupied_words(), 2..3, "recount finds the low end too");
        s.words_mut().fill(0);
        s.recount();
        assert!(s.is_empty());
        assert_eq!(s.watermark(), 0);
    }

    #[test]
    fn node_slots_round_trip_and_first_write_wins() {
        let mut m: NodeSlots<u64> = NodeSlots::new(100);
        m.insert(7, 70);
        m.insert(3, 30);
        m.insert_if_absent(7, 71);
        assert_eq!(m.get(7), Some(&70), "first write wins");
        m.insert(7, 72);
        assert_eq!(m.get(7), Some(&72), "plain insert overwrites");
        assert_eq!(m.len(), 2);
        let pairs: Vec<(usize, u64)> = m.iter().map(|(v, &x)| (v, x)).collect();
        assert_eq!(pairs, vec![(3, 30), (7, 72)]);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(7), None);
    }

    #[test]
    fn node_slots_clear_drops_what_it_clears() {
        use std::rc::Rc;
        let n = 64 * 6;
        // Members on both sides of word boundaries, and in a word of their
        // own far from the rest.
        let members = [0usize, 63, 64, 65, 127, 128, 191, 64 * 5 + 7];
        let values: Vec<Rc<usize>> = members.iter().map(|&v| Rc::new(v)).collect();
        let mut m: NodeSlots<Rc<usize>> = NodeSlots::new(n);
        for (&v, value) in members.iter().zip(&values) {
            m.insert(v, Rc::clone(value));
        }
        // A range wider than the members, as `NodeSet::remove` leaves it:
        // the last word's only member is taken out again.
        m.insert(n - 1, Rc::new(n - 1));
        drop(m.slots[n - 1].take());
        m.occupied.remove(n - 1);
        assert_eq!(m.keys().occupied_words(), 0..6);
        assert!(values.iter().all(|value| Rc::strong_count(value) == 2));

        m.clear();
        for (&v, value) in members.iter().zip(&values) {
            assert_eq!(Rc::strong_count(value), 1, "the value at {v} was kept");
        }
        assert_eq!(m.len(), 0);
        assert_eq!(m.iter().count(), 0);
        assert!((0..n).all(|v| m.get(v).is_none() && !m.contains(v)));

        // An insert after the clear wins, even where a value used to sit.
        m.insert_if_absent(64, Rc::new(1_000));
        assert_eq!(m.get(64).map(|value| **value), Some(1_000));
        assert_eq!(m.iter().map(|(v, _)| v).collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    fn round_frame_fill_clear_reuse() {
        let mut f: RoundFrame<u64> = RoundFrame::new(10);
        f.add_sender(2, 22);
        f.add_receiver(5);
        let (s, r, d) = f.parts_mut();
        assert_eq!(s.get(2), Some(&22));
        assert!(r.contains(5));
        d.insert(5, 22);
        assert_eq!(f.delivered().get(5), Some(&22));
        f.clear();
        assert!(f.senders().is_empty());
        assert!(f.receivers().is_empty());
        assert!(f.delivered().is_empty());
    }

    #[test]
    fn round_frame_swap_delivered_moves_without_clone() {
        let mut f: RoundFrame<u64> = RoundFrame::new(6);
        f.parts_mut().2.insert(1, 11);
        let mut held: NodeSlots<u64> = NodeSlots::new(6);
        f.swap_delivered(&mut held);
        assert_eq!(held.get(1), Some(&11));
        assert!(f.delivered().is_empty());
    }
}
