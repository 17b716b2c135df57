//! The message type exchanged by all Local-Broadcast-level protocols.
//!
//! Every protocol in this repository encodes its payload as a short vector
//! of 64-bit words (`Msg`). The paper's algorithms only ever need to carry
//! `O(1)` identifiers, layer numbers, and distance labels per message, i.e.
//! `O(log n)` bits: a constant number of words, which the tests check by
//! recording the longest payload each protocol sends.
//!
//! `Msg` is an inline small-vector: up to [`Msg::INLINE_WORDS`] words live
//! directly in the struct, spilling to a heap `Vec` only beyond that. The
//! decay hot loop clones one message per transmitter per slot
//! (`slot.transmit.insert(u, m.clone())`), and the protocol payloads of
//! every spec in the default catalog — wavefront distances (1 word),
//! cast-wrapped distances (2 words), clustering join messages (3 words) —
//! clone without touching the allocator (`tests/paper_claims.rs` checks
//! each spec's longest payload).
//!
//! One known spill: each recursion level wraps its own cast tag around the
//! payload, so `recursive:d=2` (two levels, not in the default catalog)
//! sends 4-word messages on paths, and every clone of one allocates.
//! Whether to widen `INLINE_WORDS` to 4 or drop one tag per level is an
//! open choice of ROADMAP item 5 (per-level β), the work that makes a
//! second level worth running; until then the capacity stays at 3.

/// A Local-Broadcast payload: a short vector of words, stored inline up to
/// [`Msg::INLINE_WORDS`] words.
#[derive(Clone, Debug)]
pub struct Msg(Repr);

#[derive(Clone, Debug)]
enum Repr {
    /// Up to `INLINE_WORDS` words, no heap allocation. `len ≤ INLINE_WORDS`;
    /// words past `len` are zero and never observed.
    Inline {
        len: u8,
        words: [u64; Msg::INLINE_WORDS],
    },
    /// Longer payloads spill to the heap.
    Heap(Vec<u64>),
}

impl Msg {
    /// Number of words stored inline before spilling to the heap.
    pub const INLINE_WORDS: usize = 3;

    /// An empty message (used by pure "beacon"/existence signals).
    pub fn empty() -> Self {
        Msg(Repr::Inline {
            len: 0,
            words: [0; Msg::INLINE_WORDS],
        })
    }

    /// A message with the given words.
    #[inline]
    pub fn words(words: &[u64]) -> Self {
        if words.len() <= Msg::INLINE_WORDS {
            let mut inline = [0u64; Msg::INLINE_WORDS];
            inline[..words.len()].copy_from_slice(words);
            Msg(Repr::Inline {
                len: words.len() as u8,
                words: inline,
            })
        } else {
            Msg(Repr::Heap(words.to_vec()))
        }
    }

    /// The words as a slice (the canonical view; equality and hashing are
    /// defined over it, so inline and spilled representations of the same
    /// words compare equal).
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, words } => &words[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// `true` if the message carries no words.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Word at position `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<u64> {
        self.as_slice().get(i).copied()
    }

    /// Word at position `i`; panics if absent (protocol decoding errors are
    /// programming errors, not runtime conditions).
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.as_slice()[i]
    }

    /// A copy with `word` prepended — the "tag with an identifier" shape
    /// both casts use ([`Msg::split_first`] is the inverse).
    #[inline]
    pub fn prepended(&self, word: u64) -> Msg {
        let s = self.as_slice();
        if s.len() < Msg::INLINE_WORDS {
            let mut words = [0u64; Msg::INLINE_WORDS];
            words[0] = word;
            words[1..=s.len()].copy_from_slice(s);
            Msg(Repr::Inline {
                len: s.len() as u8 + 1,
                words,
            })
        } else {
            let mut v = Vec::with_capacity(s.len() + 1);
            v.push(word);
            v.extend_from_slice(s);
            Msg(Repr::Heap(v))
        }
    }

    /// Splits into the first word and the remaining payload; panics on an
    /// empty message (a decoding error, as with [`Msg::word`]).
    #[inline]
    pub fn split_first(&self) -> (u64, Msg) {
        let s = self.as_slice();
        (s[0], Msg::words(&s[1..]))
    }
}

impl Default for Msg {
    fn default() -> Self {
        Msg::empty()
    }
}

impl PartialEq for Msg {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Msg {}

impl std::hash::Hash for Msg {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl From<Vec<u64>> for Msg {
    fn from(v: Vec<u64>) -> Self {
        if v.len() <= Msg::INLINE_WORDS {
            Msg::words(&v)
        } else {
            Msg(Repr::Heap(v))
        }
    }
}

impl FromIterator<u64> for Msg {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        Msg::from(iter.into_iter().collect::<Vec<u64>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Msg::words(&[3, 7, 11]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.word(1), 7);
        assert_eq!(m.get(2), Some(11));
        assert_eq!(m.get(3), None);
        assert!(Msg::empty().is_empty());
        assert_eq!(Msg::empty().len(), 0);
    }

    #[test]
    fn from_and_collect() {
        let m: Msg = (0..4u64).collect();
        assert_eq!(m, Msg::from(vec![0, 1, 2, 3]));
    }

    #[test]
    fn inline_and_spilled_representations_compare_equal() {
        // A 2-word message reached via split_first on a spilled 5-word
        // message must equal the directly-built inline one.
        let long: Msg = (0..5u64).collect();
        assert!(matches!(long.0, Repr::Heap(_)));
        let (_, rest) = long.split_first();
        let (_, rest) = rest.split_first();
        let (_, rest) = rest.split_first();
        assert!(matches!(rest.0, Repr::Inline { .. }));
        assert_eq!(rest, Msg::words(&[3, 4]));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |m: &Msg| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&rest), hash(&Msg::words(&[3, 4])));
    }

    #[test]
    fn boundary_sizes_round_trip() {
        for n in 0..=6usize {
            let words: Vec<u64> = (0..n as u64).map(|x| x * 100 + 1).collect();
            let m = Msg::words(&words);
            assert_eq!(m.as_slice(), &words[..], "{n} words");
            assert_eq!(m.len(), n);
            let spilled = n > Msg::INLINE_WORDS;
            assert_eq!(matches!(m.0, Repr::Heap(_)), spilled, "{n} words");
        }
    }

    #[test]
    fn prepended_is_inverse_of_split_first() {
        for base in [
            &[][..],
            &[9][..],
            &[9, 8][..],
            &[9, 8, 7][..],
            &[9, 8, 7, 6][..],
        ] {
            let m = Msg::words(base);
            let tagged = m.prepended(42);
            assert_eq!(tagged.len(), base.len() + 1);
            assert_eq!(tagged.word(0), 42);
            let (tag, payload) = tagged.split_first();
            assert_eq!(tag, 42);
            assert_eq!(payload, m);
        }
    }

    #[test]
    fn hot_path_payloads_stay_inline() {
        // Wavefront distances (1 word), cast-wrapped distances (2 words) and
        // clustering join messages (3 words) must not touch the heap. Two
        // recursion levels' tags make 4 words and spill (see the module
        // doc).
        for words in [&[5u64][..], &[1, 5][..], &[2, 3, 0xDEAD][..]] {
            assert!(matches!(Msg::words(words).0, Repr::Inline { .. }));
        }
    }
}
