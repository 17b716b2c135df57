//! Per-node accounting in Local-Broadcast units.
//!
//! Theorem 4.1 measures time as the number of Local-Broadcast calls and
//! energy as the number of calls a node participates in (sender or
//! receiver); Lemma 2.4 converts those units into physical slots. The
//! ledger records the Local-Broadcast-unit side of that equation.

use radio_sim::NodeSet;

/// Counts Local-Broadcast participations per node and calls overall.
#[derive(Clone, Debug, Default)]
pub struct LbLedger {
    participations: Vec<u64>,
    calls: u64,
}

impl LbLedger {
    /// A ledger for `n` nodes.
    pub fn new(n: usize) -> Self {
        LbLedger {
            participations: vec![0; n],
            calls: 0,
        }
    }

    /// Records one Local-Broadcast call: one unit of time overall and one
    /// unit of energy for every participant, sending or listening alike.
    /// A node listed as both sender and receiver participates once: the
    /// channel treats it as a sender only.
    ///
    /// ```
    /// use radio_protocols::{LbLedger, NodeSet};
    ///
    /// let set = |members: &[usize]| {
    ///     let mut s = NodeSet::new(3);
    ///     s.extend(members.iter().copied());
    ///     s
    /// };
    /// let mut ledger = LbLedger::new(3);
    /// ledger.record_call(&set(&[0]), &set(&[1, 2]));
    /// ledger.record_call(&set(&[1]), &set(&[0, 1]));
    /// assert_eq!(ledger.calls(), 2);
    /// assert_eq!(ledger.participation_counts(), &[2, 2, 1]);
    /// ```
    #[inline]
    pub fn record_call(&mut self, senders: &NodeSet, receivers: &NodeSet) {
        self.calls += 1;
        for v in receivers {
            self.participations[v] += 1;
        }
        for v in senders {
            if !receivers.contains(v) {
                self.participations[v] += 1;
            }
        }
    }

    /// Number of calls a node has participated in (its energy in LB units).
    pub fn participations(&self, v: usize) -> u64 {
        self.participations[v]
    }

    /// Every node's participation count, indexed by node.
    pub fn participation_counts(&self) -> &[u64] {
        &self.participations
    }

    /// Total calls recorded (time in LB units).
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize, members: impl IntoIterator<Item = usize>) -> NodeSet {
        let mut s = NodeSet::new(n);
        s.extend(members);
        s
    }

    #[test]
    fn records_participants_and_calls() {
        let mut l = LbLedger::new(4);
        l.record_call(&set(4, [0, 1]), &set(4, [2, 3]));
        l.record_call(&set(4, [2]), &set(4, [0]));
        assert_eq!(l.calls(), 2);
        assert_eq!(l.participations(0), 2);
        assert_eq!(l.participations(1), 1);
        assert_eq!(l.participations(2), 2);
        assert_eq!(l.participation_counts(), &[2, 1, 2, 1]);
    }

    #[test]
    fn empty_ledger() {
        let l = LbLedger::new(0);
        assert!(l.participation_counts().is_empty());
        assert_eq!(l.calls(), 0);
    }

    #[test]
    fn a_call_without_participants_costs_time_only() {
        let mut l = LbLedger::new(3);
        l.record_call(&set(3, []), &set(3, []));
        l.record_call(&set(3, []), &set(3, []));
        assert_eq!(l.calls(), 2);
        assert_eq!(l.participation_counts(), &[0, 0, 0]);
    }

    #[test]
    fn senders_and_listeners_pay_alike() {
        // Section 4.3's model: a call costs one unit whether a device
        // transmits or listens, so swapping the roles leaves every count
        // unchanged.
        let mut a = LbLedger::new(5);
        let mut b = LbLedger::new(5);
        a.record_call(&set(5, 0..2), &set(5, 2..5));
        b.record_call(&set(5, 2..5), &set(5, 0..2));
        assert_eq!(a.participation_counts(), b.participation_counts());
        assert_eq!(a.participation_counts(), &[1; 5]);
    }

    #[test]
    #[should_panic]
    fn participants_outside_the_universe_are_rejected() {
        LbLedger::new(2).record_call(&set(3, [2]), &set(3, []));
    }
}
