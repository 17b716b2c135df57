//! Per-node accounting in Local-Broadcast units.
//!
//! Theorem 4.1 measures time as the number of Local-Broadcast calls and
//! energy as the number of calls a node participates in (sender or
//! receiver); Lemma 2.4 converts those units into physical slots. The
//! ledger records the Local-Broadcast-unit side of that equation.

use radio_sim::RoundFrame;

/// Counts Local-Broadcast participations per node and calls overall.
///
/// A call is charged from its frame's participant lists
/// ([`RoundFrame::for_each_participant`]), so charging a cast step with a
/// handful of devices spread over a large universe costs those devices, not
/// the words between them.
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

    /// Records one Local-Broadcast call over `frame`: one unit of time
    /// overall and one unit of energy for every participant, sending or
    /// listening alike. A node listed as both sender and receiver
    /// participates once: the channel treats it as a sender only.
    ///
    /// ```
    /// use radio_protocols::{LbFrame, LbLedger, Msg};
    ///
    /// let mut ledger = LbLedger::new(3);
    /// let mut frame = LbFrame::new(3);
    /// frame.add_sender(0, Msg::words(&[7]));
    /// frame.add_receiver(1);
    /// frame.add_receiver(2);
    /// ledger.record_call(&frame);
    /// frame.clear();
    /// frame.add_sender(1, Msg::words(&[8]));
    /// frame.add_receiver(0);
    /// frame.add_receiver(1);
    /// ledger.record_call(&frame);
    /// assert_eq!(ledger.calls(), 2);
    /// assert_eq!(ledger.participation_counts(), &[2, 2, 1]);
    /// ```
    #[inline]
    pub fn record_call<M>(&mut self, frame: &RoundFrame<M>) {
        self.calls += 1;
        let participations = &mut self.participations;
        frame.for_each_participant(|v| participations[v] += 1);
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
    use radio_sim::NodeSet;

    /// A frame over `0..n` with the given senders (listed one by one) and
    /// receivers.
    fn frame(
        n: usize,
        senders: impl IntoIterator<Item = usize>,
        receivers: impl IntoIterator<Item = usize>,
    ) -> RoundFrame<u64> {
        let mut f = RoundFrame::new(n);
        for v in senders {
            f.add_sender(v, v as u64);
        }
        for v in receivers {
            f.add_receiver(v);
        }
        f
    }

    #[test]
    fn records_participants_and_calls() {
        let mut l = LbLedger::new(4);
        l.record_call(&frame(4, [0, 1], [2, 3]));
        l.record_call(&frame(4, [2], [0]));
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
        l.record_call(&frame(3, [], []));
        l.record_call(&frame(3, [], []));
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
        a.record_call(&frame(5, 0..2, 2..5));
        b.record_call(&frame(5, 2..5, 0..2));
        assert_eq!(a.participation_counts(), b.participation_counts());
        assert_eq!(a.participation_counts(), &[1; 5]);
    }

    #[test]
    fn listed_bulk_and_dense_fills_charge_the_union_once() {
        // Listed ids (a few far apart), a bulk receiver copy topped up one
        // by one, and a fill that outgrows its list all charge every node
        // of senders ∪ receivers exactly once, duplicates included.
        let n = 64 * 5;
        let mut bulk = NodeSet::new(n);
        bulk.extend([1, 130, 250]);
        let mut topped = frame(n, [3, 250, 3], []);
        topped.set_receivers(&bulk);
        topped.add_receiver(300);
        topped.add_receiver(130);
        let cases = [
            (
                frame(n, [0, 319, 0], [5, 319, 200, 5]),
                vec![0, 5, 200, 319],
            ),
            (topped, vec![1, 3, 130, 250, 300]),
            (frame(n, 0..40, 20..n), (0..n).collect()),
        ];
        for (f, union) in cases {
            let mut l = LbLedger::new(n);
            l.record_call(&f);
            let want: Vec<u64> = (0..n).map(|v| u64::from(union.contains(&v))).collect();
            assert_eq!(l.participation_counts(), &want[..]);
        }
    }

    #[test]
    #[should_panic]
    fn participants_outside_the_universe_are_rejected() {
        LbLedger::new(2).record_call(&frame(3, [2], []));
    }
}
