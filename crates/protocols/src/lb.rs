//! The Local-Broadcast frame.
//!
//! **Local-Broadcast** (paper, Section 2.2): given disjoint sets `S`
//! (senders, each holding a message) and `R` (receivers), every `v ∈ R`
//! with `N(v) ∩ S ≠ ∅` receives some message from a neighbour in `S` with
//! probability `1 − f`.
//!
//! Calls operate on a reusable [`LbFrame`] (a dense [`RoundFrame`] over
//! the network's nodes): the
//! caller fills senders and receivers, the stack writes deliveries into
//! `frame.delivered()` — and, on collision-detection-capable stacks,
//! per-receiver verdicts into `frame.feedback()`. Because the frame's sets
//! iterate in ascending node order *by construction*, seeded runs are
//! reproducible without any per-call sort, and a frame held across the
//! thousands of calls a protocol makes costs zero allocations after the
//! first.
//!
//! The concrete [`Stack`](crate::Stack) that resolves the calls is built
//! through [`StackBuilder`](crate::StackBuilder); see [`crate::stack`] for
//! the trait surface and the capability matrix.

use radio_sim::{NodeSlots, RoundFrame};

use crate::message::Msg;
use crate::stack::RadioStack;

/// The round frame all Local-Broadcast calls operate on: senders with their
/// [`Msg`] payloads, receivers, the delivered output, and (on CD stacks)
/// the per-receiver feedback lane.
pub type LbFrame = RoundFrame<Msg>;

/// Convenience for tests and one-off calls: runs one Local-Broadcast with a
/// freshly allocated frame and returns the deliveries. Hot paths should
/// hold their own [`LbFrame`] and call
/// [`RadioStack::local_broadcast`] directly.
pub fn local_broadcast_once(
    net: &mut dyn RadioStack,
    senders: &[(usize, Msg)],
    receivers: &[usize],
) -> NodeSlots<Msg> {
    let mut frame = net.new_frame();
    for (v, m) in senders {
        frame.add_sender(*v, m.clone());
    }
    for &v in receivers {
        frame.add_receiver(v);
    }
    net.local_broadcast(&mut frame);
    let mut out = NodeSlots::new(frame.num_nodes());
    frame.swap_delivered(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{Stack, StackBuilder};
    use radio_graph::{generators, Graph};
    use radio_sim::{EnergyModel, LbFeedback};

    fn msg(x: u64) -> Msg {
        Msg::words(&[x])
    }

    fn abstract_stack(g: Graph) -> Stack {
        StackBuilder::new(g).build()
    }

    fn physical_stack(g: Graph, seed: u64) -> Stack {
        StackBuilder::new(g)
            .physical(EnergyModel::Uniform)
            .with_seed(seed)
            .build()
    }

    #[test]
    fn abstract_delivery_follows_spec() {
        let g = generators::path(4); // 0-1-2-3
        let mut net = abstract_stack(g);
        let out = local_broadcast_once(&mut net, &[(0, msg(10)), (3, msg(30))], &[1, 2]);
        assert_eq!(out.get(1), Some(&msg(10)));
        assert_eq!(out.get(2), Some(&msg(30)));
        assert_eq!(net.lb_time(), 1);
        assert_eq!(net.lb_energy(0), 1);
        assert_eq!(net.lb_energy(1), 1);
        assert_eq!(net.max_lb_energy(), 1);
    }

    #[test]
    fn abstract_receiver_without_sending_neighbor_gets_nothing() {
        let g = generators::path(4);
        let mut net = abstract_stack(g);
        let out = local_broadcast_once(&mut net, &[(0, msg(1))], &[3]);
        assert!(out.is_empty());
        // The hopeless receiver still pays for participating.
        assert_eq!(net.lb_energy(3), 1);
    }

    #[test]
    fn abstract_receiver_with_multiple_senders_hears_one_of_them() {
        let g = generators::star(5);
        let mut net = StackBuilder::new(g).with_seed(7).build();
        let senders: Vec<(usize, Msg)> = (1..5).map(|v| (v, msg(v as u64))).collect();
        let out = local_broadcast_once(&mut net, &senders, &[0]);
        let heard = out.get(0).expect("delivered").word(0);
        assert!((1..5).contains(&(heard as usize)));
    }

    #[test]
    fn abstract_failures_do_fail_sometimes() {
        let g = generators::path(2);
        let mut net = StackBuilder::new(g).with_failures(0.5).with_seed(3).build();
        let mut frame = net.new_frame();
        let mut hits = 0;
        for _ in 0..200 {
            frame.clear();
            frame.add_sender(0, msg(1));
            frame.add_receiver(1);
            net.local_broadcast(&mut frame);
            if !frame.delivered().is_empty() {
                hits += 1;
            }
        }
        assert!(hits > 50 && hits < 150, "hits = {hits}");
    }

    #[test]
    fn sender_listed_as_receiver_is_ignored_as_receiver() {
        let g = generators::path(3);
        let mut net = abstract_stack(g);
        let out = local_broadcast_once(&mut net, &[(0, msg(1)), (1, msg(2))], &[1, 2]);
        assert!(!out.contains(1));
        assert_eq!(out.get(2), Some(&msg(2)));
        // Listed twice, it still participates once.
        assert_eq!(net.lb_energy(1), 1);
    }

    #[test]
    fn abstract_cd_records_per_receiver_verdicts() {
        // Path 0-1-2-3, sender 0, receivers {1, 3}: with CD the frame's
        // feedback lane distinguishes the delivered receiver from the one
        // with provably no sending neighbour.
        let g = generators::path(4);
        let mut net = StackBuilder::new(g).with_cd().build();
        let mut frame = net.new_frame();
        frame.add_sender(0, msg(7));
        frame.add_receiver(1);
        frame.add_receiver(3);
        net.local_broadcast(&mut frame);
        assert_eq!(frame.feedback().get(1), Some(&LbFeedback::Delivered));
        assert_eq!(frame.feedback().get(3), Some(&LbFeedback::Silence));
        // Injected failures read as noise: the receiver knows senders exist.
        let g = generators::path(2);
        let mut lossy = StackBuilder::new(g)
            .with_cd()
            .with_failures(0.999)
            .with_seed(1)
            .build();
        let mut frame = lossy.new_frame();
        frame.add_sender(0, msg(1));
        frame.add_receiver(1);
        lossy.local_broadcast(&mut frame);
        if !frame.delivered().contains(1) {
            assert_eq!(frame.feedback().get(1), Some(&LbFeedback::Noise));
        }
    }

    #[test]
    fn no_cd_stacks_leave_the_feedback_lane_empty() {
        let g = generators::path(4);
        for mut net in [abstract_stack(g.clone()), physical_stack(g, 2)] {
            let mut frame = net.new_frame();
            frame.add_sender(0, msg(7));
            frame.add_receiver(1);
            frame.add_receiver(3);
            net.local_broadcast(&mut frame);
            assert!(frame.feedback().is_empty());
        }
    }

    #[test]
    fn physical_cd_records_a_verdict_for_every_receiver() {
        // Path 0-1-2-3, sender 0, receivers {1, 3}: receiver 3 provably
        // has no sending neighbour; receiver 1's verdict matches whether a
        // message reached it.
        let g = generators::path(4);
        let mut net = StackBuilder::new(g)
            .physical(EnergyModel::Uniform)
            .with_cd()
            .with_seed(6)
            .build();
        let mut frame = net.new_frame();
        for round in 0..10 {
            frame.clear();
            frame.add_sender(0, msg(round));
            frame.add_receiver(1);
            frame.add_receiver(3);
            net.local_broadcast(&mut frame);
            assert_eq!(frame.feedback().get(3), Some(&LbFeedback::Silence));
            let verdict = if frame.delivered().contains(1) {
                LbFeedback::Delivered
            } else {
                LbFeedback::Noise
            };
            assert_eq!(frame.feedback().get(1), Some(&verdict));
            assert!(!frame.feedback().contains(0), "senders get no verdict");
        }
    }

    #[test]
    fn abstract_pick_is_uniform_over_sending_neighbours() {
        // Star centre 0 hears one of its four sending leaves per call; the
        // specification leaves the choice open, and the stack picks
        // uniformly so no protocol can lean on a tie-break.
        let mut net = StackBuilder::new(generators::star(5)).with_seed(13).build();
        let senders: Vec<(usize, Msg)> = (1..5).map(|v| (v, msg(v as u64))).collect();
        let mut heard = [0u32; 5];
        for _ in 0..800 {
            let out = local_broadcast_once(&mut net, &senders, &[0]);
            heard[out.get(0).expect("delivered").word(0) as usize] += 1;
        }
        assert_eq!(heard[0], 0);
        for (leaf, &count) in heard.iter().enumerate().skip(1) {
            assert!(
                (140..260).contains(&count),
                "leaf {leaf} heard {count} times"
            );
        }
    }

    #[test]
    fn physical_backend_delivers_and_charges_slots() {
        let g = generators::path(3);
        let mut net = physical_stack(g, 42);
        let out = local_broadcast_once(&mut net, &[(0, msg(9))], &[1, 2]);
        assert_eq!(out.get(1), Some(&msg(9)));
        assert_eq!(out.get(2), None);
        assert_eq!(net.lb_time(), 1);
        assert_eq!(net.lb_energy(0), 1);
        // Physical energy is the Lemma 2.4 expansion: strictly more than one
        // slot for listeners without a sending neighbour.
        let radio = net.radio().expect("physical stack");
        assert!(radio.energy(2) > 1);
        assert!(radio.slots() as usize >= net.decay_params().unwrap().total_slots());
    }

    #[test]
    fn physical_cd_backend_saves_energy_on_hopeless_receivers() {
        // The CD-aware decay resolves a receiver with no sending neighbour
        // after one iteration instead of the full slot budget.
        let g = generators::path(4);
        let run = |cd: bool| -> (u64, u64) {
            let mut b = StackBuilder::new(g.clone())
                .physical(EnergyModel::Uniform)
                .with_seed(11);
            if cd {
                b = b.with_cd();
            }
            let mut net = b.build();
            let _ = local_broadcast_once(&mut net, &[(0, msg(9))], &[1, 3]);
            let view = net.energy_view();
            (
                view.physical_energy(3).unwrap(),
                view.physical_slots().unwrap(),
            )
        };
        let (plain_energy, plain_slots) = run(false);
        let (cd_energy, cd_slots) = run(true);
        assert!(cd_energy < plain_energy, "{cd_energy} vs {plain_energy}");
        assert!(cd_slots < plain_slots, "{cd_slots} vs {plain_slots}");
    }

    #[test]
    fn physical_and_abstract_agree_on_lb_unit_accounting() {
        let g = generators::grid(3, 3);
        let senders = [(0, msg(1)), (4, msg(2))];
        let receivers = [1, 3, 5, 7];
        let mut a = abstract_stack(g.clone());
        let mut p = physical_stack(g, 1);
        local_broadcast_once(&mut a, &senders, &receivers);
        local_broadcast_once(&mut p, &senders, &receivers);
        for v in 0..9 {
            assert_eq!(a.lb_energy(v), p.lb_energy(v), "node {v}");
        }
        assert_eq!(a.lb_time(), p.lb_time());
    }

    #[test]
    fn reused_frame_is_equivalent_to_fresh_frames() {
        // One frame reused across calls must behave exactly like fresh
        // frames per call (same deliveries, same ledger) on a reliable net.
        let g = generators::grid(4, 4);
        let mut a = abstract_stack(g.clone());
        let mut b = abstract_stack(g);
        let mut reused = a.new_frame();
        for round in 0..8u64 {
            let senders: Vec<(usize, Msg)> = (0..16)
                .filter(|v| (v + round as usize).is_multiple_of(3))
                .map(|v| (v, msg(round)))
                .collect();
            let receivers: Vec<usize> = (0..16)
                .filter(|v| !(v + round as usize).is_multiple_of(3))
                .collect();
            reused.clear();
            for (v, m) in &senders {
                reused.add_sender(*v, m.clone());
            }
            for &v in &receivers {
                reused.add_receiver(v);
            }
            a.local_broadcast(&mut reused);
            let fresh = local_broadcast_once(&mut b, &senders, &receivers);
            let got: Vec<(usize, Msg)> = reused
                .delivered()
                .iter()
                .map(|(v, m)| (v, m.clone()))
                .collect();
            let want: Vec<(usize, Msg)> = fresh.iter().map(|(v, m)| (v, m.clone())).collect();
            assert_eq!(got, want, "round {round}");
        }
        for v in 0..16 {
            assert_eq!(a.lb_energy(v), b.lb_energy(v));
        }
    }

    #[test]
    fn a_cloned_stack_replays_the_original() {
        // A clone carries the ledger, the RNG position and the channel
        // state, so the same calls on both deliver the same messages and
        // leave the same counters — on a lossy abstract stack and on a
        // physical CD stack alike.
        let g = generators::grid(4, 4);
        let calls = |round: u64| -> (Vec<(usize, Msg)>, Vec<usize>) {
            let senders = (0..16)
                .filter(|v| (v + round as usize).is_multiple_of(3))
                .map(|v| (v, msg(round)))
                .collect();
            let receivers = (0..16)
                .filter(|v| !(v + round as usize).is_multiple_of(3))
                .collect();
            (senders, receivers)
        };
        for mut original in [
            StackBuilder::new(g.clone())
                .with_failures(0.3)
                .with_seed(4)
                .build(),
            StackBuilder::new(g.clone())
                .physical(EnergyModel::Uniform)
                .with_cd()
                .with_seed(4)
                .build(),
        ] {
            for round in 0..3 {
                let (senders, receivers) = calls(round);
                local_broadcast_once(&mut original, &senders, &receivers);
            }
            let mut clone = original.clone();
            for round in 3..8 {
                let (senders, receivers) = calls(round);
                let want = local_broadcast_once(&mut original, &senders, &receivers);
                let got = local_broadcast_once(&mut clone, &senders, &receivers);
                let pairs = |out: &NodeSlots<Msg>| -> Vec<(usize, Msg)> {
                    out.iter().map(|(v, m)| (v, m.clone())).collect()
                };
                assert_eq!(pairs(&got), pairs(&want), "round {round}");
            }
            assert_eq!(clone.energy_view(), original.energy_view());
        }
    }
}
