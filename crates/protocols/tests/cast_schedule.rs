//! The casts' live-cluster schedule against the every-cluster loop.
//!
//! `down_cast_with` and `up_cast_into` walk, at each stage, only the
//! clusters that still have a layer there, skip steps with none, and the
//! up-cast skips its holder scan below its deepest holder. The loops kept
//! here as the reference are the casts as they were before: every step of
//! every stage walks every scheduled cluster, clearing the frame first, and
//! calls whenever the frame is non-empty. A recording stack logs every call
//! both sides make — senders with their messages, receivers, deliveries —
//! and the two logs, the casts' results and the ledgers must agree exactly,
//! on path, grid and lollipop clusterings, with random casting clusters and
//! holders, with and without injected delivery failures.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use radio_graph::{generators, Graph};
use radio_protocols::cast::{down_cast_with, up_cast_into, CastScratch};
use radio_protocols::{
    cluster_distributed, Capabilities, ClusterState, ClusteringConfig, LbFrame, Msg, NodeSet,
    NodeSlots, RadioStack, Stack, StackBuilder,
};

/// One Local-Broadcast call as the channel saw it: senders with their
/// messages, receivers, and what each receiver got, all ascending.
#[derive(Debug, PartialEq)]
struct Call {
    senders: Vec<(usize, Vec<u64>)>,
    receivers: Vec<usize>,
    delivered: Vec<(usize, Vec<u64>)>,
}

/// Forwards every call to the stack it wraps and logs it.
struct Recorder<'a> {
    inner: &'a mut Stack,
    log: Vec<Call>,
}

impl RadioStack for Recorder<'_> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn global_n(&self) -> usize {
        self.inner.global_n()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn local_broadcast(&mut self, frame: &mut LbFrame) {
        self.inner.local_broadcast(frame);
        let words = |slots: &NodeSlots<Msg>| -> Vec<(usize, Vec<u64>)> {
            slots
                .iter()
                .map(|(v, m)| (v, m.as_slice().to_vec()))
                .collect()
        };
        self.log.push(Call {
            senders: words(frame.senders()),
            receivers: frame.receivers().iter().collect(),
            delivered: words(frame.delivered()),
        });
    }

    fn lb_energy(&self, v: usize) -> u64 {
        self.inner.lb_energy(v)
    }

    fn lb_time(&self) -> u64 {
        self.inner.lb_time()
    }
}

/// The step → clusters table of the reference loops: `clusters` in
/// ascending order in every step of their `S_Cl`, and the non-empty steps.
fn schedule(
    state: &ClusterState,
    clusters: impl Iterator<Item = usize>,
) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut clusters_at = vec![Vec::new(); state.ell];
    for c in clusters {
        for &j in &state.s_sets[c] {
            clusters_at[j].push(c);
        }
    }
    let steps = (0..state.ell)
        .filter(|&j| !clusters_at[j].is_empty())
        .collect();
    (clusters_at, steps)
}

/// Keeps the deliveries tagged with the receiver's own cluster.
fn harvest(state: &ClusterState, frame: &LbFrame, holding: &mut [Option<Msg>]) {
    for (v, m) in frame.delivered().iter() {
        if m.word(0) as usize == state.cluster_of[v] && holding[v].is_none() {
            holding[v] = Some(m.split_first().1);
        }
    }
}

/// The down-cast's every-cluster loop.
fn down_cast_every_cluster(
    parent: &mut dyn RadioStack,
    state: &ClusterState,
    messages: &NodeSlots<Msg>,
    frame: &mut LbFrame,
) -> Vec<Option<Msg>> {
    let mut holding: Vec<Option<Msg>> = vec![None; state.num_nodes()];
    if messages.is_empty() {
        return holding;
    }
    let (clusters_at, steps) = schedule(state, messages.keys().iter());
    for (c, m) in messages.iter() {
        holding[state.centers[c]] = Some(m.clone());
    }
    let max_stage = messages.keys().iter().map(|c| state.radius(c)).max();
    for stage in 1..=max_stage.unwrap_or(0) {
        for &j in &steps {
            frame.clear();
            for &c in &clusters_at[j] {
                let tagged = messages
                    .get(c)
                    .expect("casting cluster")
                    .prepended(c as u64);
                for &v in state.members_at_layer(c, stage - 1) {
                    if holding[v].is_some() {
                        frame.add_sender(v, tagged.clone());
                    }
                }
                for &v in state.members_at_layer(c, stage) {
                    frame.add_receiver(v);
                }
            }
            if frame.senders().is_empty() && frame.receivers().is_empty() {
                continue;
            }
            parent.local_broadcast(frame);
            harvest(state, frame, &mut holding);
        }
    }
    holding
}

/// The up-cast's every-cluster loop.
fn up_cast_every_cluster(
    parent: &mut dyn RadioStack,
    state: &ClusterState,
    participating: &NodeSet,
    messages: &NodeSlots<Msg>,
    frame: &mut LbFrame,
) -> Vec<(usize, Msg)> {
    if participating.is_empty() {
        return Vec::new();
    }
    let (clusters_at, steps) = schedule(state, participating.iter());
    let mut holding: Vec<Option<Msg>> = vec![None; state.num_nodes()];
    for (v, m) in messages.iter() {
        if participating.contains(state.cluster_of[v]) {
            holding[v] = Some(m.clone());
        }
    }
    let max_stage = participating.iter().map(|c| state.radius(c)).max();
    for stage in (1..=max_stage.unwrap_or(0)).rev() {
        for &j in &steps {
            frame.clear();
            for &c in &clusters_at[j] {
                for &v in state.members_at_layer(c, stage) {
                    if let Some(payload) = &holding[v] {
                        frame.add_sender(v, payload.prepended(c as u64));
                    }
                }
                for &v in state.members_at_layer(c, stage - 1) {
                    frame.add_receiver(v);
                }
            }
            if frame.senders().is_empty() && frame.receivers().is_empty() {
                continue;
            }
            parent.local_broadcast(frame);
            harvest(state, frame, &mut holding);
        }
    }
    participating
        .iter()
        .filter_map(|c| holding[state.centers[c]].clone().map(|m| (c, m)))
        .collect()
}

/// A family's graph of about `n` nodes: 0 = path, 1 = grid, 2 = lollipop.
fn family_graph(family: usize, n: usize) -> Graph {
    match family {
        0 => generators::path(n),
        1 => {
            let side = (n as f64).sqrt().ceil() as usize;
            generators::grid(side, side)
        }
        _ => generators::lollipop(n / 4, n - n / 4),
    }
}

/// Words of a holder arena, for comparing the two sides.
fn held_words(holding: &[Option<Msg>]) -> Vec<Option<Vec<u64>>> {
    holding
        .iter()
        .map(|m| m.as_ref().map(|m| m.as_slice().to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    #[test]
    fn live_schedule_makes_the_every_cluster_loops_calls(
        (family, n, inv_beta) in (0usize..3, 40usize..400, 2u64..9),
        (failures, seed) in (any::<bool>(), 0u64..1_000_000),
    ) {
        let g = family_graph(family, n);
        let mut builder = StackBuilder::new(g).with_seed(seed);
        if failures {
            builder = builder.with_failures(0.25);
        }
        let mut stack = builder.build();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let state = cluster_distributed(&mut stack, &ClusteringConfig::new(inv_beta), &mut rng);
        let (nodes, clusters) = (state.num_nodes(), state.num_clusters());
        // Both sides start from the clustered stack: same ledger, same RNG.
        let mut ours = stack.clone();
        let mut theirs = stack;
        let (mut frame, mut reference_frame) = (LbFrame::new(nodes), LbFrame::new(nodes));
        let mut scratch = CastScratch::new(nodes);
        let mut out = NodeSlots::new(clusters);
        // Several casts through one frame and one scratch, as a virtual
        // network issues them, each with its own random participants.
        for round in 0..4 {
            let case = format!("family {family} n={nodes} 1/β={inv_beta} failures={failures} round {round}");
            let density = rng.gen_range(0..4u32);
            let mut messages = NodeSlots::new(clusters);
            for c in 0..clusters {
                if rng.gen_range(0..4u32) <= density {
                    messages.insert(c, Msg::words(&[rng.gen_range(0..1_000u64)]));
                }
            }
            let mut participating = NodeSet::new(clusters);
            participating.extend((0..clusters).filter(|_| rng.gen_range(0..4u32) <= density));
            let mut holders = NodeSlots::new(nodes);
            for v in 0..nodes {
                if rng.gen_range(0..16u32) <= density {
                    holders.insert(v, Msg::words(&[v as u64, 1]));
                }
            }

            let mut a = Recorder { inner: &mut ours, log: Vec::new() };
            let mut b = Recorder { inner: &mut theirs, log: Vec::new() };
            let want = down_cast_every_cluster(&mut b, &state, &messages, &mut reference_frame);
            let got = down_cast_with(&mut a, &state, &messages, &mut frame, &mut scratch);
            prop_assert_eq!(held_words(got), held_words(&want), "down-cast holders: {}", case);
            prop_assert_eq!(&a.log, &b.log, "down-cast calls: {}", case);
            a.log.clear();
            b.log.clear();
            let want = up_cast_every_cluster(&mut b, &state, &participating, &holders, &mut reference_frame);
            up_cast_into(&mut a, &state, &participating, &holders, &mut frame, &mut scratch, &mut out);
            prop_assert_eq!(&a.log, &b.log, "up-cast calls: {}", case);
            prop_assert_eq!(
                out.iter().map(|(c, m)| (c, m.as_slice().to_vec())).collect::<Vec<_>>(),
                want.iter().map(|(c, m)| (*c, m.as_slice().to_vec())).collect::<Vec<_>>(),
                "up-cast results: {}", case
            );
            prop_assert_eq!(a.inner.energy_view(), b.inner.energy_view(), "ledgers: {}", case);
        }
        // The stacks' RNGs advanced alike.
        let probe = |stack: &mut Stack| {
            let mut f = LbFrame::new(nodes);
            for v in (0..nodes).step_by(2) {
                f.add_sender(v, Msg::words(&[v as u64]));
            }
            for v in (1..nodes).step_by(2) {
                f.add_receiver(v);
            }
            stack.local_broadcast(&mut f);
            f.delivered().iter().map(|(v, m)| (v, m.word(0))).collect::<Vec<_>>()
        };
        prop_assert_eq!(probe(&mut ours), probe(&mut theirs), "next draws");
    }
}
