//! Property-based tests for the Local-Broadcast layer: the delivery
//! specification of the abstract backend, the ledger arithmetic, the
//! structural guarantees of the distributed clustering and the casts on
//! randomly generated connected graphs — and the equivalence of the dense
//! frame-based engine with a straightforward map-based reference
//! implementation of the Local-Broadcast specification.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use radio_graph::bfs::bfs_distances;
use radio_graph::{generators, Graph};
use radio_protocols::aggregate::{find_max, find_min};
use radio_protocols::broadcast::{layered_broadcast, up_sweep, Layers};
use radio_protocols::cast::{down_cast, up_cast};
use radio_protocols::{
    cluster_distributed, local_broadcast_once, ClusteringConfig, CollisionDetection, EnergyModel,
    LbFeedback, Msg, NodeSet, NodeSlots, RadioStack, StackBuilder,
};

fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (
        3usize..30,
        any::<u64>(),
        proptest::collection::vec((0usize..30, 0usize..30), 0..40),
    )
        .prop_map(|(n, seed, extra)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let tree = generators::random_tree(n, &mut rng);
            let mut edges: Vec<(usize, usize)> = tree.edges().collect();
            for (u, v) in extra {
                if u % n != v % n {
                    edges.push((u % n, v % n));
                }
            }
            Graph::from_edges(n, &edges)
        })
}

/// A straightforward map-based reference implementation of one
/// Local-Broadcast call on the abstract channel — the representation the
/// seed repository used — kept here purely as an executable specification
/// for the frame engine. It visits the receivers in sorted order; one with a
/// sending neighbour first draws the failure coin (when `failure_prob > 0`),
/// then, if the delivery survives, the uniform pick over its sending
/// neighbours in adjacency order — the abstract `Stack`'s RNG discipline,
/// so a frame-based call must reproduce it exactly. Returns the deliveries
/// and every receiver's collision-detection verdict.
fn reference_local_broadcast(
    g: &Graph,
    senders: &HashMap<usize, Msg>,
    receivers: &HashSet<usize>,
    failure_prob: f64,
    rng: &mut ChaCha8Rng,
) -> (HashMap<usize, Msg>, HashMap<usize, LbFeedback>) {
    let mut delivered = HashMap::new();
    let mut verdicts = HashMap::new();
    let mut ordered: Vec<usize> = receivers.iter().copied().collect();
    ordered.sort_unstable();
    for r in ordered {
        if senders.contains_key(&r) {
            continue;
        }
        let sending: Vec<usize> = g
            .neighbors(r)
            .iter()
            .copied()
            .filter(|u| senders.contains_key(u))
            .collect();
        let verdict = if sending.is_empty() {
            LbFeedback::Silence
        } else if failure_prob > 0.0 && rng.gen_bool(failure_prob) {
            LbFeedback::Noise
        } else {
            let pick = sending[rng.gen_range(0..sending.len())];
            delivered.insert(r, senders[&pick].clone());
            LbFeedback::Delivered
        };
        verdicts.insert(r, verdict);
    }
    (delivered, verdicts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn local_broadcast_delivery_matches_spec(
        g in arb_connected_graph(),
        sender_bits in proptest::collection::vec(any::<bool>(), 30),
        receiver_bits in proptest::collection::vec(any::<bool>(), 30),
    ) {
        let n = g.num_nodes();
        let senders: Vec<(usize, Msg)> = (0..n)
            .filter(|&v| sender_bits[v % sender_bits.len()])
            .map(|v| (v, Msg::words(&[v as u64])))
            .collect();
        let sender_ids: HashSet<usize> = senders.iter().map(|&(v, _)| v).collect();
        // Receivers are drawn independently of senders, so some nodes are
        // listed in both sets; those act as senders only.
        let receivers: Vec<usize> = (0..n)
            .filter(|&v| receiver_bits[v % receiver_bits.len()])
            .collect();
        let mut net = StackBuilder::new(g.clone()).build();
        let out = local_broadcast_once(&mut net, &senders, &receivers);
        for &r in &receivers {
            let has_sending_neighbor = g.neighbors(r).iter().any(|u| sender_ids.contains(u));
            match out.get(r) {
                Some(m) => {
                    // The message must come from an actual sending neighbour.
                    let from = m.word(0) as usize;
                    prop_assert!(!sender_ids.contains(&r), "sender {} received", r);
                    prop_assert!(g.has_edge(r, from));
                    prop_assert!(sender_ids.contains(&from));
                }
                None => prop_assert!(
                    !has_sending_neighbor || sender_ids.contains(&r),
                    "receiver {} missed a delivery",
                    r
                ),
            }
        }
        // Non-receivers never appear in the output.
        for (v, _) in out.iter() {
            prop_assert!(receivers.contains(&v));
        }
        // Ledger: exactly one call, every participant charged exactly once.
        prop_assert_eq!(net.lb_time(), 1);
        for v in 0..n {
            let expected = u64::from(sender_ids.contains(&v) || receivers.contains(&v));
            prop_assert_eq!(net.lb_energy(v), expected);
        }
    }

    /// Cross-backend equivalence: on seeded instances, with and without
    /// injected failures and collision detection, the frame-based engine
    /// reproduces the map-based reference exactly — deliveries, verdicts
    /// and per-node energy — over three calls on one stack: the drawn
    /// senders, no senders at all, then the drawn senders again. A call
    /// that draws more or less often than the reference shifts the next
    /// call's stream, so the later calls expose the RNG position. Sender
    /// sets run from none through a single node to most of the graph.
    #[test]
    fn frame_engine_matches_map_reference(
        g in arb_connected_graph(),
        seed in 0u64..1000,
        sender_draws in proptest::collection::vec(0usize..30, 0..30),
        receiver_bits in proptest::collection::vec(any::<bool>(), 30),
        failure_pick in 0usize..3,
        cd in any::<bool>(),
    ) {
        let n = g.num_nodes();
        let failure_prob = [0.0, 0.25, 0.6][failure_pick];
        let sender_map: HashMap<usize, Msg> = sender_draws
            .iter()
            .map(|&v| (v % n, Msg::words(&[100 + (v % n) as u64])))
            .collect();
        let receiver_set: HashSet<usize> = (0..n)
            .filter(|&v| receiver_bits[v % receiver_bits.len()])
            .collect();

        let mut builder = StackBuilder::new(g.clone())
            .with_seed(seed)
            .with_failures(failure_prob);
        if cd {
            builder = builder.with_cd();
        }
        let mut net = builder.build();
        let mut frame = net.new_frame();
        // The reference draws from a generator seeded like the stack's,
        // whose only draws are the failure coins and the picks.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let no_senders = HashMap::new();
        let mut energy = vec![0u64; n];
        for (call, senders) in [&sender_map, &no_senders, &sender_map].into_iter().enumerate() {
            frame.clear();
            for (&v, m) in senders {
                frame.add_sender(v, m.clone());
            }
            for &v in &receiver_set {
                frame.add_receiver(v);
            }
            net.local_broadcast(&mut frame);
            let (want, verdicts) =
                reference_local_broadcast(&g, senders, &receiver_set, failure_prob, &mut rng);

            let got: HashMap<usize, Msg> =
                frame.delivered().iter().map(|(v, m)| (v, m.clone())).collect();
            prop_assert_eq!(got, want, "deliveries of call {}", call + 1);
            let feedback: HashMap<usize, LbFeedback> =
                frame.feedback().iter().map(|(v, &f)| (v, f)).collect();
            if cd {
                prop_assert_eq!(feedback, verdicts, "verdicts of call {}", call + 1);
            } else {
                prop_assert!(feedback.is_empty(), "a No-CD stack gave verdicts");
            }
            // Energy parity with the specification's accounting.
            prop_assert_eq!(net.lb_time(), call as u64 + 1);
            for (v, spent) in energy.iter_mut().enumerate() {
                *spent += u64::from(senders.contains_key(&v) || receiver_set.contains(&v));
                prop_assert_eq!(net.lb_energy(v), *spent);
            }
        }
    }

    #[test]
    fn clustering_partitions_any_connected_graph(g in arb_connected_graph(), seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = StackBuilder::new(g.clone()).build();
        let cfg = ClusteringConfig::new(3);
        let state = cluster_distributed(&mut net, &cfg, &mut rng);
        prop_assert!(state.validate().is_ok(), "{:?}", state.validate());
        prop_assert_eq!(state.cluster_sizes().iter().sum::<usize>(), g.num_nodes());
        // Energy and time never exceed the Lemma 2.5 round budget.
        prop_assert!(net.lb_time() <= cfg.rounds(net.global_n()));
        prop_assert!(net.max_lb_energy() <= net.lb_time());
        // Quotient graph is a well-formed simple graph on the clusters.
        let q = state.quotient_graph(&g);
        prop_assert_eq!(q.num_nodes(), state.num_clusters());
    }

    /// Capability honesty: stacks built without `with_cd()` must report
    /// `CollisionDetection::None` — on either backend — and must leave the
    /// frame's feedback lane empty after a call.
    #[test]
    fn no_cd_stacks_report_no_collision_detection(
        g in arb_connected_graph(),
        seed in 0u64..500,
        physical in any::<bool>(),
    ) {
        let mut builder = StackBuilder::new(g.clone()).with_seed(seed);
        if physical {
            builder = builder.physical(EnergyModel::Uniform);
        }
        let mut stack = builder.build();
        let caps = stack.capabilities();
        prop_assert_eq!(caps.collision_detection, CollisionDetection::None);
        prop_assert_eq!(caps.physical, physical);
        let mut frame = stack.new_frame();
        frame.add_sender(0, Msg::words(&[1]));
        for v in 1..g.num_nodes().min(4) {
            frame.add_receiver(v);
        }
        stack.local_broadcast(&mut frame);
        prop_assert!(
            frame.feedback().is_empty(),
            "a No-CD stack populated the feedback lane"
        );
        // And the CD counterpart reports what it was given.
        let cd_caps = StackBuilder::new(g).with_cd().build().capabilities();
        prop_assert_eq!(cd_caps.collision_detection, CollisionDetection::Receiver);
    }

    /// `EnergyView` snapshots and diffs agree with the legacy per-node
    /// counters (`lb_energy`, `physical_energy`) on both backends.
    #[test]
    fn energy_view_agrees_with_legacy_counters(
        g in arb_connected_graph(),
        seed in 0u64..500,
        physical in any::<bool>(),
    ) {
        let n = g.num_nodes();
        let mut builder = StackBuilder::new(g.clone()).with_seed(seed);
        if physical {
            builder = builder.physical(EnergyModel::Uniform);
        }
        let mut stack = builder.build();
        let mut frame = stack.new_frame();
        let run_round = |stack: &mut dyn RadioStack, frame: &mut radio_protocols::LbFrame, r: usize| {
            frame.clear();
            for v in 0..n {
                if v % 3 == r % 3 {
                    frame.add_sender(v, Msg::words(&[v as u64]));
                } else {
                    frame.add_receiver(v);
                }
            }
            stack.local_broadcast(frame);
        };
        run_round(&mut stack, &mut frame, 0);
        let mid = stack.energy_view();
        run_round(&mut stack, &mut frame, 1);
        let total = stack.energy_view();
        let phase = total.diff(&mid);

        prop_assert_eq!(total.lb_time(), stack.lb_time());
        prop_assert_eq!(total.max_lb_energy(), stack.max_lb_energy());
        prop_assert_eq!(mid.lb_time() + phase.lb_time(), total.lb_time());
        for v in 0..n {
            prop_assert_eq!(total.lb_energy(v), stack.lb_energy(v), "node {}", v);
            prop_assert_eq!(
                mid.lb_energy(v) + phase.lb_energy(v),
                total.lb_energy(v),
                "diff broke for node {}", v
            );
        }
        prop_assert_eq!(total.has_physical(), physical);
        if let Some(radio) = stack.radio() {
            for v in 0..n {
                prop_assert_eq!(total.physical_energy(v), Some(radio.energy(v)));
            }
            prop_assert_eq!(total.physical_slots(), Some(radio.slots()));
            prop_assert_eq!(total.max_physical_energy(), Some(radio.max_energy()));
        }
    }

    #[test]
    fn down_cast_then_up_cast_roundtrip(g in arb_connected_graph(), seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = StackBuilder::new(g.clone()).build();
        let cfg = ClusteringConfig::new(3);
        let state = cluster_distributed(&mut net, &cfg, &mut rng);
        let mut frame = net.new_frame();

        // Down-cast a per-cluster token to every member...
        let mut messages: NodeSlots<Msg> = NodeSlots::new(state.num_clusters());
        for c in 0..state.num_clusters() {
            messages.insert(c, Msg::words(&[7000 + c as u64]));
        }
        let holding = down_cast(&mut net, &state, &messages, &mut frame);
        for (v, held) in holding.iter().enumerate() {
            let c = state.cluster_of[v];
            prop_assert_eq!(
                held.as_ref().map(|m| m.word(0)),
                Some(7000 + c as u64),
                "vertex {} missed its cluster's down-cast", v
            );
        }
        // ...then up-cast it back: every center must recover its own token.
        let mut holders: NodeSlots<Msg> = NodeSlots::new(state.num_nodes());
        for (v, m) in holding.iter().enumerate() {
            if let Some(m) = m {
                holders.insert(v, m.clone());
            }
        }
        let mut participating = NodeSet::new(state.num_clusters());
        participating.extend(0..state.num_clusters());
        let at_centers = up_cast(&mut net, &state, &participating, &holders, &mut frame);
        for c in 0..state.num_clusters() {
            prop_assert_eq!(
                at_centers.get(c).map(|m| m.word(0)),
                Some(7000 + c as u64),
                "cluster {} center got the wrong token back", c
            );
        }
    }

    /// The capability lattice honoured by the protocol gate, across the
    /// whole builder matrix: every stack satisfies the baseline (empty)
    /// requirement and its own capabilities; a receiver-CD requirement is
    /// satisfied exactly by the `with_cd()` stacks; and the gate in
    /// `Protocol::run` agrees with `Capabilities::satisfies` — refusing
    /// with the typed error before any Local-Broadcast, never panicking.
    #[test]
    fn section_5_primitives_on_random_connected_graphs(
        g in arb_connected_graph(),
        root in 0usize..30,
        holder in 0usize..30,
        key_bound in 1u64..4097,
        seed in any::<u64>(),
    ) {
        let n = g.num_nodes();
        let (root, holder) = (root % n, holder % n);
        let labels: Vec<Option<u64>> = bfs_distances(&g, root)
            .into_iter()
            .map(|d| Some(u64::from(d)))
            .collect();
        let layers = Layers::new(&labels);

        // The broadcast reaches every labelled vertex, each in ≤ 2 calls.
        let mut net = StackBuilder::new(g.clone()).build();
        let reached = layered_broadcast(&mut net, &layers, &Msg::words(&[77]));
        for (v, m) in reached.iter().enumerate() {
            prop_assert_eq!(m.as_ref().map(|m| m.word(0)), Some(77), "vertex {}", v);
        }
        prop_assert!(net.max_lb_energy() <= 2);

        // An up sweep from any single holder reaches the root.
        let mut holders = NodeSlots::new(n);
        holders.insert(holder, Msg::words(&[holder as u64]));
        let mut net = StackBuilder::new(g.clone()).build();
        let at_root = up_sweep(&mut net, &layers, &holders);
        prop_assert_eq!(at_root.get(root).map(|m| m.word(0)), Some(holder as u64));

        // Find-Min and Find-Max return the true extremum of random keys
        // below a random bound K, and a vertex holding it.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let keys: Vec<Option<u64>> = (0..n)
            .map(|_| rng.gen_bool(0.7).then(|| rng.gen_range(0..key_bound)))
            .collect();
        let mut net = StackBuilder::new(g.clone()).with_seed(seed).build();
        for (found, want) in [
            (find_min(&mut net, &layers, &keys, key_bound), keys.iter().flatten().min()),
            (find_max(&mut net, &layers, &keys, key_bound), keys.iter().flatten().max()),
        ] {
            prop_assert_eq!(found.as_ref().map(|r| r.key), want.copied());
            if let Some(r) = found {
                prop_assert_eq!(keys[r.node], Some(r.key));
            }
        }
    }

    #[test]
    fn capability_gate_agrees_with_the_satisfies_lattice(
        g in arb_connected_graph(),
        backend_pick in 0u8..4,
        require_cd in any::<bool>(),
    ) {
        use radio_protocols::protocol::{
            Protocol, ProtocolError, ProtocolId, ProtocolInput, ProtocolOutput,
        };
        use radio_protocols::{Capabilities, LbFrame, RadioStack};
        use radio_sim::{CollisionDetection, EnergyModel};

        struct Probe {
            required: Capabilities,
        }
        impl Protocol for Probe {
            fn name(&self) -> ProtocolId {
                ProtocolId::new("probe")
            }
            fn requires(&self) -> Capabilities {
                self.required
            }
            fn execute(
                &self,
                net: &mut dyn RadioStack,
                _input: &ProtocolInput,
                frame: &mut LbFrame,
            ) -> ProtocolOutput {
                frame.clear();
                frame.add_sender(0, Msg::words(&[1]));
                for v in 1..net.num_nodes() {
                    frame.add_receiver(v);
                }
                net.local_broadcast(frame);
                ProtocolOutput::Deliveries(frame.delivered().len() as u64)
            }
        }

        let builder = StackBuilder::new(g.clone());
        let builder = match backend_pick % 2 {
            0 => builder,
            _ => builder.physical(EnergyModel::Uniform),
        };
        let mut stack = if backend_pick >= 2 {
            builder.with_cd().build()
        } else {
            builder.build()
        };
        let caps = stack.capabilities();

        // Lattice laws.
        prop_assert!(caps.satisfies(&Capabilities::baseline()));
        prop_assert!(caps.satisfies(&caps));
        let mut cd_req = Capabilities::baseline();
        cd_req.collision_detection = CollisionDetection::Receiver;
        prop_assert_eq!(caps.satisfies(&cd_req), backend_pick >= 2);

        // Gate agreement.
        let required = if require_cd { cd_req } else { Capabilities::baseline() };
        let probe = Probe { required };
        match probe.run(&mut stack, &ProtocolInput::default()) {
            Ok(report) => {
                prop_assert!(caps.satisfies(&required));
                prop_assert_eq!(report.lb_calls(), 1);
            }
            Err(ProtocolError::MissingCapability { available, .. }) => {
                prop_assert!(!caps.satisfies(&required));
                prop_assert_eq!(available, caps.label());
                prop_assert_eq!(stack.lb_time(), 0, "gate fired after a call");
            }
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }
}
