//! Integration tests that check the paper's quantitative claims end-to-end,
//! with the distributed (Lemma 2.5) clustering rather than the centralized
//! reference implementation.

use std::collections::HashSet;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use radio_energy::bfs::diameter::{three_halves_approx_diameter, two_approx_diameter};
use radio_energy::bfs::hardness::{edge_probing_protocol, GoodSlotAccounting};
use radio_energy::bfs::RecursiveBfsConfig;
use radio_energy::graph::cluster_graph::{distance_proxy_stats, lemma_2_1_bound, ClusterGraph};
use radio_energy::graph::diameter::{exact_diameter, satisfies_theorem_5_4_bound};
use radio_energy::graph::generators;
use radio_energy::graph::lower_bound::build_disjointness_graph;
use radio_energy::protocols::{cluster_distributed, ClusteringConfig, RadioStack, StackBuilder};

/// Lemma 2.2, with the clustering produced by the *distributed* protocol:
/// cluster-graph distances stay inside the paper's interval for every
/// sampled pair, across several random graphs and seeds.
#[test]
fn lemma_2_2_holds_for_distributed_clusterings() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut total_pairs = 0usize;
    let mut violations = 0usize;
    for trial in 0..4u64 {
        let g = generators::connected_gnp(150, 0.04, 300, &mut rng).expect("connected sample");
        let cfg = ClusteringConfig::new(4);
        let mut net = StackBuilder::new(g.clone()).build();
        let mut crng = ChaCha8Rng::seed_from_u64(100 + trial);
        let state = cluster_distributed(&mut net, &cfg, &mut crng);
        let cg = ClusterGraph::build(&g, state.to_graph_clustering());
        let pairs: Vec<(usize, usize)> = (0..g.num_nodes())
            .step_by(11)
            .flat_map(|u| (0..g.num_nodes()).step_by(13).map(move |v| (u, v)))
            .collect();
        let stats = distance_proxy_stats(&g, &cg, &pairs, 4.0);
        total_pairs += stats.pairs;
        violations += stats.violations;
    }
    assert!(total_pairs > 100);
    assert_eq!(
        violations, 0,
        "Lemma 2.2 interval violated {violations} times"
    );
}

/// Lemma 2.1: the probability that a ball intersects more than `j` clusters
/// decays like `(1 − e^{−2ℓβ})^j`; empirically, with `j` a small multiple of
/// the expectation the event should essentially never happen.
#[test]
fn lemma_2_1_tail_is_respected_by_distributed_clusterings() {
    let g = generators::grid(18, 18);
    let cfg = ClusteringConfig::new(4);
    let ell = cfg.inverse_beta() as u32;
    let j = (9.0 * (g.num_nodes() as f64).ln()).ceil() as usize;
    // The analytic bound at this j is tiny: (1 − e^{−2})^j with j ≈ 9·ln n.
    assert!(lemma_2_1_bound(cfg.beta, ell as f64, j as u32) < 2e-3);
    let mut exceed = 0usize;
    for trial in 0..10u64 {
        let mut net = StackBuilder::new(g.clone()).build();
        let mut rng = ChaCha8Rng::seed_from_u64(trial);
        let state = cluster_distributed(&mut net, &cfg, &mut rng);
        let clustering = state.to_graph_clustering();
        for probe in [0usize, 57, 200, 323] {
            if clustering.ball_cluster_intersections(&g, probe, ell) > j {
                exceed += 1;
            }
        }
    }
    assert_eq!(exceed, 0);
}

/// The diameter approximations meet their guarantees on random connected
/// graphs (not just the structured families used in unit tests).
#[test]
fn diameter_guarantees_on_random_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let config = RecursiveBfsConfig {
        inv_beta: 4,
        max_depth: 1,
        trivial_cutoff: 8,
        seed: 13,
    };
    for trial in 0..3u64 {
        let g = generators::connected_gnp(70, 0.07, 300, &mut rng).expect("connected sample");
        let diam = exact_diameter(&g).unwrap();

        let mut net2 = StackBuilder::new(g.clone()).build();
        let est2 = two_approx_diameter(&mut net2, &config);
        assert!(est2.estimate <= diam as u64);
        assert!(
            2 * est2.estimate >= diam as u64,
            "trial {trial}: 2-approx too small"
        );

        let mut net32 = StackBuilder::new(g.clone()).build();
        let est32 = three_halves_approx_diameter(&mut net32, &config, 55 + trial);
        assert!(
            satisfies_theorem_5_4_bound(diam, est32.estimate as u32),
            "trial {trial}: 3/2-approx {} outside bound for diameter {diam}",
            est32.estimate
        );
    }
}

/// Theorem 5.1's counting inequality `|X_good| ≤ 2·(total energy)` holds on
/// every trace, and the success upper bound scales linearly with the energy
/// budget until it saturates.
#[test]
fn good_slot_bound_scales_with_budget() {
    let n = 48;
    let g = generators::complete(n);
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let mut last_bound = 0.5;
    for budget in [2u64, 8, 32, 128] {
        let (trace, _) = edge_probing_protocol(&g, budget, &mut rng);
        let acc = GoodSlotAccounting::evaluate(n, &trace);
        assert!(acc.satisfies_energy_inequality());
        assert!(acc.success_upper_bound >= last_bound - 0.05);
        last_bound = acc.success_upper_bound;
    }
    // With a tiny budget the bound is near 1/2; the theorem's point.
    let (trace, _) = edge_probing_protocol(&g, 1, &mut rng);
    let acc = GoodSlotAccounting::evaluate(n, &trace);
    assert!(acc.success_upper_bound < 0.55);
}

/// The Theorem 5.2 construction is simultaneously (a) a faithful encoding of
/// set-disjointness in the diameter, (b) sparse, and (c) small — all three
/// properties the reduction needs, across random instances.
#[test]
fn disjointness_construction_properties_hold_on_random_instances() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    use rand::Rng;
    for _ in 0..6 {
        let ell = 6u32;
        let k = 1u64 << ell;
        let size_a = rng.gen_range(3..20);
        let size_b = rng.gen_range(3..20);
        let set_a: HashSet<u64> = (0..size_a).map(|_| rng.gen_range(0..k)).collect();
        let set_b: HashSet<u64> = (0..size_b).map(|_| rng.gen_range(0..k)).collect();
        let set_a: Vec<u64> = set_a.into_iter().collect();
        let set_b: Vec<u64> = set_b.into_iter().collect();
        let instance = build_disjointness_graph(&set_a, &set_b, ell);
        let diam = exact_diameter(&instance.graph).unwrap();
        assert_eq!(diam, instance.predicted_diameter());
        assert_eq!(
            instance.sets_disjoint(),
            diam == 2,
            "diameter does not encode disjointness"
        );
        // Sparsity: degeneracy O(log n).
        let degen = radio_energy::graph::arboricity::degeneracy(&instance.graph);
        let n = instance.graph.num_nodes() as f64;
        assert!((degen as f64) <= 6.0 * n.log2());
        // Size: n = α + β + 2ℓ + 2.
        assert_eq!(
            instance.graph.num_nodes(),
            set_a.len() + set_b.len() + 2 * ell as usize + 2
        );
    }
}

/// The "other energy models" discussion: under
/// `EnergyModel::Weighted { listen, transmit }`, a device's physical energy
/// is *defined* as `listen_w · listens + transmit_w · transmits`. On a
/// fixed sweep, the `EnergyView` weighted totals must equal exactly that,
/// recomputed from the raw slot counters, on both physical backends (plain
/// Decay and the CD-aware variant) — i.e. weighting happens at read time
/// and never perturbs the slot-level execution.
#[test]
fn weighted_energy_model_matches_raw_counter_recomputation() {
    use radio_energy::protocols::EnergyModel;
    let (listen_w, transmit_w) = (2u64, 5u64);
    let model = EnergyModel::Weighted {
        listen: listen_w,
        transmit: transmit_w,
    };
    let g = generators::grid(6, 6);
    let n = g.num_nodes();
    for cd in [false, true] {
        let mut builder = StackBuilder::new(g.clone()).physical(model).with_seed(9);
        if cd {
            builder = builder.with_cd();
        }
        let mut net = builder.build();
        // A fixed 6-round sweep: rotating sender block, everyone else
        // listening — every node pays both listen and transmit slots.
        let mut frame = net.new_frame();
        for round in 0..6u64 {
            frame.clear();
            for v in 0..n {
                if (v as u64 + round).is_multiple_of(6) {
                    frame.add_sender(v, radio_energy::protocols::Msg::words(&[round]));
                } else {
                    frame.add_receiver(v);
                }
            }
            net.local_broadcast(&mut frame);
        }
        let view = net.energy_view();
        assert_eq!(view.energy_model(), model);
        // Per-node: the view's weighted energy equals the definition,
        // recomputed from the raw (model-independent) slot counters — both
        // as exposed by the view and as read off the simulator's meter.
        let meter = net.radio().expect("physical build").meter();
        let mut total = 0u64;
        let mut some_node_transmitted = false;
        for v in 0..n {
            let listens = view.listen_slots(v).expect("physical view");
            let transmits = view.transmit_slots(v).expect("physical view");
            assert_eq!(listens, meter.listen_counts()[v], "cd={cd} node {v}");
            assert_eq!(transmits, meter.transmit_counts()[v], "cd={cd} node {v}");
            let expected = listen_w * listens + transmit_w * transmits;
            assert_eq!(
                view.physical_energy(v),
                Some(expected),
                "cd={cd} node {v}: weighted energy must be {listen_w}·{listens} + {transmit_w}·{transmits}"
            );
            some_node_transmitted |= transmits > 0;
            total += expected;
        }
        assert!(
            some_node_transmitted,
            "cd={cd}: sweep exercised no transmit"
        );
        assert_eq!(view.total_physical_energy(), Some(total), "cd={cd}");
        assert_eq!(
            view.max_physical_energy(),
            (0..n).filter_map(|v| view.physical_energy(v)).max(),
            "cd={cd}"
        );
    }
}

/// The E-series weight-ratio claim (the paper's "other energy models"
/// discussion), checked through the registry surface the sweep uses: the
/// same protocol per seed runs an identical slot schedule under the 1:1,
/// 1:4, and 4:1 listen:transmit ratios, the weighted totals decompose as
/// `listen_w·listens + transmit_w·transmits`, and on listen-bound
/// wavefronts the listen-heavy radio is the most expensive of the three.
#[test]
fn eseries_weight_ratios_reweight_a_fixed_slot_schedule() {
    use radio_energy::protocols::{EnergyModel, ProtocolInput};
    let g = generators::grid(8, 8);
    let registry = radio_energy::bfs::protocol::registry();
    for spec in ["trivial_bfs", "decay_bfs"] {
        let protocol = registry.get(spec).expect("spec resolves");
        let run = |model: EnergyModel, seed: u64| {
            let mut net = StackBuilder::new(g.clone())
                .physical(model)
                .with_seed(seed)
                .build();
            protocol
                .run(&mut net, &ProtocolInput::from_seed(seed))
                .expect("physical stacks satisfy the wavefront requirements")
        };
        for seed in 0..3u64 {
            let uniform = run(EnergyModel::Uniform, seed);
            let tx_heavy = run(
                EnergyModel::Weighted {
                    listen: 1,
                    transmit: 4,
                },
                seed,
            );
            let rx_heavy = run(
                EnergyModel::Weighted {
                    listen: 4,
                    transmit: 1,
                },
                seed,
            );
            // Identical slot schedule: the model is applied at read time.
            assert_eq!(uniform.physical_slots(), tx_heavy.physical_slots());
            assert_eq!(uniform.physical_slots(), rx_heavy.physical_slots());
            assert_eq!(uniform.outcome(), tx_heavy.outcome());
            assert_eq!(uniform.outcome(), rx_heavy.outcome());
            // Weighted totals decompose over the raw counters.
            for report in [&uniform, &tx_heavy, &rx_heavy] {
                let (lw, tw) = match report.energy.energy_model() {
                    EnergyModel::Uniform => (1, 1),
                    EnergyModel::Weighted { listen, transmit } => (listen, transmit),
                };
                for v in 0..g.num_nodes() {
                    let listens = report.energy.listen_slots(v).unwrap();
                    let transmits = report.energy.transmit_slots(v).unwrap();
                    assert_eq!(
                        report.energy.physical_energy(v),
                        Some(lw * listens + tw * transmits),
                        "{spec} seed {seed} node {v}"
                    );
                }
            }
            // Wavefront receivers listen far more than they transmit.
            let u = uniform.energy.max_physical_energy().unwrap();
            let t = tx_heavy.energy.max_physical_energy().unwrap();
            let r = rx_heavy.energy.max_physical_energy().unwrap();
            assert!(t > u, "{spec} seed {seed}: 1:4 must exceed uniform");
            assert!(r > t, "{spec} seed {seed}: 4:1 must dominate ({r} vs {t})");
        }
    }
}

/// Clustering energy matches Lemma 2.5's budget (at most the number of
/// growth rounds, in Local-Broadcast units) on a variety of topologies.
#[test]
fn clustering_energy_budget_lemma_2_5() {
    let graphs = vec![
        generators::grid(12, 12),
        generators::cycle(150),
        generators::complete_k_ary_tree(3, 5),
        generators::caterpillar(40, 3),
    ];
    for g in graphs {
        let cfg = ClusteringConfig::new(6);
        let mut net = StackBuilder::new(g.clone()).build();
        let mut rng = ChaCha8Rng::seed_from_u64(g.num_nodes() as u64);
        let state = cluster_distributed(&mut net, &cfg, &mut rng);
        state.validate().unwrap();
        let rounds = cfg.rounds(net.global_n());
        assert!(net.lb_time() <= rounds);
        assert!(net.max_lb_energy() <= rounds);
    }
}
