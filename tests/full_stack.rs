//! Integration tests spanning all crates: the physical `RN[∞]` simulator,
//! the Local-Broadcast protocol layer, and the recursive BFS, exercised
//! together the way a deployment would compose them.

use radio_energy::bfs::baseline::{decay_bfs, trivial_bfs};
use radio_energy::bfs::protocol::registry;
use radio_energy::bfs::{build_hierarchy, recursive_bfs_with_hierarchy, RecursiveBfsConfig};
use radio_energy::graph::bfs::bfs_distances;
use radio_energy::graph::generators;
use radio_energy::protocols::{
    EnergyModel, ProtocolError, ProtocolInput, RadioStack, StackBuilder,
};

/// The recursive BFS, run end-to-end on the *physical* backend: every
/// Local-Broadcast expands into Decay slots with real collisions, and the
/// labelling must still match the centralized reference.
#[test]
fn recursive_bfs_on_the_physical_simulator_matches_reference() {
    let g = generators::grid(8, 8);
    let truth = bfs_distances(&g, 0);
    let depth = *truth.iter().max().unwrap() as u64;

    let config = RecursiveBfsConfig {
        inv_beta: 4,
        max_depth: 1,
        seed: 31,
    };
    let mut net = StackBuilder::new(g.clone())
        .physical(EnergyModel::Uniform)
        .with_seed(12345)
        .build();
    let hierarchy = build_hierarchy(&mut net, &config);
    let outcome = recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[0], depth, &config, &[]);

    for v in g.nodes() {
        assert_eq!(
            outcome.dist[v],
            Some(truth[v] as u64),
            "vertex {v}: physical run disagrees with the centralized BFS"
        );
    }
    // Physical energy is the LB-unit energy blown up by the Lemma 2.4 slot
    // cost — strictly larger, and time advanced by whole Decay windows. The
    // unified view carries both unit systems in one snapshot.
    let view = net.energy_view();
    assert!(view.max_physical_energy().unwrap() > view.max_lb_energy());
    assert!(view.physical_slots().unwrap() >= view.lb_time());
}

/// The same protocol run on the abstract and on the physical backend charges
/// identical Local-Broadcast-unit energy (the physical backend only changes
/// what a unit costs in slots), so the paper's unit of analysis is
/// backend-independent.
#[test]
fn lb_unit_accounting_is_backend_independent() {
    let g = generators::path(40);
    let config = RecursiveBfsConfig {
        inv_beta: 4,
        max_depth: 1,
        seed: 7,
    };

    let mut abstract_net = StackBuilder::new(g.clone()).build();
    let active = vec![true; g.num_nodes()];
    let _ = trivial_bfs(&mut abstract_net, &[0], &active, 39);

    let mut physical_net = StackBuilder::new(g.clone())
        .physical(EnergyModel::Uniform)
        .with_seed(99)
        .build();
    let _ = trivial_bfs(&mut physical_net, &[0], &active, 39);

    // The trivial wavefront makes exactly the same calls with the same
    // participant sets on both backends (delivery randomness cannot change
    // who participates, only what is heard — and decay delivers w.h.p.).
    assert_eq!(abstract_net.lb_time(), physical_net.lb_time());
    for v in g.nodes() {
        assert_eq!(
            abstract_net.lb_energy(v),
            physical_net.lb_energy(v),
            "vertex {v} charged differently on the two backends"
        );
    }
    // Sanity on the recursive configuration too: it must at least build the
    // same-shaped hierarchy on both backends.
    let mut a2 = StackBuilder::new(g.clone()).build();
    let ha = build_hierarchy(&mut a2, &config);
    let mut p2 = StackBuilder::new(g)
        .physical(EnergyModel::Uniform)
        .with_seed(99)
        .build();
    let hp = build_hierarchy(&mut p2, &config);
    assert_eq!(ha.len(), hp.len());
}

/// Decay-BFS (the classical baseline) against the recursive algorithm on the
/// same abstract backend: both produce correct labels; the baseline's
/// per-vertex energy equals the eccentricity while the recursive algorithm's
/// wavefront participation (Claim 1) stays far below the stage count.
#[test]
fn baseline_and_recursive_bfs_agree_on_labels() {
    let g = generators::caterpillar(60, 2);
    let truth = bfs_distances(&g, 0);
    let depth = *truth.iter().max().unwrap() as u64;

    let mut baseline_net = StackBuilder::new(g.clone()).build();
    let baseline = decay_bfs(&mut baseline_net, 0);

    let config = RecursiveBfsConfig {
        inv_beta: 8,
        max_depth: 1,
        seed: 3,
    };
    let mut recursive_net = StackBuilder::new(g.clone()).build();
    let hierarchy = build_hierarchy(&mut recursive_net, &config);
    let outcome =
        recursive_bfs_with_hierarchy(&mut recursive_net, &hierarchy, &[0], depth, &config, &[]);

    for v in g.nodes() {
        assert_eq!(baseline.dist[v], Some(truth[v] as u64));
        assert_eq!(outcome.dist[v], Some(truth[v] as u64));
    }
    // Baseline: the farthest vertex listened in every sweep.
    assert_eq!(baseline_net.max_lb_energy(), depth);
}

/// The whole registry, end to end on the physical simulator: every
/// registered spec resolves, passes its capability gate on a suitably built
/// stack, labels/clusters/delivers something sensible, and reports
/// slot-level energy through the unified report.
#[test]
fn every_registered_protocol_runs_end_to_end_on_the_physical_backend() {
    let g = generators::grid(8, 8);
    let registry = registry();
    for spec in [
        "trivial_bfs",
        "trivial_bfs_cd",
        "decay_bfs",
        "recursive",
        "clustering:b=4",
        "lb_sweep:r=8",
    ] {
        let protocol = registry.get(spec).expect("spec resolves");
        let builder = StackBuilder::new(g.clone())
            .physical(EnergyModel::Uniform)
            .with_seed(13);
        let mut stack = if protocol.requires().collision_detection.is_receiver() {
            builder.with_cd().build()
        } else {
            builder.build()
        };
        let report = protocol
            .run(&mut stack, &ProtocolInput::from_seed(13))
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(report.outcome() >= 1, "{spec}: empty outcome");
        assert!(report.lb_calls() >= 1, "{spec}: no Local-Broadcasts");
        assert!(
            report.energy.max_physical_energy().unwrap() > 0,
            "{spec}: no slot-level energy on a physical stack"
        );
        if let Some(dist) = report.output.distances() {
            let truth = bfs_distances(&g, 0);
            let correct = g
                .nodes()
                .filter(|&v| dist[v] == Some(truth[v] as u64))
                .count();
            assert!(
                correct + 2 >= g.num_nodes(),
                "{spec}: only {correct}/{} labels correct",
                g.num_nodes()
            );
        }
    }
}

/// The capability gate across the whole backend matrix: the CD wavefront
/// refuses `abstract` and `physical` stacks with a typed error (never a
/// panic) and runs on `abstract_cd` and `physical_cd`.
#[test]
fn cd_capability_gate_spans_the_backend_matrix() {
    let g = generators::path(12);
    let protocol = registry().get("trivial_bfs_cd").expect("spec resolves");
    let build = |physical: bool, cd: bool| {
        let b = StackBuilder::new(g.clone()).with_seed(2);
        let b = if physical {
            b.physical(EnergyModel::Uniform)
        } else {
            b
        };
        if cd {
            b.with_cd().build()
        } else {
            b.build()
        }
    };
    for (physical, label) in [(false, "abstract"), (true, "physical")] {
        let mut refused = build(physical, false);
        match protocol.run(&mut refused, &ProtocolInput::from_seed(2)) {
            Err(ProtocolError::MissingCapability { available, .. }) => {
                assert_eq!(available, label)
            }
            Ok(_) => panic!("{label}: ran without CD"),
            Err(e) => panic!("{label}: wrong error {e}"),
        }
        assert_eq!(refused.lb_time(), 0, "{label}: gate fired after calls");
        let mut allowed = build(physical, true);
        let report = protocol
            .run(&mut allowed, &ProtocolInput::from_seed(2))
            .expect("CD stack passes");
        assert_eq!(report.outcome(), 12);
    }
}

/// A full-stack smoke test on the physical simulator with collision
/// detection enabled at the channel level (the algorithms never rely on it,
/// per the paper's weakest-model assumption, but it must not break them).
#[test]
fn physical_run_with_small_world_topology() {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
    let (g, _) =
        generators::connected_unit_disc(120, 11.0, 2.0, 300, &mut rng).expect("connected field");
    let truth = bfs_distances(&g, 5);
    let depth = *truth.iter().max().unwrap() as u64;

    let config = RecursiveBfsConfig {
        inv_beta: 4,
        max_depth: 1,
        seed: 21,
    };
    let mut net = StackBuilder::new(g.clone())
        .physical(EnergyModel::Uniform)
        .with_seed(7)
        .build();
    let hierarchy = build_hierarchy(&mut net, &config);
    let outcome = recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[5], depth, &config, &[]);
    let correct = g
        .nodes()
        .filter(|&v| outcome.dist[v] == Some(truth[v] as u64))
        .count();
    // Decay delivery is w.h.p., not certain; demand near-perfect agreement.
    assert!(
        correct + 2 >= g.num_nodes(),
        "only {correct}/{} labels correct on the physical backend",
        g.num_nodes()
    );
}
