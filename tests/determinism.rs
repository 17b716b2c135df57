//! Multi-seed determinism sweeps.
//!
//! The frame engine makes iteration order — and therefore the mapping of
//! RNG draws to nodes — a structural property (dense sets iterate ascending
//! by construction). These tests codify the guarantee as a 6-seed × 2-run
//! sweep at three levels of the stack: the physical Decay primitive, the
//! virtual cluster network, and the full recursive BFS. Every run must be
//! byte-identical to its twin: same deliveries, same distance labels, and
//! identical energy meters down to the last counter.

use radio_energy::bfs::{recursive_bfs, RecursiveBfsConfig};
use radio_energy::graph::generators;
use radio_energy::protocols::{
    cluster_distributed, local_broadcast_once, ClusteringConfig, Msg, RadioStack, StackBuilder,
    VirtualClusterNet,
};
use radio_energy::sim::{
    decay_local_broadcast, DecayParams, DecayScratch, RadioNetwork, RoundFrame,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEEDS: [u64; 6] = [1, 7, 42, 1001, 65535, 0xDEAD_BEEF];

#[test]
fn decay_local_broadcast_is_seed_deterministic_across_runs() {
    let n = 48;
    let g = generators::grid(6, 8);
    let params = DecayParams::for_network(n, g.max_degree());
    let run = |seed: u64| -> String {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
        let mut frame: RoundFrame<u64> = RoundFrame::new(n);
        let mut scratch: DecayScratch<u64> = DecayScratch::new(n);
        let mut log = String::new();
        // Several consecutive calls through one reused frame, alternating
        // sender/receiver splits.
        for round in 0..4u64 {
            frame.clear();
            for v in 0..n {
                if (v as u64 + round).is_multiple_of(3) {
                    frame.add_sender(v, v as u64);
                } else {
                    frame.add_receiver(v);
                }
            }
            let slots = decay_local_broadcast(&mut net, &mut frame, &mut scratch, params, &mut rng);
            let delivered: Vec<(usize, u64)> =
                frame.delivered().iter().map(|(v, &m)| (v, m)).collect();
            log.push_str(&format!("round {round}: slots {slots} got {delivered:?}\n"));
        }
        log.push_str(&format!("{:?}", net.meter()));
        log
    };
    for seed in SEEDS {
        assert_eq!(run(seed), run(seed), "decay diverged for seed {seed}");
    }
}

#[test]
fn virtual_cluster_net_is_seed_deterministic_across_runs() {
    let g = generators::grid(10, 10);
    let run = |seed: u64| -> String {
        let mut net = StackBuilder::new(g.clone()).with_seed(seed).build();
        let cfg = ClusteringConfig::new(3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5a5a);
        let state = cluster_distributed(&mut net, &cfg, &mut rng);
        let k = state.num_clusters();
        let mut log = format!("clusters {k} centers {:?}\n", state.centers);
        let mut virt = VirtualClusterNet::new(&mut net, &state);
        let senders: Vec<(usize, Msg)> = (0..k / 2).map(|c| (c, Msg::words(&[c as u64]))).collect();
        let receivers: Vec<usize> = (k / 2..k).collect();
        let out = local_broadcast_once(&mut virt, &senders, &receivers);
        let delivered: Vec<(usize, u64)> = out.iter().map(|(c, m)| (c, m.word(0))).collect();
        log.push_str(&format!("delivered {delivered:?}\n"));
        let energies: Vec<u64> = (0..g.num_nodes()).map(|v| net.lb_energy(v)).collect();
        log.push_str(&format!("time {} energy {energies:?}", net.lb_time()));
        log
    };
    for seed in SEEDS {
        assert_eq!(run(seed), run(seed), "virtual net diverged for seed {seed}");
    }
}

#[test]
fn recursive_bfs_is_seed_deterministic_across_runs() {
    let g = generators::grid(9, 9);
    let run = |seed: u64| -> String {
        let mut net = StackBuilder::new(g.clone()).with_seed(seed).build();
        let config = RecursiveBfsConfig {
            inv_beta: 4,
            max_depth: 1,
            seed,
        };
        let outcome = recursive_bfs(&mut net, 0, 16, &config);
        let energies: Vec<u64> = (0..g.num_nodes()).map(|v| net.lb_energy(v)).collect();
        format!(
            "dist {:?}\ntime {} energy {energies:?}",
            outcome.dist,
            net.lb_time()
        )
    };
    for seed in SEEDS {
        assert_eq!(
            run(seed),
            run(seed),
            "recursive BFS diverged for seed {seed}"
        );
    }
}

#[test]
fn cd_decay_local_broadcast_is_seed_deterministic_across_runs() {
    // The CD-aware decay path, byte-identical per seed: deliveries, the
    // per-receiver feedback verdicts, slots used, and the energy meter.
    use radio_energy::sim::{decay_local_broadcast_cd, CollisionDetection};
    let n = 48;
    let g = generators::grid(6, 8);
    let params = DecayParams::for_network(n, g.max_degree());
    let run = |seed: u64| -> String {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net: RadioNetwork<u64> =
            RadioNetwork::new(g.clone()).with_collision_detection(CollisionDetection::Receiver);
        let mut frame: RoundFrame<u64> = RoundFrame::new(n);
        let mut scratch: DecayScratch<u64> = DecayScratch::new(n);
        let mut log = String::new();
        for round in 0..4u64 {
            frame.clear();
            for v in 0..n {
                if (v as u64 + round).is_multiple_of(5) {
                    frame.add_sender(v, v as u64);
                } else {
                    frame.add_receiver(v);
                }
            }
            let slots =
                decay_local_broadcast_cd(&mut net, &mut frame, &mut scratch, params, &mut rng);
            let delivered: Vec<(usize, u64)> =
                frame.delivered().iter().map(|(v, &m)| (v, m)).collect();
            let verdicts: Vec<(usize, String)> = frame
                .feedback()
                .iter()
                .map(|(v, fb)| (v, format!("{fb:?}")))
                .collect();
            log.push_str(&format!(
                "round {round}: slots {slots} got {delivered:?} verdicts {verdicts:?}\n"
            ));
        }
        log.push_str(&format!("{:?}", net.meter()));
        log
    };
    for seed in SEEDS {
        assert_eq!(run(seed), run(seed), "CD decay diverged for seed {seed}");
    }
}

/// The default sweep's JSON as committed: what
/// `SCENARIO_JSON=<path> experiments -- scenarios --no-result-cache` writes.
/// A change that means to alter records regenerates this file with that
/// command and says so.
const GOLDEN_DEFAULT_SWEEP: &str = include_str!("golden/default_sweep.json");

#[test]
fn parallel_scenario_runner_is_thread_count_invariant_on_the_default_sweep() {
    // The determinism-conformance contract of the worker pool: every
    // default scenario, run at 1, 2 and 8 threads, produces byte-identical
    // JSON. Results are collected by work-item index (never completion
    // order), so this must hold exactly; on failure the assertion names the
    // first diverging record rather than dumping two multi-hundred-line
    // JSON blobs. The serial JSON must also match the committed golden
    // sweep byte for byte, so a change to any record fails here too.
    use radio_bench::scenarios::{
        default_scenarios, records_to_json, run_scenarios_with_stores, RunnerConfig,
    };
    let scenarios = default_scenarios();
    let reference = run_scenarios_with_stores(&scenarios, &RunnerConfig::serial(), None, None);
    let reference_json = records_to_json(&reference);
    if reference_json != GOLDEN_DEFAULT_SWEEP {
        let mut want = GOLDEN_DEFAULT_SWEEP.lines();
        let mut got = reference_json.lines();
        let mut line = 1;
        loop {
            match (want.next(), got.next()) {
                (Some(w), Some(g)) if w == g => line += 1,
                (w, g) => panic!(
                    "default sweep diverges from tests/golden/default_sweep.json at line \
                     {line}:\n  golden: {w:?}\n  serial: {g:?}"
                ),
            }
        }
    }
    for threads in [2usize, 8] {
        let parallel =
            run_scenarios_with_stores(&scenarios, &RunnerConfig::with_threads(threads), None, None);
        assert_eq!(
            parallel.len(),
            reference.len(),
            "threads={threads}: record count diverged"
        );
        if let Some((i, (serial_rec, parallel_rec))) = reference
            .iter()
            .zip(&parallel)
            .enumerate()
            .find(|(_, (a, b))| a != b)
        {
            panic!(
                "threads={threads}: first diverging record is #{i} \
                 (scenario {:?}, n {}, seed {}):\n  serial:   {serial_rec:?}\n  parallel: {parallel_rec:?}",
                serial_rec.scenario, serial_rec.n, serial_rec.seed
            );
        }
        assert_eq!(
            records_to_json(&parallel),
            reference_json,
            "threads={threads}: records agree but JSON bytes diverged"
        );
    }
}

#[test]
fn registry_dispatched_protocols_are_seed_deterministic_across_runs() {
    // The Protocol surface on top of the stacks: resolving a spec and
    // running it twice with the same seed must reproduce the full report —
    // payload and every energy counter, compared through its `Debug`
    // rendering — on both the abstract and
    // the physical-CD backend (the latter exercising the CD wavefront's
    // verdict handling end to end).
    use radio_energy::bfs::protocol::registry;
    use radio_energy::protocols::{EnergyModel, ProtocolInput};
    let g = generators::grid(7, 7);
    let registry = registry();
    for spec in [
        "trivial_bfs",
        "trivial_bfs_cd",
        "decay_bfs",
        "clustering:b=3",
    ] {
        let run = |seed: u64, physical: bool| -> String {
            let protocol = registry.get(spec).expect("spec resolves");
            let builder = StackBuilder::new(g.clone()).with_seed(seed);
            let builder = if physical {
                builder.physical(EnergyModel::Uniform)
            } else {
                builder
            };
            let mut net = if physical || protocol.requires().collision_detection.is_receiver() {
                builder.with_cd().build()
            } else {
                builder.build()
            };
            let report = protocol
                .run(&mut net, &ProtocolInput::from_seed(seed))
                .expect("capabilities satisfied");
            format!("{report:?}")
        };
        for seed in SEEDS {
            for physical in [false, true] {
                assert_eq!(
                    run(seed, physical),
                    run(seed, physical),
                    "{spec} diverged for seed {seed} (physical={physical})"
                );
            }
        }
    }
}

#[test]
fn physical_cd_stack_is_seed_deterministic_across_runs() {
    // The same guarantee one layer up: a physical_cd stack driving the
    // CD-aware decay through the RadioStack surface, including the unified
    // energy view.
    use radio_energy::protocols::EnergyModel;
    let g = generators::grid(5, 5);
    let run = |seed: u64| -> String {
        let mut net = StackBuilder::new(g.clone())
            .physical(EnergyModel::Uniform)
            .with_cd()
            .with_seed(seed)
            .build();
        let mut frame = net.new_frame();
        let mut log = String::new();
        for round in 0..3u64 {
            frame.clear();
            for v in 0..25usize {
                if (v as u64 + round).is_multiple_of(6) {
                    frame.add_sender(v, Msg::words(&[v as u64]));
                } else {
                    frame.add_receiver(v);
                }
            }
            net.local_broadcast(&mut frame);
            let delivered: Vec<(usize, u64)> = frame
                .delivered()
                .iter()
                .map(|(v, m)| (v, m.word(0)))
                .collect();
            let verdicts: Vec<(usize, String)> = frame
                .feedback()
                .iter()
                .map(|(v, fb)| (v, format!("{fb:?}")))
                .collect();
            log.push_str(&format!("round {round}: {delivered:?} / {verdicts:?}\n"));
        }
        let view = net.energy_view();
        let energies: Vec<(u64, Option<u64>)> = (0..25)
            .map(|v| (view.lb_energy(v), view.physical_energy(v)))
            .collect();
        log.push_str(&format!(
            "time {} slots {:?} energy {energies:?}",
            view.lb_time(),
            view.physical_slots()
        ));
        log
    };
    for seed in SEEDS {
        assert_eq!(
            run(seed),
            run(seed),
            "physical_cd stack diverged for seed {seed}"
        );
    }
}
