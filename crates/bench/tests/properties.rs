//! Property-based tests for the parallel scenario runner and the protocol
//! registry: randomly drawn `Scenario` configurations (family × size × seed
//! count × backend × protocol) must produce record-for-record identical
//! output on a many-worker pool and on a single worker; reordering a
//! scenario *list* must only permute the output stream by whole scenario —
//! never within one; and registry-dispatched protocol runs must be
//! byte-identical to the direct free-function calls they wrap, on every
//! backend.

use proptest::prelude::*;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use energy_bfs::baseline::{decay_bfs, trivial_bfs, trivial_bfs_cd};
use energy_bfs::{build_hierarchy, recursive_bfs_with_hierarchy, RecursiveBfsConfig};
use radio_bench::results::ResultStore;
use radio_bench::scenarios::{
    records_to_json, run_scenarios_with_stores, Family, Protocol, RunnerConfig, Scenario,
    ScenarioRecord, StackSpec,
};
use radio_protocols::protocol::ProtocolInput;
use radio_protocols::{
    cluster_distributed, ClusteringConfig, EnergyModel, Msg, RadioStack, Stack, StackBuilder,
};

/// Runs one scenario through the runner's list form.
fn run(s: &Scenario, cfg: &RunnerConfig, store: Option<&ResultStore>) -> Vec<ScenarioRecord> {
    run_scenarios_with_stores(std::slice::from_ref(s), cfg, None, store)
}

/// Decodes a drawn configuration into a `Scenario`. Families, backends and
/// protocols are picked by small integers so the vendored proptest's range
/// strategies cover the whole grid; sizes stay small because every case
/// runs the scenario at least twice (serial + pool).
fn decode_scenario(
    family_pick: u8,
    size: usize,
    seed_lo: u64,
    seed_count: usize,
    backend_pick: u8,
    proto_pick: u8,
) -> Scenario {
    let family = match family_pick % 7 {
        0 => Family::Path,
        1 => Family::Cycle,
        2 => Family::Grid,
        3 => Family::Tree { arity: 3 },
        4 => Family::Star,
        5 => Family::Lollipop,
        _ => Family::Complete,
    };
    let stack = match backend_pick % 6 {
        0 | 1 => StackSpec::Abstract,
        2 => StackSpec::physical(false),
        3 => StackSpec::physical(true),
        4 => StackSpec::AbstractCd,
        _ => StackSpec::Physical {
            cd: true,
            model: EnergyModel::Weighted {
                listen: 1,
                transmit: 3,
            },
        },
    };
    let protocol = match proto_pick % 5 {
        0 => Protocol::TrivialBfs,
        1 => Protocol::Clustering {
            inv_beta: 2 + u64::from(family_pick % 3),
        },
        2 => Protocol::DecayBfs,
        3 => Protocol::LbSweep {
            rounds: 2 + u64::from(proto_pick % 3),
        },
        _ => Protocol::TrivialBfsCd,
    };
    // The CD-exploiting wavefront needs a CD-capable stack — the registry's
    // capability gate would (correctly) refuse anything else. Both CD-capable
    // backends (physical and abstract) are exercised.
    let stack = if protocol == Protocol::TrivialBfsCd
        && !matches!(
            stack,
            StackSpec::AbstractCd | StackSpec::Physical { cd: true, .. }
        ) {
        if backend_pick.is_multiple_of(2) {
            StackSpec::physical(true)
        } else {
            StackSpec::AbstractCd
        }
    } else {
        stack
    };
    Scenario {
        name: format!("prop-{family_pick}-{backend_pick}-{proto_pick}"),
        family,
        sizes: vec![size],
        seeds: (seed_lo..seed_lo + seed_count as u64).collect(),
        protocol,
        stack,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_run_equals_serial_run_record_for_record(
        (family_pick, size, seed_lo) in (0u8..64, 12usize..40, 0u64..1_000_000),
        (seed_count, backend_pick, proto_pick, threads) in (1usize..6, 0u8..64, 0u8..64, 2usize..9),
    ) {
        let scenario = decode_scenario(
            family_pick, size, seed_lo, seed_count, backend_pick, proto_pick,
        );
        let serial = run(&scenario, &RunnerConfig::serial(), None);
        prop_assert_eq!(serial.len(), seed_count);
        let parallel = run(&scenario, &RunnerConfig::with_threads(threads), None);
        prop_assert_eq!(parallel.len(), serial.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            prop_assert_eq!(
                s, p,
                "scenario {:?} at {} threads: record #{} diverged",
                &scenario.name, threads, i
            );
        }
    }

    #[test]
    fn warm_result_store_runs_are_byte_identical_to_cold_at_any_thread_count(
        (family_pick, size, seed_lo) in (0u8..64, 12usize..40, 0u64..1_000_000),
        (seed_count, backend_pick, proto_pick, threads) in (1usize..6, 0u8..64, 0u8..64, 1usize..9),
    ) {
        // The incremental-sweep property: for ANY drawn scenario, a cold
        // store-backed run and a warm one emit the same JSON bytes as the
        // storeless serial reference — at any worker count. This is what
        // licenses `--result-dir` as a pure wall-clock optimization.
        let scenario = decode_scenario(
            family_pick, size, seed_lo, seed_count, backend_pick, proto_pick,
        );
        let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join("prop-results")
            .join(format!("{}-{family_pick}-{size}-{seed_lo}-{seed_count}-{backend_pick}-{proto_pick}",
                std::process::id()));
        let store = ResultStore::new(&dir);
        let reference = records_to_json(&run(&scenario, &RunnerConfig::serial(), None));
        let cfg = RunnerConfig::with_threads(threads);
        let cold = records_to_json(&run(&scenario, &cfg, Some(&store)));
        prop_assert_eq!(store.misses() as usize, seed_count, "cold run computes every cell");
        let warm = records_to_json(&run(&scenario, &cfg, Some(&store)));
        prop_assert_eq!(store.hits() as usize, seed_count, "warm run answers every cell");
        prop_assert_eq!(&cold, &reference, "cold store run diverged from the serial reference");
        prop_assert_eq!(&warm, &reference, "warm store run diverged from the serial reference");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shuffling_the_scenario_list_permutes_output_by_scenario_only(
        perm_seed in 0u64..1_000_000,
        threads in 1usize..9,
    ) {
        // A fixed, distinguishable list: different names, families, seed
        // counts and backends.
        let list: Vec<Scenario> = vec![
            decode_scenario(0, 24, 5, 3, 0, 0),
            decode_scenario(2, 30, 0, 4, 2, 1),
            decode_scenario(4, 18, 9, 2, 4, 2),
            decode_scenario(6, 16, 1, 3, 0, 1),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, mut s)| {
            s.name = format!("list-{i}");
            s
        })
        .collect();
        // Per-scenario reference blocks from the unshuffled serial run.
        let blocks: Vec<_> = list
            .iter()
            .map(|s| run(s, &RunnerConfig::serial(), None))
            .collect();

        // Fisher–Yates the list with a seeded RNG.
        let mut order: Vec<usize> = (0..list.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(perm_seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let shuffled: Vec<Scenario> = order.iter().map(|&i| list[i].clone()).collect();
        let records =
            run_scenarios_with_stores(&shuffled, &RunnerConfig::with_threads(threads), None, None);

        // The output must be exactly the reference blocks, concatenated in
        // shuffled order: grouped by scenario, internally untouched.
        let mut cursor = 0usize;
        for &i in &order {
            let block = &blocks[i];
            prop_assert!(cursor + block.len() <= records.len());
            for (j, want) in block.iter().enumerate() {
                prop_assert_eq!(
                    &records[cursor + j], want,
                    "scenario {:?} (perm {:?}): record {} moved or changed",
                    &list[i].name, &order, j
                );
            }
            cursor += block.len();
        }
        prop_assert_eq!(cursor, records.len(), "stray records after all blocks");
    }
}

/// Builds one stack of the drawn backend; `cd` forces collision detection
/// (for the `*_cd` protocols) and `backend_pick`'s high bit enables it
/// opportunistically everywhere else, so both CD and no-CD stacks are
/// exercised for every protocol that accepts both.
fn build_stack(backend_pick: u8, cd: bool, g: &radio_graph::Graph, seed: u64) -> Stack {
    let builder = StackBuilder::new(g.clone()).with_seed(seed);
    let builder = match backend_pick % 3 {
        0 => builder,
        1 => builder.physical(EnergyModel::Uniform),
        _ => builder.physical(EnergyModel::Weighted {
            listen: 1,
            transmit: 3,
        }),
    };
    if cd || backend_pick >= 128 {
        builder.with_cd().build()
    } else {
        builder.build()
    }
}

/// The exact free-function call each registry spec wraps, replicated the
/// way the pre-redesign scenario runner made it. Returns the outcome scalar
/// the record would carry.
fn run_direct(spec: &str, net: &mut Stack, seed: u64) -> u64 {
    let n = net.num_nodes();
    let active = vec![true; n];
    match spec {
        "trivial_bfs" => {
            let result = trivial_bfs(net, &[0], &active, n as u64);
            result.dist.iter().filter(|d| d.is_some()).count() as u64
        }
        "trivial_bfs_cd" => {
            let result = trivial_bfs_cd(net, &[0], &active, n as u64);
            result.dist.iter().filter(|d| d.is_some()).count() as u64
        }
        "decay_bfs" => {
            let result = decay_bfs(net, 0);
            result.dist.iter().filter(|d| d.is_some()).count() as u64
        }
        "recursive" => {
            let depth = (n - 1) as u64;
            let config = RecursiveBfsConfig::for_depth(depth, 0.5, seed);
            let hierarchy = build_hierarchy(net, &config);
            let result = recursive_bfs_with_hierarchy(net, &hierarchy, &[0], depth, &config, &[]);
            result.dist.iter().filter(|d| d.is_some()).count() as u64
        }
        "clustering:b=3" => {
            let cfg = ClusteringConfig::new(3);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            cluster_distributed(net, &cfg, &mut rng).num_clusters() as u64
        }
        "lb_sweep:r=5" => {
            let mut frame = net.new_frame();
            let mut delivered = 0u64;
            for r in 0..5u64 {
                frame.clear();
                let src = (r as usize) % n;
                frame.add_sender(src, Msg::words(&[r]));
                for v in 0..n {
                    if v != src {
                        frame.add_receiver(v);
                    }
                }
                net.local_broadcast(&mut frame);
                delivered += frame.delivered().len() as u64;
            }
            delivered
        }
        other => panic!("no direct twin for spec {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn registry_dispatch_is_byte_identical_to_direct_calls(
        (family_pick, size, seed) in (0u8..64, 10usize..36, 0u64..1_000_000),
        (backend_pick, proto_pick) in (0u8..255, 0u8..64),
    ) {
        // Every registered protocol, random scenarios, both backends (and
        // both CD settings where the protocol allows them): resolving a
        // spec through the registry and running it must reproduce the
        // direct free-function call bit for bit — same payload, same
        // outcome, same energy counters. This is the contract that made the
        // scenario runner's migration to registry dispatch a no-op at the
        // JSON level.
        let specs = [
            "trivial_bfs",
            "trivial_bfs_cd",
            "decay_bfs",
            "recursive",
            "clustering:b=3",
            "lb_sweep:r=5",
        ];
        let spec = specs[usize::from(proto_pick) % specs.len()];
        let family = match family_pick % 5 {
            0 => Family::Path,
            1 => Family::Cycle,
            2 => Family::Grid,
            3 => Family::Tree { arity: 3 },
            _ => Family::Star,
        };
        let g = family.build(size);
        let cd = spec == "trivial_bfs_cd";

        let mut via_registry = build_stack(backend_pick, cd, &g, seed);
        let report = energy_bfs::protocol::registry()
            .get(spec)
            .unwrap()
            .run(&mut via_registry, &ProtocolInput::from_seed(seed))
            .unwrap();

        let mut direct_stack = build_stack(backend_pick, cd, &g, seed);
        let outcome = run_direct(spec, &mut direct_stack, seed);

        prop_assert_eq!(
            report.outcome(), outcome,
            "spec {} on {}: outcome diverged", spec, direct_stack.capabilities().label()
        );
        prop_assert_eq!(
            report.energy, direct_stack.energy_view(),
            "spec {} on {}: energy counters diverged",
            spec, direct_stack.capabilities().label()
        );
        prop_assert_eq!(report.lb_calls(), via_registry.lb_time());
    }
}
