//! The harness's own tests: the tracing wrapper is transparent, the served
//! request stream is deterministic and accepted, and the workload inputs
//! are what the README says they are.

use std::sync::Arc;

use energy_bfs::{build_hierarchy, recursive_bfs_with_hierarchy};
use perfbench::served::{catalog_cells, with_server, Client, Requests};
use perfbench::trace::{Layers, TracedStack};
use perfbench::{recursive, runner, sweep};
use radio_bench::json::Json;
use radio_bench::results::ResultStore;
use radio_bench::scenarios::{
    default_scenarios, records_to_json, run_scenarios_with_stores, Family, Protocol, RunnerConfig,
    Scenario, StackSpec,
};
use radio_graph::dataset::DatasetCache;
use radio_protocols::{EnergyModel, RadioStack};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch");
    }
    dir
}

/// A small sweep over a grid and a path: every protocol family, every
/// backend the catalog uses.
fn small_scenarios() -> Vec<Scenario> {
    let registry = energy_bfs::protocol::registry();
    let spec = |s: &str| Protocol::from_spec(s, &registry).expect("spec resolves");
    let mut out = Vec::new();
    for (family, size) in [(Family::Grid, 64), (Family::Path, 48)] {
        let runs = [
            ("trivial", Protocol::TrivialBfs, StackSpec::Abstract),
            ("decay", Protocol::DecayBfs, StackSpec::Abstract),
            ("recursive", Protocol::RecursiveBfs, StackSpec::Abstract),
            (
                "clustering",
                Protocol::Clustering { inv_beta: 4 },
                StackSpec::Abstract,
            ),
            (
                "lbsweep-physical",
                Protocol::LbSweep { rounds: 8 },
                StackSpec::physical(false),
            ),
            (
                "trivial-cd",
                Protocol::TrivialBfsCd,
                StackSpec::physical(true),
            ),
            (
                "trivial-abstract-cd",
                Protocol::TrivialBfsCd,
                StackSpec::AbstractCd,
            ),
            (
                "decay-weighted",
                Protocol::DecayBfs,
                StackSpec::Physical {
                    cd: false,
                    model: EnergyModel::Weighted {
                        listen: 1,
                        transmit: 4,
                    },
                },
            ),
            (
                "hyperball",
                spec("diameter:hyperball:p=4"),
                StackSpec::Abstract,
            ),
            (
                "two-approx",
                spec("diameter:two_approx"),
                StackSpec::Abstract,
            ),
        ];
        for (tag, protocol, stack) in runs {
            out.push(Scenario {
                name: format!("{}-{tag}", family.label()),
                family: family.clone(),
                sizes: vec![size],
                seeds: vec![0, 1, 2],
                protocol,
                stack,
            });
        }
    }
    out
}

#[test]
fn traced_replica_records_equal_the_runner_records() {
    let scenarios = small_scenarios();
    let dir = scratch("replica");
    let datasets = DatasetCache::new(dir.join("datasets"));
    let plain = run_scenarios_with_stores(
        &scenarios,
        &RunnerConfig::with_threads(2),
        Some(&datasets),
        Some(&ResultStore::new(dir.join("plain"))),
    );
    let mut layers = Layers::default();
    let store = ResultStore::new(dir.join("traced"));
    let traced = runner::run_traced(&scenarios, 2, Some(&datasets), Some(&store), &mut layers);
    assert_eq!(records_to_json(&traced), records_to_json(&plain));
    let calls: u64 = plain.iter().map(|r| r.lb_calls).sum();
    assert_eq!(layers.lb.calls, calls, "the wrapper sees every LB call");
    assert_eq!(layers.stack_builds, plain.len() as u64);
    assert_eq!(layers.store_puts, plain.len() as u64);
    assert!(layers.lb.sampled > 0 && layers.lb.sampled < layers.lb.calls);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn wrapped_recursive_query_matches_unwrapped() {
    let graph = Arc::new(radio_graph::generators::path(300));
    let config = radio_bench::scaling_config(299, 5);
    let mut stack = StackSpec::Abstract.build(Arc::clone(&graph), 5);
    let hierarchy = build_hierarchy(&mut stack, &config);
    let mut plain = stack.clone();
    let mut wrapped = stack.clone();
    let before = plain.energy_view();
    let a = recursive_bfs_with_hierarchy(&mut plain, &hierarchy, &[0], 299, &config, &[]);
    let mut net = TracedStack::new(&mut wrapped);
    assert_eq!(net.capabilities(), plain.capabilities());
    assert_eq!(net.global_n(), plain.global_n());
    assert!(net.topology().is_some());
    let b = recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[0], 299, &config, &[]);
    let tally = net.into_tally();
    assert_eq!(a.dist, b.dist);
    let (ea, eb) = (
        plain.energy_view().diff(&before),
        wrapped.energy_view().diff(&before),
    );
    assert_eq!(ea.max_lb_energy(), eb.max_lb_energy());
    assert_eq!(ea.total_lb_energy(), eb.total_lb_energy());
    assert_eq!(tally.calls, ea.lb_time());
    assert!(perfbench::labels_match(
        &a.dist,
        &radio_graph::bfs::bfs_distances(&graph, 0)
    ));
}

#[test]
fn request_stream_is_deterministic_in_the_seed() {
    let cells = catalog_cells().len();
    assert_eq!(cells, 397);
    let draw = |seed| Requests::new(seed, cells).take(20_000).collect::<Vec<_>>();
    let a = draw(7);
    assert_eq!(a, draw(7));
    assert_ne!(a, draw(8));
    assert!(a.iter().all(|&c| c < cells));
    let mut seen = vec![false; cells];
    a.iter().for_each(|&c| seen[c] = true);
    assert!(seen.iter().all(|&s| s), "uniform draws reach every cell");
}

#[test]
fn every_catalog_request_names_a_catalog_cell() {
    let catalog = default_scenarios();
    for cell in catalog_cells() {
        let request = Json::parse(&cell.request()).expect("request is JSON");
        let name = request
            .get("scenario")
            .and_then(Json::as_str)
            .expect("scenario");
        let seeds = request
            .get("seeds")
            .and_then(Json::as_array)
            .expect("seeds");
        let scenario = catalog.iter().find(|s| s.name == name).expect("in catalog");
        assert_eq!(scenario.sizes.len(), 1, "one seed means one cell");
        assert_eq!(seeds.len(), 1);
        assert!(scenario.seeds.contains(&seeds[0].as_u64().expect("seed")));
    }
}

#[test]
fn generated_requests_are_accepted_by_the_server() {
    let dir = scratch("served");
    let store = ResultStore::new(&dir).with_hot_set(8);
    let datasets = DatasetCache::new(dir.join("datasets"));
    let cells = catalog_cells();
    let responses = with_server(&store, &datasets, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        Requests::new(3, cells.len())
            .take(24)
            .map(|c| {
                let mut response = String::new();
                client
                    .ask(&cells[c].request(), &mut response)
                    .expect("response");
                response
            })
            .collect::<Vec<_>>()
    })
    .expect("server runs and stops");
    for response in responses {
        let parsed = Json::parse(&response).expect("response is JSON");
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(true),
            "{response}"
        );
        let records = parsed
            .get("records")
            .and_then(Json::as_array)
            .expect("records");
        assert_eq!(records.len(), 1);
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn sweep_at_seed_zero_is_the_default_catalog() {
    let shifted = sweep::scenarios(sweep::shift(0, 0));
    let default = default_scenarios();
    assert_eq!(shifted.len(), default.len());
    for (a, b) in shifted.iter().zip(&default) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.family, b.family);
        assert_eq!(a.sizes, b.sizes);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.protocol, b.protocol);
        assert_eq!(a.stack, b.stack);
    }
    let next = sweep::scenarios(sweep::shift(0, 1));
    assert!(next.iter().zip(&default).all(|(a, b)| a
        .seeds
        .iter()
        .zip(&b.seeds)
        .all(|(x, y)| *x == y + 1)));
    assert_ne!(sweep::shift(1, 0), sweep::shift(0, 1));
}

#[test]
fn workload_seeds_map_to_disjoint_inputs() {
    assert_eq!(recursive::hierarchy_seed(0, 0), 0);
    assert_ne!(
        recursive::hierarchy_seed(1, 0),
        recursive::hierarchy_seed(0, 1)
    );
    let a = perfbench::hyperball::scenario(0).seeds;
    let b = perfbench::hyperball::scenario(1).seeds;
    assert!(a.iter().all(|s| !b.contains(s)));
}
