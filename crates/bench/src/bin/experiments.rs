//! Experiment runner: regenerates every quantitative claim of the paper,
//! one experiment per id, E1–E14; each experiment's doc comment below
//! names the lemma, theorem or figure it checks.
//!
//! Usage:
//!
//! ```text
//! cargo run -p radio-bench --release --bin experiments -- all
//! cargo run -p radio-bench --release --bin experiments -- e6 e12
//! cargo run -p radio-bench --release --bin experiments -- scenarios --threads 4
//! ```
//!
//! An unknown experiment id or flag exits 2 with the usage line.
//!
//! `scenarios` accepts `--threads N` (worker threads for the scenario
//! runner; default = available parallelism, `1` = one worker running the
//! cells in order),
//! `--quiet` (suppress per-scenario progress lines on stderr), and
//! `--protocol <spec[,spec…]>` (run only the sweep scenarios whose
//! protocol resolves to one of the given registry specs, e.g.
//! `trivial_bfs_cd`, `clustering:b=4`, or the pair
//! `diameter:hyperball:p=6,diameter:two_approx`; an unknown spec exits
//! non-zero with the registry's known-protocol list). Specs themselves may
//! contain commas between parameters — a comma starts a new spec only when
//! what follows it is a registered protocol name, so
//! `diameter:hyperball:p=6,rounds=12` stays one spec. The emitted records
//! and JSON are byte-identical for every thread count.
//!
//! Dataset substrate knobs (scenarios only):
//!
//! * `--dataset-dir <path>` — where compiled CSR artifacts live
//!   (default `target/datasets`); graphs are compiled there on first use
//!   and bulk-read on every later run.
//! * `--no-dataset-cache` — build every graph from its generator instead.
//!   Records are byte-identical either way (the cache changes where graph
//!   bytes come from, never what they are).
//! * `--xl` — append the `xl-` large-graph scenarios (n up to 2^20) after
//!   the default sweep. Off by default: the 397 default records are the
//!   frozen conformance surface, xl cells are strictly append-only.
//!
//! Result store knobs (scenarios and serve):
//!
//! * `--result-dir <path>` — where per-cell record artifacts live (default
//!   `target/results`). The runner consults the store before dispatching
//!   anything, so a warm re-run computes only absent cells — and the JSON
//!   stays byte-identical to an uncached run at every thread count.
//! * `--no-result-cache` — recompute every cell (the pre-store behaviour).
//!
//! Server mode — sweep-as-a-service:
//!
//! ```text
//! cargo run -p radio-bench --release --bin experiments -- serve --listen 127.0.0.1:7171
//! ```
//!
//! accepts line-delimited JSON requests over TCP (`{"cmd":"run",…}` —
//! single scenario or `"batch":[…]` of them — `{"cmd":"stats"}`,
//! `{"cmd":"shutdown"}`), validates specs through the protocol registry
//! (unknown specs come back as structured errors mirroring this binary's
//! exit-2 contract), shards cells across one persistent worker pool, and
//! answers from the result store when warm. `--listen` defaults to
//! `127.0.0.1:0` (an ephemeral port, printed on stderr). Serve-only
//! knobs:
//!
//! * `--accept-threads N` — connection-handler threads sharing the
//!   listener (default 4); concurrent clients are served in parallel,
//!   all sharing the `--threads` compute pool.
//! * `--hot-set-cap N` — bound on the in-memory hot set of decoded
//!   records in front of the result store (default 256; `0` disables).
//!   Warm hits at the cap answer without touching disk; responses are
//!   byte-identical either way.

use energy_bfs::baseline::trivial_bfs;
use energy_bfs::diameter::{three_halves_approx_diameter, two_approx_diameter};
use energy_bfs::estimates::UpdateKind;
use energy_bfs::hardness::{
    disjointness_communication_bits, disjointness_energy_threshold, distinguishing_success_rate,
    edge_probing_protocol, round_robin_protocol, GoodSlotAccounting,
};
use energy_bfs::metrics::format_table;
use energy_bfs::zseq::{ruler, ZSequence};
use energy_bfs::{build_hierarchy, recursive_bfs_with_hierarchy, RecursiveBfsConfig};
use radio_bench::{rng, scaling_config, standard_families};
use radio_graph::cluster_graph::{distance_proxy_stats, lemma_2_1_bound, ClusterGraph};
use radio_graph::diameter::{exact_diameter, satisfies_theorem_5_4_bound};
use radio_graph::lower_bound::build_disjointness_graph;
use radio_graph::mpx::{cluster_centralized, MpxParams};
use radio_graph::{bfs::bfs_distances, generators};
use radio_protocols::cast::down_cast;
use radio_protocols::{
    cluster_distributed, ClusteringConfig, Msg, RadioStack, StackBuilder, VirtualClusterNet,
};
use radio_sim::DecayParams;
use rand::Rng;

fn main() {
    // Split flags (`--threads N`, `--threads=N`, `--quiet`, …) from
    // experiment ids first, so that e.g. `-- scenarios --threads 4` does
    // not read the flag as an unknown id and fall back to running
    // everything. Flags and ids compare case-insensitively, but flag
    // *values* are taken verbatim — `--dataset-dir` is a filesystem path —
    // in both the `--flag value` and the `--flag=value` form (`flag_value`);
    // `--protocol` lowercases its spec itself.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut runner = radio_bench::scenarios::RunnerConfig::default();
    let mut protocol_filter: Option<String> = None;
    let mut dataset_dir = String::from("target/datasets");
    let mut use_dataset_cache = true;
    let mut result_dir = String::from("target/results");
    let mut use_result_cache = true;
    let mut listen: Option<String> = None;
    let mut accept_threads: Option<usize> = None;
    let mut hot_set_cap: Option<usize> = None;
    let mut xl = false;
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        let lower = arg.to_lowercase();
        if lower == "--quiet" {
            runner.quiet = true;
        } else if let Some(v) = flag_value(&arg, "--threads", "a value", &mut it) {
            runner.threads = parse_threads(&v);
        } else if let Some(v) = flag_value(&arg, "--protocol", "a spec", &mut it) {
            protocol_filter = Some(v.to_lowercase());
        } else if let Some(v) = flag_value(&arg, "--dataset-dir", "a path", &mut it) {
            dataset_dir = v;
        } else if lower == "--no-dataset-cache" {
            use_dataset_cache = false;
        } else if let Some(v) = flag_value(&arg, "--result-dir", "a path", &mut it) {
            result_dir = v;
        } else if lower == "--no-result-cache" {
            use_result_cache = false;
        } else if let Some(v) = flag_value(&arg, "--listen", "an address", &mut it) {
            listen = Some(v);
        } else if let Some(v) = flag_value(&arg, "--accept-threads", "a value", &mut it) {
            accept_threads = Some(parse_count(&v, "--accept-threads").max(1));
        } else if let Some(v) = flag_value(&arg, "--hot-set-cap", "a value", &mut it) {
            hot_set_cap = Some(parse_count(&v, "--hot-set-cap"));
        } else if lower == "--xl" {
            xl = true;
        } else if lower.starts_with("--") {
            die(&format!("unknown flag {arg}\n{USAGE}"));
        } else {
            ids.push(lower);
        }
    }
    let known = |id: &str| {
        matches!(id, "all" | "scenarios" | "serve") || EXPERIMENTS.iter().any(|&(e, _)| e == id)
    };
    if let Some(id) = ids.iter().find(|id| !known(id)) {
        die(&format!("unknown experiment {id}\n{USAGE}"));
    }
    // `serve` is exclusive: a long-running server has no business being
    // interleaved with batch experiments, and `--listen` means nothing
    // outside it.
    if ids.iter().any(|a| a == "serve") {
        if ids.len() > 1 {
            die("serve cannot be combined with other experiment ids");
        }
        if protocol_filter.is_some() || xl {
            die("--protocol/--xl do not apply to serve");
        }
        if !use_result_cache {
            die("serve needs the result store; drop --no-result-cache");
        }
        let cache = use_dataset_cache.then(|| radio_graph::dataset::DatasetCache::new(dataset_dir));
        let results = radio_bench::results::ResultStore::new(&result_dir)
            .with_hot_set(hot_set_cap.unwrap_or(256));
        let options = radio_bench::server::ServeOptions {
            accept_threads: accept_threads.unwrap_or(4),
        };
        let addr = listen.as_deref().unwrap_or("127.0.0.1:0");
        let listener = std::net::TcpListener::bind(addr)
            .unwrap_or_else(|e| die(&format!("--listen {addr}: {e}")));
        let local = listener.local_addr().expect("bound socket has an address");
        eprintln!(
            "[serve] listening on {local} (result store {result_dir}, accept-threads {}, hot-set cap {})",
            options.accept_threads,
            results.hot_capacity()
        );
        let summary =
            radio_bench::server::serve(listener, &runner, cache.as_ref(), &results, &options)
                .unwrap_or_else(|e| die(&format!("serve: {e}")));
        eprintln!(
            "[serve] done: requests={} served={} computed={} connections={}",
            summary.requests, summary.served, summary.computed, summary.connections
        );
        eprintln!(
            "[results] dir={} hits={} misses={} hot_hits={}",
            results.dir().display(),
            results.hits(),
            results.misses(),
            results.hot_hits()
        );
        return;
    }
    if listen.is_some() {
        die("--listen only applies to serve");
    }
    if accept_threads.is_some() || hot_set_cap.is_some() {
        die("--accept-threads/--hot-set-cap only apply to serve");
    }
    let run_all = ids.is_empty() || ids.iter().any(|a| a == "all");
    let wants = |id: &str| run_all || ids.iter().any(|a| a == id);

    // Fail fast on --protocol problems: the filter only makes sense for an
    // explicitly requested scenarios run (run_all would otherwise grind
    // through E1–E14 first), and an unresolvable spec must exit before any
    // experiment burns compute.
    if let Some(list) = &protocol_filter {
        if !ids.iter().any(|a| a == "scenarios") {
            die("--protocol requires the scenarios experiment (e.g. `-- scenarios --protocol trivial_bfs_cd`)");
        }
        let registry = energy_bfs::protocol::registry();
        for spec in split_protocol_specs(list, &registry) {
            if let Err(e) = registry.get(&spec) {
                die(&e.to_string());
            }
        }
    }
    if xl && !(run_all || ids.iter().any(|a| a == "scenarios")) {
        die("--xl only applies to the scenarios experiment");
    }

    for (id, experiment) in EXPERIMENTS {
        if wants(id) {
            experiment();
        }
    }
    if wants("scenarios") {
        let cache = use_dataset_cache.then(|| radio_graph::dataset::DatasetCache::new(dataset_dir));
        let results = use_result_cache.then(|| radio_bench::results::ResultStore::new(result_dir));
        scenario_sweeps(
            &runner,
            protocol_filter.as_deref(),
            cache.as_ref(),
            results.as_ref(),
            xl,
        );
    }
}

/// E1–E14 by id, in the order `all` runs them.
const EXPERIMENTS: [(&str, fn()); 14] = [
    ("e1", e1_ball_intersections),
    ("e2", e2_distance_proxy),
    ("e3", e3_local_broadcast),
    ("e4", e4_distributed_clustering),
    ("e5", e5_cluster_simulation_overhead),
    ("e6", e6_bfs_energy_scaling),
    ("e7", e7_claims_1_and_2),
    ("e8", e8_estimate_evolution),
    ("e9", e9_z_sequence),
    ("e10", e10_kn_vs_kn_minus_e),
    ("e11", e11_disjointness_reduction),
    ("e12", e12_two_approx_diameter),
    ("e13", e13_three_halves_diameter),
    ("e14", e14_polling_tradeoff),
];

const USAGE: &str = "usage: experiments [all | e1..e14 | scenarios | serve] \
[--threads N] [--quiet] [--protocol <spec[,spec...]>] [--xl] \
[--dataset-dir <path>] [--no-dataset-cache] \
[--result-dir <path>] [--no-result-cache] \
[--listen <addr>] [--accept-threads N] [--hot-set-cap N]";

fn die(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
    std::process::exit(2)
}

/// The value `arg` gives the value flag `name` (lowercase, e.g.
/// `--dataset-dir`), or `None` if `arg` is another argument. `--name=value`
/// splits at the first `=`; a bare `--name` takes the next argument and
/// exits with "`name` needs `what`" if there is none. Only the name is
/// lowercased before it is compared; the value comes back verbatim.
fn flag_value(
    arg: &str,
    name: &str,
    what: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Option<String> {
    let (flag, value) = match arg.split_once('=') {
        Some((flag, value)) => (flag, Some(value)),
        None => (arg, None),
    };
    if flag.to_lowercase() != name {
        return None;
    }
    Some(match value {
        Some(v) => v.to_string(),
        None => rest
            .next()
            .unwrap_or_else(|| die(&format!("{name} needs {what}"))),
    })
}

fn parse_threads(v: &str) -> usize {
    parse_count(v, "--threads").max(1)
}

fn parse_count(v: &str, flag: &str) -> usize {
    match v.parse::<usize>() {
        Ok(n) => n,
        Err(_) => die(&format!("{flag} needs an integer, got {v:?}")),
    }
}

/// Splits a comma-separated `--protocol` value into individual registry
/// specs. Specs themselves may use commas between *parameters*
/// (`diameter:hyperball:p=6,rounds=12`), so a comma starts a new spec only
/// when the segment's head — the text before its first `:` or `=` — is a
/// registered protocol name; any other segment is a parameter continuation
/// of the spec before it. A head that is neither ends up in front of the
/// registry anyway, which rejects it with the known-protocol list.
fn split_protocol_specs(
    list: &str,
    registry: &radio_protocols::protocol::ProtocolRegistry,
) -> Vec<String> {
    let mut specs: Vec<String> = Vec::new();
    for segment in list.split(',') {
        let head = segment.split([':', '=']).next().unwrap_or("").trim();
        let starts_new = registry.known().contains(&head);
        match specs.last_mut() {
            Some(last) if !starts_new => {
                last.push(',');
                last.push_str(segment);
            }
            _ => specs.push(segment.trim().to_string()),
        }
    }
    specs
}

/// The distinct protocol *specs* of a sweep, for `--protocol` diagnostics
/// — specs, not labels, so the suggestions can be fed straight back to
/// `--protocol`.
fn sweep_protocol_specs(scenarios: &[radio_bench::scenarios::Scenario]) -> Vec<String> {
    let mut specs: Vec<String> = scenarios.iter().map(|s| s.protocol.spec()).collect();
    specs.sort();
    specs.dedup();
    specs
}

/// Batched multi-seed scenario sweeps over the frame engine (grid/tree/
/// cluster/contention workloads at sizes E1–E14 do not cover), executed on
/// the worker pool. Set `SCENARIO_JSON=<path>` to also write the per-seed
/// records as JSON — byte-identical for every `--threads` value.
///
/// With a `--protocol` filter, only the sweep scenarios whose protocol
/// resolves to one of the given (comma-separated) registry specs run; each
/// spec is validated through `energy_bfs::protocol::registry()` first, so
/// a typo exits non-zero with the known-protocol list instead of silently
/// matching nothing.
///
/// With a dataset `cache`, graphs come from compiled CSR artifacts under
/// the cache directory (generator output on first use, bulk read after);
/// the hit/miss tally goes to stderr so CI can assert cache behaviour.
/// With a `results` store, the sweep is *incremental*: cells whose result
/// artifact is already present are answered from disk, only absent cells
/// go to the worker pool, and fresh records are written back — the
/// `[results]` tally on stderr is what the CI smoke asserts. `xl` appends
/// the large-graph scenarios after the default sweep.
fn scenario_sweeps(
    runner: &radio_bench::scenarios::RunnerConfig,
    protocol_filter: Option<&str>,
    cache: Option<&radio_graph::dataset::DatasetCache>,
    results: Option<&radio_bench::results::ResultStore>,
    xl: bool,
) {
    use radio_bench::scenarios::{
        default_scenarios, records_to_json, run_scenarios_with_stores, xl_scenarios,
    };
    let mut scenarios = default_scenarios();
    if xl {
        scenarios.extend(xl_scenarios());
    }
    if let Some(list) = protocol_filter {
        let registry = energy_bfs::protocol::registry();
        let mut labels: Vec<String> = Vec::new();
        for spec in split_protocol_specs(list, &registry) {
            match registry.get(&spec) {
                Ok(p) => labels.push(p.name().as_str().to_string()),
                Err(e) => die(&e.to_string()),
            }
        }
        let all_specs = sweep_protocol_specs(&scenarios);
        scenarios.retain(|s| labels.contains(&s.protocol.label()));
        if scenarios.is_empty() {
            die(&format!(
                "--protocol {list}: no sweep scenario runs {}; sweep specs: {}",
                labels.join(", "),
                all_specs.join(", ")
            ));
        }
    }
    header(
        "SCENARIOS",
        "batched multi-seed sweeps (6-32 seeds per family/size)",
    );
    let started = std::time::Instant::now();
    let records = run_scenarios_with_stores(&scenarios, runner, cache, results);
    // Wall-clock and cache tallies go to stderr only: the table and the
    // JSON must stay byte-identical across runs and thread counts.
    if !runner.quiet {
        eprintln!(
            "[scenarios] {} records in {:.0?} (threads={})",
            records.len(),
            started.elapsed(),
            runner.threads
        );
    }
    if let Some(c) = cache {
        eprintln!(
            "[datasets] dir={} hits={} misses={}",
            c.dir().display(),
            c.hits(),
            c.misses()
        );
    }
    if let Some(store) = results {
        eprintln!(
            "[results] dir={} hits={} misses={}",
            store.dir().display(),
            store.hits(),
            store.misses()
        );
    }
    let mut rows = Vec::new();
    for r in &records {
        rows.push(vec![
            r.scenario.clone(),
            r.family.clone(),
            r.n.to_string(),
            r.seed.to_string(),
            r.protocol.clone(),
            r.backend.clone(),
            r.energy_model.clone(),
            r.lb_calls.to_string(),
            r.max_lb_energy.to_string(),
            format!("{:.1}", r.mean_lb_energy),
            r.max_physical_energy
                .map_or_else(|| "-".into(), |x| x.to_string()),
            r.physical_slots
                .map_or_else(|| "-".into(), |x| x.to_string()),
            r.outcome.to_string(),
            r.target_n.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "scenario",
                "family",
                "n",
                "seed",
                "protocol",
                "backend",
                "model",
                "LB calls",
                "max energy",
                "mean energy",
                "max phys energy",
                "phys slots",
                "outcome",
                "target n",
            ],
            &rows
        )
    );
    if let Ok(path) = std::env::var("SCENARIO_JSON") {
        let json = records_to_json(&records);
        std::fs::write(&path, json).expect("write scenario JSON");
        println!("wrote {} records to {path}", records.len());
    }
}

fn header(id: &str, claim: &str) {
    println!();
    println!("==== {id}: {claim} ====");
}

/// E1 — Lemma 2.1: P(Ball(v, ℓ) meets > j clusters) ≤ (1 − e^{−2ℓβ})^j.
fn e1_ball_intersections() {
    header("E1", "Lemma 2.1 — ball/cluster intersection tail");
    let g = generators::grid(24, 24);
    let params = MpxParams::from_inverse_beta(4);
    let ell = params.inverse_beta();
    let trials = 300;
    let mut r = rng(1);
    let mut rows = Vec::new();
    for j in [2u32, 4, 8, 16, 24] {
        let mut exceed = 0usize;
        for _ in 0..trials {
            let c = cluster_centralized(&g, params, &mut r);
            let v = r.gen_range(0..g.num_nodes());
            if c.ball_cluster_intersections(&g, v, ell as u32) > j as usize {
                exceed += 1;
            }
        }
        rows.push(vec![
            j.to_string(),
            format!("{:.4}", exceed as f64 / trials as f64),
            format!("{:.4}", lemma_2_1_bound(params.beta, ell as f64, j)),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["j", "empirical P(> j clusters)", "Lemma 2.1 bound"],
            &rows
        )
    );
}

/// E2 — Lemma 2.2/2.3 + Figure 1: the cluster graph as a distance proxy.
fn e2_distance_proxy() {
    header(
        "E2",
        "Lemmas 2.2/2.3 — cluster-graph distances track original distances",
    );
    let g = generators::grid(40, 40);
    let n = g.num_nodes();
    let mut r = rng(2);
    let mut rows = Vec::new();
    for inv_beta in [2u64, 4, 8] {
        let params = MpxParams::from_inverse_beta(inv_beta);
        let clustering = cluster_centralized(&g, params, &mut r);
        let radius_bound = (4.0 * (n as f64).ln() * inv_beta as f64).ceil();
        let cut = clustering.cut_fraction(&g);
        let max_radius = clustering.max_radius();
        let clusters = clustering.num_clusters();
        let cg = ClusterGraph::build(&g, clustering);
        let pairs: Vec<(usize, usize)> = (0..n)
            .step_by(13)
            .flat_map(|u| (0..n).step_by(19).map(move |v| (u, v)))
            .collect();
        let stats = distance_proxy_stats(&g, &cg, &pairs, 4.0);
        rows.push(vec![
            format!("1/{inv_beta}"),
            clusters.to_string(),
            format!("{max_radius} (≤ {radius_bound:.0})"),
            format!("{cut:.3}"),
            format!("{}/{}", stats.pairs - stats.violations, stats.pairs),
            format!("{:.2}", stats.mean_ratio),
            format!("{:.2}", stats.max_ratio),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "β",
                "#clusters",
                "max radius (bound)",
                "cut fraction",
                "Lemma 2.2 pairs ok",
                "mean dist*/(β·dist)",
                "max ratio",
            ],
            &rows
        )
    );
}

/// E3 — Lemma 2.4: the Decay Local-Broadcast on the physical simulator.
fn e3_local_broadcast() {
    header("E3", "Lemma 2.4 — Decay Local-Broadcast time and energy");
    let mut rows = Vec::new();
    let mut r = rng(3);
    for (n, f) in [(64usize, 1e-3f64), (64, 1e-6), (256, 1e-3), (256, 1e-6)] {
        let g = generators::star(n);
        let params = DecayParams {
            max_degree: n - 1,
            failure_prob: f,
        };
        let trials = 40;
        let mut delivered = 0usize;
        let mut sender_energy = 0u64;
        let mut receiver_energy = 0u64;
        let mut slots = 0u64;
        // One frame + scratch reused across all trials.
        let mut frame: radio_sim::RoundFrame<u64> = radio_sim::RoundFrame::new(n);
        let mut scratch: radio_sim::DecayScratch = radio_sim::DecayScratch::new(n);
        for _ in 0..trials {
            let mut net: radio_sim::RadioNetwork<u64> = radio_sim::RadioNetwork::new(g.clone());
            frame.clear();
            for v in 1..n {
                frame.add_sender(v, v as u64);
            }
            frame.add_receiver(0);
            let used = radio_sim::decay_local_broadcast(
                &mut net,
                &mut frame,
                &mut scratch,
                params,
                &mut r,
            );
            if frame.delivered().contains(0) {
                delivered += 1;
            }
            sender_energy += net.energy(1);
            receiver_energy += net.energy(0);
            slots += used;
        }
        rows.push(vec![
            format!("{n}"),
            format!("{f:.0e}"),
            format!("{}/{trials}", delivered),
            format!("{:.1}", sender_energy as f64 / trials as f64),
            format!("{:.1}", receiver_energy as f64 / trials as f64),
            format!("{:.0}", slots as f64 / trials as f64),
            params.total_slots().to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Δ+1",
                "f",
                "hub heard",
                "mean sender energy",
                "mean receiver energy",
                "slots used",
                "O(logΔ·log 1/f) budget",
            ],
            &rows
        )
    );
    println!("Sender energy tracks log(1/f); a receiver that hears something stops early.");
}

/// E4 — Lemma 2.5: distributed clustering cost and agreement with the
/// centralized growth law.
fn e4_distributed_clustering() {
    header(
        "E4",
        "Lemma 2.5 — distributed MPX clustering over Local-Broadcast",
    );
    let mut rows = Vec::new();
    for (name, g) in standard_families(4) {
        let cfg = ClusteringConfig::new(4);
        let mut net = StackBuilder::new(g.clone()).build();
        let mut r = rng(40);
        let state = cluster_distributed(&mut net, &cfg, &mut r);
        state.validate().expect("valid clustering");
        let budget = cfg.rounds(net.global_n());
        rows.push(vec![
            name,
            g.num_nodes().to_string(),
            state.num_clusters().to_string(),
            state.max_layer.to_string(),
            net.lb_time().to_string(),
            net.max_lb_energy().to_string(),
            budget.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "graph",
                "n",
                "#clusters",
                "max layer",
                "LB calls",
                "max energy (LB)",
                "4·ln(n)/β budget",
            ],
            &rows
        )
    );
}

/// E5 — Lemmas 3.1/3.2: per-vertex overhead of casts and of simulating one
/// Local-Broadcast on the cluster graph.
fn e5_cluster_simulation_overhead() {
    header(
        "E5",
        "Lemmas 3.1/3.2 — cast and cluster-graph simulation overhead",
    );
    let mut rows = Vec::new();
    for (name, g) in standard_families(5) {
        let cfg = ClusteringConfig::new(4);
        let mut net = StackBuilder::new(g.clone()).build();
        let mut r = rng(50);
        let state = cluster_distributed(&mut net, &cfg, &mut r);
        let n = g.num_nodes();
        let before: Vec<u64> = (0..n).map(|v| net.lb_energy(v)).collect();

        // One down-cast to every cluster.
        let mut messages: radio_protocols::NodeSlots<Msg> =
            radio_protocols::NodeSlots::new(state.num_clusters());
        for c in 0..state.num_clusters() {
            messages.insert(c, Msg::words(&[c as u64]));
        }
        let mut cast_frame = net.new_frame();
        let _ = down_cast(&mut net, &state, &messages, &mut cast_frame);
        let after_cast: Vec<u64> = (0..n).map(|v| net.lb_energy(v)).collect();
        let cast_max = (0..n).map(|v| after_cast[v] - before[v]).max().unwrap_or(0);

        // One simulated Local-Broadcast on G* between all clusters.
        let quotient = state.quotient_graph(&g);
        let virt_max = if quotient.num_edges() > 0 {
            let mut virt = VirtualClusterNet::new(&mut net, &state);
            let senders: Vec<(usize, Msg)> = (0..quotient.num_nodes() / 2)
                .map(|c| (c, Msg::words(&[c as u64])))
                .collect();
            let receivers: Vec<usize> = (quotient.num_nodes() / 2..quotient.num_nodes()).collect();
            let _ = radio_protocols::local_broadcast_once(&mut virt, &senders, &receivers);
            let after_virt: Vec<u64> = (0..n).map(|v| net.lb_energy(v)).collect();
            (0..n)
                .map(|v| after_virt[v] - after_cast[v])
                .max()
                .unwrap_or(0)
        } else {
            0
        };
        let log_n = (n as f64).ln();
        rows.push(vec![
            name,
            state.num_clusters().to_string(),
            cast_max.to_string(),
            virt_max.to_string(),
            format!("{:.0}", 6.0 * log_n),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "graph",
                "#clusters",
                "down-cast max energy",
                "virtual-LB max energy",
                "O(log n) reference",
            ],
            &rows
        )
    );
}

/// E6 — Theorem 4.1: energy of the recursive BFS versus the baselines as the
/// distance threshold grows.
fn e6_bfs_energy_scaling() {
    header(
        "E6",
        "Theorem 4.1 — recursive BFS energy grows sub-linearly in D (baseline is linear)",
    );
    let mut rows = Vec::new();
    let mut ratios: Vec<(u64, f64)> = Vec::new();
    for exp in [7u32, 8, 9, 10, 11] {
        let n = 1usize << exp;
        let depth = (n - 1) as u64;
        let g = generators::path(n);

        // Baseline: everyone listens every round.
        let mut base_net = StackBuilder::new(g.clone()).build();
        let active = vec![true; n];
        let _ = trivial_bfs(&mut base_net, &[0], &active, depth);
        let base_energy = base_net.max_lb_energy();

        // Recursive BFS with β tuned to D (the paper's prescription).
        let config = scaling_config(depth, 6);
        let mut rec_net = StackBuilder::new(g.clone()).build();
        let hierarchy = build_hierarchy(&mut rec_net, &config);
        let setup = rec_net.energy_view();
        let outcome =
            recursive_bfs_with_hierarchy(&mut rec_net, &hierarchy, &[0], depth, &config, &[]);
        let query = rec_net.energy_view().diff(&setup);
        let truth = bfs_distances(&g, 0);
        let correct = g
            .nodes()
            .filter(|&v| outcome.dist[v] == Some(truth[v] as u64))
            .count();
        let ratio = query.max_lb_energy() as f64 / base_energy as f64;
        ratios.push((depth, ratio));

        rows.push(vec![
            depth.to_string(),
            config.inv_beta.to_string(),
            base_energy.to_string(),
            setup.max_lb_energy().to_string(),
            query.max_lb_energy().to_string(),
            format!("{ratio:.2}"),
            format!("{correct}/{n}"),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "D",
                "1/β",
                "baseline max energy",
                "recursive setup energy",
                "recursive query energy",
                "query/baseline",
                "labels correct",
            ],
            &rows
        )
    );
    println!("{}", e6_reading(&ratios));
}

/// E6's "Reading:" line, computed from its `(D, query/baseline)` rows and
/// never asserted: the ratio range, whether the ratio fell at every doubling
/// of D, and the smallest D with a ratio below 1.
fn e6_reading(ratios: &[(u64, f64)]) -> String {
    let lo = ratios.iter().map(|&(_, r)| r).fold(f64::MAX, f64::min);
    let hi = ratios.iter().map(|&(_, r)| r).fold(f64::MIN, f64::max);
    let fell = ratios.windows(2).all(|w| w[1].1 < w[0].1);
    let max_d = ratios.last().map_or(0, |&(d, _)| d);
    let crossover = match ratios.iter().find(|&&(_, r)| r < 1.0) {
        Some((d, _)) => format!("D = {d}"),
        None => format!("none up to D = {max_d}"),
    };
    format!(
        "Reading: the query/baseline ratio ranges {lo:.2}–{hi:.2}; it {} at every doubling of D; \
         smallest D with a ratio below 1 (Theorem 4.1's crossover): {crossover}.",
        if fell { "fell" } else { "did not fall" }
    )
}

/// E7 — Claims 1 and 2: per-vertex X_i memberships and per-cluster Special
/// Updates stay Õ(1) as D grows.
fn e7_claims_1_and_2() {
    header(
        "E7",
        "Claims 1 & 2 — wavefront and Special-Update participation stay Õ(1)",
    );
    let mut rows = Vec::new();
    for n in [256usize, 512, 1024, 2048] {
        let g = generators::path(n);
        let depth = (n - 1) as u64;
        let config = RecursiveBfsConfig {
            inv_beta: 16,
            max_depth: 1,
            seed: 7,
        };
        let mut net = StackBuilder::new(g.clone()).build();
        let hierarchy = build_hierarchy(&mut net, &config);
        let outcome = recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[0], depth, &config, &[]);
        rows.push(vec![
            depth.to_string(),
            outcome.stats.stages.to_string(),
            outcome.stats.max_wavefront_memberships().to_string(),
            outcome.stats.max_special_memberships().to_string(),
            outcome.stats.total_recursive_calls().to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "D",
                "stages ⌈βD⌉",
                "max X_i memberships (Claim 1)",
                "max Special Updates (Claim 2)",
                "recursive calls",
            ],
            &rows
        )
    );
    println!(
        "Claim 1 column stays essentially flat while D grows 8-fold; Claim 2 grows only \
         polylogarithmically (the paper bounds it by O(w\u{b2}\u{b7}log D)), far below the stage count."
    );
}

/// E8 — Figure 3: evolution of [L_i(C), U_i(C)] for a traced cluster.
fn e8_estimate_evolution() {
    header(
        "E8",
        "Figure 3 — time evolution of a cluster's distance estimates",
    );
    let n = 1024usize;
    let g = generators::path(n);
    let config = RecursiveBfsConfig {
        inv_beta: 16,
        max_depth: 1,
        seed: 8,
    };
    let mut net = StackBuilder::new(g.clone()).build();
    let hierarchy = build_hierarchy(&mut net, &config);
    let traced = hierarchy[0].cluster_of[3 * n / 4];
    let outcome = recursive_bfs_with_hierarchy(
        &mut net,
        &hierarchy,
        &[0],
        (n - 1) as u64,
        &config,
        &[traced],
    );
    let (_, points) = &outcome.stats.estimate_traces[0];
    let mut rows = Vec::new();
    for p in points.iter().take(40) {
        rows.push(vec![
            p.stage.to_string(),
            match p.kind {
                UpdateKind::Initialize => "initialize".to_string(),
                UpdateKind::Special => "special".to_string(),
                UpdateKind::Automatic => "automatic".to_string(),
            },
            format!("{:.1}", p.lower),
            if p.upper.is_finite() {
                format!("{:.1}", p.upper)
            } else {
                "∞".to_string()
            },
        ]);
    }
    println!(
        "{}",
        format_table(&["stage i", "update", "L_i(C)", "U_i(C)"], &rows)
    );
    println!(
        "The lower bound falls by β⁻¹ per automatic update and is refreshed upward by special \
         updates as the wavefront approaches — the sawtooth of Figure 3."
    );
}

/// E9 — Lemma 4.2: structure of the Z-sequence, checked over a long prefix.
fn e9_z_sequence() {
    header("E9", "Lemma 4.2 — Z-sequence periodicity");
    let z = ZSequence::from_d_star(256);
    let prefix: Vec<String> = (1..=24).map(|i| z.z(i).to_string()).collect();
    println!("Y[1..16]  = {:?}", (1..=16).map(ruler).collect::<Vec<_>>());
    println!("Z[1..24]  = [{}]  (D* = 256)", prefix.join(", "));
    let mut rows = Vec::new();
    let horizon = 4096;
    for &b in &z.value_set() {
        let count = z.count_at_least(horizon, b);
        rows.push(vec![
            b.to_string(),
            count.to_string(),
            (horizon / (b / 4)).to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "value b",
                format!("# of i ≤ {horizon} with Z[i] ≥ b").as_str(),
                "period prediction"
            ],
            &rows
        )
    );
}

/// E10 — Theorem 5.1: distinguishing K_n from K_n − e needs Ω(n) energy.
fn e10_kn_vs_kn_minus_e() {
    header(
        "E10",
        "Theorem 5.1 — (2−ε)-approximating the diameter needs Ω(n) energy",
    );
    let n = 96;
    let mut r = rng(10);
    let mut rows = Vec::new();
    for budget in [1u64, 8, 32, 128, 512, 2048, 8192] {
        let success = distinguishing_success_rate(n, budget, 150, &mut r);
        let g = generators::complete(n);
        let (trace, _) = edge_probing_protocol(&g, budget, &mut r);
        let acc = GoodSlotAccounting::evaluate(n, &trace);
        rows.push(vec![
            budget.to_string(),
            format!("{:.2}", success),
            format!("{:.2}", acc.success_upper_bound),
            acc.good_pairs.to_string(),
            acc.total_pairs.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "per-device energy E",
                "empirical success",
                "counting-argument bound",
                "|X_good|",
                "all pairs",
            ],
            &rows
        )
    );
    let g = generators::complete_minus_edge(n, 1, 2);
    let (trace, witnessed) = round_robin_protocol(&g);
    let acc = GoodSlotAccounting::evaluate(n, &trace);
    println!(
        "Round-robin (E = {} = Θ(n)): witnesses all {} present edges, identifies the missing one \
         with certainty.",
        acc.max_energy,
        witnessed.len()
    );
}

/// E11 — Theorem 5.2: the sparse construction and the communication ledger.
fn e11_disjointness_reduction() {
    header(
        "E11",
        "Theorem 5.2 — (3/2−ε)-approx diameter needs Ω̃(n) energy on sparse graphs",
    );
    let mut r = rng(11);
    let mut rows = Vec::new();
    for ell in [5u32, 6, 7, 8] {
        let k = 1u64 << ell;
        let size = (k / 2) as usize;
        let set_a: Vec<u64> = (0..size).map(|_| r.gen_range(0..k)).collect();
        let set_b: Vec<u64> = (0..size).map(|_| r.gen_range(0..k)).collect();
        let inst = build_disjointness_graph(&set_a, &set_b, ell);
        let diam = exact_diameter(&inst.graph).unwrap();
        let degen = radio_graph::arboricity::degeneracy(&inst.graph);
        let per_unit = disjointness_communication_bits(&inst, 1);
        let threshold = inst.k as f64 / per_unit as f64;
        let asymptotic = inst.k as f64 / (inst.k as f64).log2().powi(2);
        let _ = disjointness_energy_threshold(&inst);
        rows.push(vec![
            k.to_string(),
            inst.graph.num_nodes().to_string(),
            format!("{} (predicted {})", diam, inst.predicted_diameter()),
            degen.to_string(),
            format!("{:.1}", (inst.graph.num_nodes() as f64).log2()),
            per_unit.to_string(),
            format!("{threshold:.2}"),
            format!("{asymptotic:.2}"),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "k",
                "n",
                "diameter (2⇔disjoint, 3⇔not)",
                "degeneracy",
                "log2 n",
                "bits per unit energy",
                "energy threshold k/bits",
                "k/log²k (theory scale)",
            ],
            &rows
        )
    );
    println!(
        "Below the threshold the two-player simulation exchanges fewer than k bits, which would \
         contradict the Ω(k) set-disjointness bound — so deciding diameter 2 vs 3 (and hence any \
         (3/2−ε)-approximation) needs Ω(k/polylog) = Ω̃(n) energy."
    );
}

/// E12 — Theorem 5.3: 2-approximation of the diameter.
fn e12_two_approx_diameter() {
    header("E12", "Theorem 5.3 — 2-approximation of the diameter");
    let config = RecursiveBfsConfig {
        inv_beta: 8,
        max_depth: 1,
        seed: 12,
    };
    let mut rows = Vec::new();
    for (name, g) in standard_families(12) {
        let diam = exact_diameter(&g).unwrap() as u64;
        let mut net = StackBuilder::new(g.clone()).build();
        let est = two_approx_diameter(&mut net, &config);
        let ok = est.estimate <= diam && 2 * est.estimate >= diam;
        rows.push(vec![
            name,
            g.num_nodes().to_string(),
            diam.to_string(),
            format!("{} ({})", est.estimate, if ok { "ok" } else { "VIOLATED" }),
            est.energy.max_lb_energy().to_string(),
            est.energy
                .diff(&est.setup_energy)
                .max_lb_energy()
                .to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "graph",
                "n",
                "diam",
                "estimate",
                "total energy",
                "query energy"
            ],
            &rows
        )
    );
}

/// E13 — Theorem 5.4: nearly-3/2 approximation of the diameter.
fn e13_three_halves_diameter() {
    header(
        "E13",
        "Theorem 5.4 — nearly-3/2 approximation of the diameter",
    );
    let config = RecursiveBfsConfig {
        inv_beta: 8,
        max_depth: 1,
        seed: 13,
    };
    let mut rows = Vec::new();
    for (name, g) in standard_families(13) {
        let diam = exact_diameter(&g).unwrap();
        let n = g.num_nodes();
        let mut net = StackBuilder::new(g.clone()).build();
        let est = three_halves_approx_diameter(&mut net, &config, 13);
        let ok = satisfies_theorem_5_4_bound(diam, est.estimate as u32);
        rows.push(vec![
            name,
            n.to_string(),
            diam.to_string(),
            format!("{} ({})", est.estimate, if ok { "ok" } else { "VIOLATED" }),
            est.bfs_count.to_string(),
            format!("{:.0}", (n as f64).sqrt()),
            est.energy.max_lb_energy().to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "graph",
                "n",
                "diam",
                "estimate (⌊2·diam/3⌋ ≤ D' ≤ diam)",
                "#BFS",
                "√n",
                "max energy",
            ],
            &rows
        )
    );
    println!(
        "The estimate is never below ⌊2·diam/3⌋ and the number of BFS computations tracks √n·log n \
         — the n^{{1/2+o(1)}} energy regime of Theorem 5.4, versus n^{{o(1)}} for the 2-approximation."
    );
}

/// E14 — the introduction's polling-period latency/energy trade-off.
fn e14_polling_tradeoff() {
    header(
        "E14",
        "Section 1 — polling period trades latency for energy",
    );
    use radio_sim::device::{run_devices, PollingDevice};
    let mut r = rng(14);
    let (g, _) = generators::connected_unit_disc(400, 25.0, 2.4, 300, &mut r)
        .expect("connected sensor field");
    let labels = bfs_distances(&g, 0);
    let depth = *labels.iter().max().unwrap() as u64;
    let mut rows = Vec::new();
    for period in [2u64, 4, 8, 16, 32] {
        // Each hop needs a handful of polling cycles for the decay-style
        // forwarding to get through contention.
        let deadline = (16 * depth + 100) * period;
        let mut devices: std::collections::BTreeMap<usize, PollingDevice> = g
            .nodes()
            .map(|v| {
                let init = if v == 0 { Some(1) } else { None };
                (
                    v,
                    PollingDevice::new(labels[v] as u64, period, deadline, init)
                        .with_seed(7000 + v as u64),
                )
            })
            .collect();
        let mut net: radio_sim::RadioNetwork<u64> = radio_sim::RadioNetwork::new(g.clone());
        run_devices(&mut net, &mut devices, deadline);
        let informed = g.nodes().filter(|&v| devices[&v].message.is_some()).count();
        let latency = g
            .nodes()
            .filter_map(|v| devices[&v].received_at)
            .max()
            .unwrap_or(0);
        rows.push(vec![
            period.to_string(),
            format!("{informed}/{}", g.num_nodes()),
            latency.to_string(),
            net.max_energy().to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "period P",
                "informed",
                "latency (slots)",
                "max energy (awake slots)"
            ],
            &rows
        )
    );
    println!(
        "Latency grows ∝ P while per-sensor energy (awake slots) stays essentially constant; an \
         always-on schedule would pay energy equal to the latency column — the ÷P power saving."
    );
}

#[cfg(test)]
mod tests {
    use super::{e6_reading, flag_value};

    #[test]
    fn flag_names_match_in_any_case_and_values_stay_verbatim() {
        let mut rest = std::iter::empty();
        assert_eq!(
            flag_value(
                "--Dataset-Dir=Data/Sets",
                "--dataset-dir",
                "a path",
                &mut rest
            ),
            Some("Data/Sets".to_string())
        );
        // A bare flag takes the next argument, verbatim too.
        let mut rest = ["Results/Run=1".to_string()].into_iter();
        assert_eq!(
            flag_value("--RESULT-DIR", "--result-dir", "a path", &mut rest),
            Some("Results/Run=1".to_string())
        );
        // Any other argument is left alone and consumes nothing.
        let mut rest = ["e1".to_string()].into_iter();
        for other in ["--result-dirs=x", "--quiet", "e6", "--dataset-dir=x"] {
            assert_eq!(flag_value(other, "--result-dir", "a path", &mut rest), None);
        }
        assert_eq!(rest.next().as_deref(), Some("e1"));
    }

    #[test]
    fn e6_reading_follows_the_table() {
        let mixed = [
            (127, 2.77),
            (255, 6.50),
            (511, 3.53),
            (1023, 4.18),
            (2047, 2.65),
        ];
        assert_eq!(
            e6_reading(&mixed),
            "Reading: the query/baseline ratio ranges 2.65–6.50; it did not fall at every \
             doubling of D; smallest D with a ratio below 1 (Theorem 4.1's crossover): none up \
             to D = 2047."
        );
        let falling = [(127, 2.0), (255, 1.5), (511, 0.8), (1023, 0.5)];
        assert_eq!(
            e6_reading(&falling),
            "Reading: the query/baseline ratio ranges 0.50–2.00; it fell at every doubling of \
             D; smallest D with a ratio below 1 (Theorem 4.1's crossover): D = 511."
        );
    }
}
