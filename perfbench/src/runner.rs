//! A traced replica of the scenario runner's scoped-worker path
//! (`run_batch_with_stores` with one item and no pool), built only from the
//! library's public calls so that each layer can be timed on its own:
//! store probe, dataset load, stack build, protocol run (with every stack
//! wrapped in a [`TracedStack`]), record, and write-back. Scenarios run one
//! at a time, each over `threads` workers, exactly as the runner does; the
//! records must come out byte-identical to the runner's.

use std::sync::Arc;
use std::time::Instant;

use radio_bench::results::ResultStore;
use radio_bench::scenarios::{diameter_agreement, Scenario, ScenarioRecord};
use radio_graph::dataset::DatasetCache;
use radio_graph::Graph;
use radio_protocols::protocol::Protocol;
use radio_protocols::{LbFrame, ProtocolInput, RadioStack};

use crate::trace::{CellTrace, Layers, TracedStack};

/// Largest `n` at which a diameter cell also records the exact diameter;
/// mirrors the runner's ceiling so replica records match.
const EXACT_DIAMETER_CEILING: usize = 16_384;

/// Runs `scenarios` through the replica, adding what each layer did to
/// `layers`, and returns the records in the runner's order.
pub fn run_traced(
    scenarios: &[Scenario],
    threads: usize,
    datasets: Option<&DatasetCache>,
    store: Option<&ResultStore>,
    layers: &mut Layers,
) -> Vec<ScenarioRecord> {
    layers.runner_threads = threads;
    let mut out = Vec::new();
    for scenario in scenarios {
        let start = Instant::now();
        out.extend(run_one(scenario, threads, datasets, store, layers));
        layers.runner_wall += start.elapsed();
    }
    out
}

fn run_one(
    s: &Scenario,
    threads: usize,
    datasets: Option<&DatasetCache>,
    store: Option<&ResultStore>,
    layers: &mut Layers,
) -> Vec<ScenarioRecord> {
    let seeds = &s.seeds;
    let cells = s.sizes.len() * seeds.len();
    let coords = |i: usize| (s.sizes[i / seeds.len()], seeds[i % seeds.len()]);
    let mut slots: Vec<Option<ScenarioRecord>> = vec![None; cells];
    if let Some(store) = store {
        for (i, slot) in slots.iter_mut().enumerate() {
            let (size, seed) = coords(i);
            let key = s.result_key(size, seed, None);
            let t = Instant::now();
            *slot = store.get(&key);
            layers.store_get += t.elapsed();
            layers.store_gets += 1;
            layers.store_timed_gets += 1;
        }
    }
    let missing: Vec<usize> = (0..cells).filter(|&i| slots[i].is_none()).collect();
    if missing.is_empty() {
        return slots.into_iter().flatten().collect();
    }
    let protocol = energy_bfs::protocol::registry()
        .get(&s.protocol.spec())
        .unwrap_or_else(|e| panic!("scenario {:?}: {e}", s.name));
    let graphs: Vec<Option<Arc<Graph>>> = s
        .sizes
        .iter()
        .enumerate()
        .map(|(si, &size)| {
            missing
                .iter()
                .any(|&i| i / seeds.len() == si)
                .then(|| match datasets {
                    Some(cache) => {
                        layers.dataset_timed_loads += 1;
                        cache.load_or_build(&s.family.dataset_key(size), || s.family.build(size))
                    }
                    None => Arc::new(s.family.build(size)),
                })
        })
        .collect();
    let done = radio_bench::pool::run_indexed(
        missing.len(),
        threads,
        || None::<LbFrame>,
        |frame, j| {
            let i = missing[j];
            let (size, seed) = coords(i);
            let graph = graphs[i / seeds.len()]
                .as_ref()
                .expect("graph loaded for every size with a miss");
            run_cell(s, &*protocol, graph, size, seed, frame)
        },
    );
    for (j, (record, trace)) in done.into_iter().enumerate() {
        layers.add_cell(&trace);
        if let Some(store) = store {
            let (size, seed) = coords(missing[j]);
            let t = Instant::now();
            store
                .put(&s.result_key(size, seed, None), &record)
                .unwrap_or_else(|e| panic!("scenario {:?}: writing result artifact: {e}", s.name));
            layers.store_put += t.elapsed();
            layers.store_puts += 1;
        }
        slots[missing[j]] = Some(record);
    }
    slots.into_iter().flatten().collect()
}

/// One cell on a traced stack: the runner's `run_cell`, step for step.
fn run_cell(
    s: &Scenario,
    protocol: &dyn Protocol,
    graph: &Arc<Graph>,
    target_n: usize,
    seed: u64,
    frame: &mut Option<LbFrame>,
) -> (ScenarioRecord, CellTrace) {
    let start = Instant::now();
    let n = graph.num_nodes();
    if frame.as_ref().is_none_or(|f| f.num_nodes() != n) {
        *frame = Some(LbFrame::new(n));
    }
    let frame = frame.as_mut().expect("frame just ensured");
    let t = Instant::now();
    let mut stack = s.stack.build(Arc::clone(graph), seed);
    let stack_build = t.elapsed();
    let mut net = TracedStack::new(&mut stack);
    let t = Instant::now();
    let report = protocol
        .run_with_frame(&mut net, &ProtocolInput::from_seed(seed), frame)
        .unwrap_or_else(|e| {
            panic!(
                "scenario {:?} (protocol {}, seed {seed}): {e}",
                s.name,
                s.protocol.label()
            )
        });
    let protocol_run = t.elapsed();
    let lb = net.into_tally();
    let caps = stack.capabilities();
    let label = s.protocol.label();
    let estimate = report.output.diameter_estimate();
    let exact = match estimate {
        Some(_) if n <= EXACT_DIAMETER_CEILING => {
            radio_graph::diameter::exact_diameter(graph).map(u64::from)
        }
        _ => None,
    };
    let agrees = match (estimate, exact) {
        (Some(est), Some(d)) => Some(diameter_agreement(&label, est, d)),
        _ => None,
    };
    let record = ScenarioRecord {
        scenario: s.name.clone(),
        family: s.family.label(),
        n,
        seed,
        protocol: label,
        backend: caps.label(),
        energy_model: caps.energy_model.label(),
        lb_calls: report.energy.lb_time(),
        max_lb_energy: report.energy.max_lb_energy(),
        mean_lb_energy: report.energy.mean_lb_energy(),
        max_physical_energy: report.energy.max_physical_energy(),
        physical_slots: report.energy.physical_slots(),
        outcome: report.outcome(),
        target_n,
        estimate,
        exact,
        agrees,
    };
    let trace = CellTrace {
        stack_build,
        protocol_run,
        lb,
        total: start.elapsed(),
    };
    (record, trace)
}

/// `runner.idle_frac`: the share of the runner's worker time not spent in
/// cells, `1 − Σ cell / (threads × wall)`.
pub fn idle_frac(layers: &Layers) -> f64 {
    let capacity = layers.runner_wall.as_secs_f64() * layers.runner_threads.max(1) as f64;
    if capacity == 0.0 {
        return 0.0;
    }
    1.0 - layers.cells.as_secs_f64() / capacity
}
