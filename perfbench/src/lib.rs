//! Benchmark harness for the radio-energy workspace.
//!
//! Four workloads drive the library crates through their public entry
//! points, check every output, and report end-to-end metrics from an
//! untraced run (`--trace 0`) or per-layer metrics from a traced run
//! (`--trace 1`). See `perfbench/README.md` for the workloads, the layer
//! map, and which numbers are host time and which are simulated.

pub mod hyperball;
pub mod recursive;
pub mod report;
pub mod runner;
pub mod served;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use radio_bench::scenarios::ScenarioRecord;
use radio_graph::{bfs, Graph, INFINITY};
use radio_protocols::{RadioStack, StackBuilder};

use crate::report::Report;
use crate::trace::{Layers, LbTally};

/// Compute threads every workload runs with.
pub(crate) const THREADS: usize = 2;

/// How many times each workload repeats its set-up; `setup_s` is the median.
pub(crate) const SETUP_REPS: usize = 9;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The default catalog, cold, through the runner.
    SweepCold,
    /// Recursive BFS against the trivial wavefront on a 4096-node path.
    RecursivePath,
    /// HyperBall diameter cells on the 256×256 grid.
    HyperballGrid,
    /// Warm single-cell requests against the TCP server.
    ServedWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepCold,
        Workload::RecursivePath,
        Workload::HyperballGrid,
        Workload::ServedWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::RecursivePath => "recursive-path",
            Workload::HyperballGrid => "hyperball-grid",
            Workload::ServedWarm => "served-warm",
        }
    }

    /// The inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's parameters.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed every input is derived from.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Runs one workload with scratch files under `scratch` and returns its
/// report.
pub fn run(opts: &Options, scratch: &Path) -> std::io::Result<Report> {
    let mut report = Report::new();
    match opts.workload {
        Workload::SweepCold => sweep::run(opts, scratch, &mut report)?,
        Workload::RecursivePath => recursive::run(opts, &mut report),
        Workload::HyperballGrid => hyperball::run(opts, scratch, &mut report)?,
        Workload::ServedWarm => served::run(opts, scratch, &mut report)?,
    }
    Ok(report)
}

/// The timed phase's clock: keeps going until `seconds` have passed and at
/// least a minimum number of passes are done.
pub(crate) struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    /// Starts the clock.
    pub fn start(seconds: u64) -> Self {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs(seconds),
        }
    }

    /// Whether to run another pass after `done` passes.
    pub fn more(&self, done: usize, min: usize) -> bool {
        done < min || self.start.elapsed() < self.limit
    }
}

/// The end-to-end metrics of one untraced run.
///
/// Latency percentiles are taken within each pass and the median over
/// passes is reported, like `wall_s`: a burst of host noise then spoils
/// only the passes it hits. A `served-warm` pass holds 250 requests, so its
/// 90th percentile has 25 samples beyond it; a batch workload's pass is a
/// single request, whose latency both percentiles then read.
#[derive(Clone, Debug)]
pub(crate) struct EndToEnd {
    /// Set-up durations, one per repetition.
    pub setup: Vec<Duration>,
    /// Exact simulated query-to-wavefront max-energy ratio.
    pub query_energy_ratio: f64,
    requests_per_pass: usize,
    passes: Vec<f64>,
    p50s: Vec<f64>,
    p90s: Vec<f64>,
}

impl EndToEnd {
    /// An empty record for passes of `requests_per_pass` requests.
    pub fn new(requests_per_pass: usize) -> Self {
        EndToEnd {
            setup: Vec::new(),
            query_energy_ratio: 0.0,
            requests_per_pass,
            passes: Vec::new(),
            p50s: Vec::new(),
            p90s: Vec::new(),
        }
    }

    /// Records one timed pass and the latencies of its requests, each
    /// timed from its own start.
    pub fn record_pass(&mut self, wall: Duration, latencies: &[Duration]) {
        let micros: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        self.passes.push(wall.as_secs_f64());
        self.p50s.push(stats::percentile(&micros, 50.0));
        self.p90s.push(stats::percentile(&micros, 90.0));
    }

    /// Emits the seven end-to-end metrics. Throughput is the median pass's:
    /// requests per pass over the median pass wall time.
    pub fn emit(&self, report: &mut Report) {
        let setup: Vec<f64> = self.setup.iter().map(Duration::as_secs_f64).collect();
        let wall = stats::median(&self.passes);
        report.metric("setup_s", stats::median(&setup), "s");
        report.metric("wall_s", wall, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("query_energy_ratio", self.query_energy_ratio, "ratio");
        report.metric("req_per_s", self.requests_per_pass as f64 / wall, "1/s");
        report.metric("latency_p50_us", stats::median(&self.p50s), "us");
        report.metric("latency_p90_us", stats::median(&self.p90s), "us");
    }
}

/// Every per-layer metric of a traced run; a layer the workload never calls
/// reports 0.
#[derive(Clone, Debug, Default)]
pub(crate) struct PerLayer {
    /// Runner-path layers (dataset, stack, protocol, LB, runner, store, json).
    pub layers: Layers,
    /// The set-up's `DatasetCache::load_or_build` calls, median over set-ups.
    pub dataset_setup_load: Duration,
    /// Misses (generator runs) in one set-up.
    pub dataset_setup_misses: u64,
    /// `build_hierarchy`, median over the set-up's builds.
    pub hierarchy_build: Duration,
    /// `recursive_bfs_with_hierarchy` calls.
    pub queries: u64,
    /// `recursive_bfs_with_hierarchy`, summed.
    pub query_run: Duration,
    /// LB calls inside the queries.
    pub query_lb: LbTally,
    /// Query max LB energy, summed over queries.
    pub query_max_energy: u64,
    /// `trivial_bfs` baseline calls.
    pub baselines: u64,
    /// `trivial_bfs`, summed.
    pub baseline_run: Duration,
    /// Baseline max LB energy, summed over baselines.
    pub baseline_max_energy: u64,
    /// Median in-process latency of the served request stream.
    pub server_inproc_us: f64,
    /// Mean cost of the server's catalog lookup per request.
    pub server_catalog_us: f64,
    /// Median served latency minus median in-process latency.
    pub wire_overhead_us: f64,
    /// Median untraced pass.
    pub untraced_wall: Duration,
    /// Median traced pass.
    pub traced_wall: Duration,
}

impl PerLayer {
    /// Emits every per-layer metric.
    pub fn emit(&self, report: &mut Report) {
        let l = &self.layers;
        let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
        report.metric("dataset.load_ms", ms(self.dataset_setup_load), "ms");
        report.metric("dataset.misses", self.dataset_setup_misses as f64, "count");
        report.metric("dataset.timed_loads", l.dataset_timed_loads as f64, "count");
        report.metric("stack.build_ms", ms(l.stack_build), "ms");
        report.metric("stack.builds", l.stack_builds as f64, "count");
        report.metric("protocol.run_ms", ms(l.protocol_run), "ms");
        report.metric(
            "protocol.self_ms",
            ms(l.protocol_run.saturating_sub(l.protocol_lb.busy())),
            "ms",
        );
        report.metric("protocol.runs", l.protocol_runs as f64, "count");
        report.metric("hierarchy.build_ms", ms(self.hierarchy_build), "ms");
        report.metric("query.count", self.queries as f64, "count");
        report.metric("query.run_ms", per(ms(self.query_run), self.queries), "ms");
        report.metric(
            "query.self_ms",
            per(
                ms(self.query_run.saturating_sub(self.query_lb.busy())),
                self.queries,
            ),
            "ms",
        );
        report.metric(
            "baseline.run_ms",
            per(ms(self.baseline_run), self.baselines),
            "ms",
        );
        report.metric("query.lb_calls", self.query_lb.calls as f64, "calls");
        report.metric(
            "query.max_lb_energy",
            per(self.query_max_energy as f64, self.queries),
            "lb",
        );
        report.metric(
            "baseline.max_lb_energy",
            per(self.baseline_max_energy as f64, self.baselines),
            "lb",
        );
        let lb = &l.lb;
        report.metric("lb.calls", lb.calls as f64, "calls");
        report.metric("lb.sampled_calls", lb.sampled as f64, "calls");
        report.metric("lb.busy_ms", ms(lb.busy()), "ms");
        report.metric(
            "lb.ns_per_call",
            per(lb.busy().as_secs_f64() * 1e9, lb.calls),
            "ns",
        );
        report.metric(
            "lb.touched_per_call",
            per(lb.touched as f64, lb.calls),
            "nodes",
        );
        report.metric("lb.words_per_call", per(lb.words as f64, lb.calls), "words");
        report.metric("lb.receivers", lb.receivers as f64, "count");
        report.metric(
            "lb.delivered_ratio",
            per(lb.delivered as f64, lb.receivers),
            "ratio",
        );
        report.metric("runner.idle_frac", runner::idle_frac(l), "ratio");
        report.metric("runner.wall_ms", ms(l.runner_wall), "ms");
        report.metric("runner.cell_ms", ms(l.cells), "ms");
        report.metric("store.put_ms", ms(l.store_put), "ms");
        report.metric("store.puts", l.store_puts as f64, "count");
        report.metric("store.bytes", l.store_bytes as f64, "bytes");
        report.metric(
            "store.get_us",
            per(ms(l.store_get) * 1e3, l.store_timed_gets),
            "us",
        );
        report.metric("store.gets", l.store_gets as f64, "count");
        report.metric(
            "store.hot_hit_ratio",
            per(l.store_hot_hits as f64, l.store_gets),
            "ratio",
        );
        report.metric(
            "json.encode_us",
            per(ms(l.json_encode) * 1e3, l.json_records),
            "us",
        );
        report.metric("json.records", l.json_records as f64, "count");
        report.metric("server.inproc_us", self.server_inproc_us, "us");
        report.metric("server.catalog_us", self.server_catalog_us, "us");
        report.metric("wire.overhead_us", self.wire_overhead_us, "us");
        let (untraced, traced) = (
            self.untraced_wall.as_secs_f64(),
            self.traced_wall.as_secs_f64(),
        );
        report.metric("trace.untraced_wall_s", untraced, "s");
        report.metric("trace.traced_wall_s", traced, "s");
        report.metric("trace.overhead_s", traced - untraced, "s");
        report.metric(
            "trace.overhead_frac",
            if untraced > 0.0 {
                traced / untraced - 1.0
            } else {
                0.0
            },
            "ratio",
        );
    }
}

/// Times `record_json_object` on each of `records` into `layers`.
pub(crate) fn encode_records(records: &[ScenarioRecord], layers: &mut Layers) {
    for r in records {
        let t = Instant::now();
        std::hint::black_box(radio_bench::scenarios::record_json_object(r));
        layers.json_encode += t.elapsed();
        layers.json_records += 1;
    }
}

/// The median of `ds`.
pub(crate) fn median_duration(ds: &[Duration]) -> Duration {
    let secs: Vec<f64> = ds.iter().map(Duration::as_secs_f64).collect();
    Duration::from_secs_f64(stats::median(&secs))
}

/// A duration in milliseconds.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The trivial wavefront baseline of `query_energy_ratio`: `trivial_bfs`
/// from node 0 over the whole of `graph`, to its eccentricity, on a fresh
/// abstract stack. Returns the run's max LB energy and whether its labels
/// equal the centralized BFS.
pub(crate) fn wavefront_baseline(graph: &Graph) -> (u64, bool) {
    let n = graph.num_nodes();
    let truth = bfs::bfs_distances(graph, 0);
    let depth = truth
        .iter()
        .filter(|&&d| d != INFINITY)
        .max()
        .copied()
        .unwrap_or(0);
    let mut net = StackBuilder::new(graph.clone()).build();
    let result =
        energy_bfs::baseline::trivial_bfs(&mut net, &[0], &vec![true; n], u64::from(depth));
    (net.max_lb_energy(), labels_match(&result.dist, &truth))
}

/// Whether distributed labels equal the centralized BFS distances.
pub fn labels_match(dist: &[Option<u64>], truth: &[radio_graph::Dist]) -> bool {
    dist.len() == truth.len()
        && dist.iter().zip(truth).all(|(d, &t)| match d {
            Some(d) => t != INFINITY && *d == u64::from(t),
            None => t == INFINITY,
        })
}

/// `query_energy_ratio` over the recursive-BFS cells of a sweep: their
/// summed max LB energy over the summed max LB energy of the trivial
/// wavefront on each cell's graph. Also checks each baseline's labels.
pub(crate) fn recursive_cells_ratio(records: &[ScenarioRecord], report: &mut Report) -> f64 {
    let mut baselines: Vec<((String, usize), u64)> = Vec::new();
    let (mut query, mut wavefront) = (0u64, 0u64);
    for r in records.iter().filter(|r| r.protocol == "recursive_bfs") {
        let key = (r.family.clone(), r.target_n);
        let base = match baselines.iter().find(|(k, _)| *k == key) {
            Some(&(_, e)) => e,
            None => {
                let family = radio_bench::scenarios::Family::parse(&r.family)
                    .expect("record family labels parse");
                let (energy, ok) = wavefront_baseline(&family.build(r.target_n));
                report.check(ok, || {
                    format!("wavefront baseline on {} mislabels", r.family)
                });
                baselines.push((key, energy));
                energy
            }
        };
        query += r.max_lb_energy;
        wavefront += base;
    }
    report.check(wavefront > 0, || "no recursive-BFS cells to compare".into());
    query as f64 / wavefront.max(1) as f64
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One step of SplitMix64: a small, seedable, well-mixed stream.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh directory `name` under `scratch`, emptied first.
pub(crate) fn fresh_dir(scratch: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = scratch.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
