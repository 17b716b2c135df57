//! `served-warm`: the read path of `server::serve` — hot set, artifact
//! reads, record JSON and the wire — with no protocol run and no graph load.
//!
//! Preparation (untimed; it is `sweep-cold`'s work) fills a result store
//! with the whole default catalog. Set-up, repeated: open the store with a
//! 256-entry hot set, start the server on a loopback port with two compute
//! threads and one accept thread, connect, and request every catalog cell
//! once, which leaves the hot set full. Timed: one closed-loop client
//! sends single-cell `run` requests drawn uniformly over the 397 cells by
//! the workload seed, each timed from its own send to its own response.
//! Draws are random, not cyclic: cycling 397 cells through a 256-entry LRU
//! would miss every time. Checks: every set-up response is `ok`, computed
//! nothing, and carries the prepared record; every timed response is
//! byte-equal to the set-up response for its cell; no dataset is loaded.
//!
//! The traced run replays the same request stream in process — through
//! `ResultStore::get`, through `run_batch_with_stores`, and through the
//! server's catalog lookup — to split the served latency by layer.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use radio_bench::json::{escape, Json};
use radio_bench::pool::WorkPool;
use radio_bench::results::ResultStore;
use radio_bench::scenarios::{
    default_scenarios, record_json_object, run_batch_with_stores, run_scenarios_with_stores,
    BatchItem, RunnerConfig, Scenario, ScenarioRecord,
};
use radio_bench::server::{serve, ServeOptions};
use radio_graph::dataset::DatasetCache;

use crate::report::Report;
use crate::trace::Layers;
use crate::{
    fresh_dir, median_duration, splitmix64, stats, Budget, EndToEnd, Options, PerLayer, SETUP_REPS,
    THREADS,
};

/// Hot-set capacity of the served store.
pub(crate) const HOT_SET: usize = 256;

/// Requests per timed pass.
pub(crate) const PASS_REQUESTS: usize = 250;

/// Passes a run makes at least.
const MIN_PASSES: usize = 3;

/// One catalog cell: a default-catalog scenario and one of its seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Scenario name.
    pub scenario: String,
    /// Seed.
    pub seed: u64,
}

impl Cell {
    /// The single-cell `run` request line for this cell.
    pub fn request(&self) -> String {
        format!(
            "{{\"cmd\":\"run\",\"scenario\":\"{}\",\"seeds\":[{}]}}",
            escape(&self.scenario),
            self.seed
        )
    }
}

/// Every cell of the default catalog, in sweep record order.
pub fn catalog_cells() -> Vec<Cell> {
    default_scenarios()
        .iter()
        .flat_map(|s| {
            s.sizes.iter().flat_map(move |_| {
                s.seeds.iter().map(move |&seed| Cell {
                    scenario: s.name.clone(),
                    seed,
                })
            })
        })
        .collect()
}

/// The seeded request stream: uniform draws over `cells` cell indices.
#[derive(Clone, Debug)]
pub struct Requests {
    state: u64,
    cells: usize,
}

impl Requests {
    /// The stream of workload seed `seed` over `cells` cells.
    pub fn new(seed: u64, cells: usize) -> Self {
        assert!(cells > 0, "a request stream needs at least one cell");
        Requests { state: seed, cells }
    }
}

impl Iterator for Requests {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let x = splitmix64(&mut self.state);
        Some(((u128::from(x) * self.cells as u128) >> 64) as usize)
    }
}

/// One line-oriented client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends `request` and reads the response line into `response`
    /// (newline stripped).
    pub fn ask(&mut self, request: &str, response: &mut String) -> std::io::Result<()> {
        let mut line = String::with_capacity(request.len() + 1);
        line.push_str(request);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        response.clear();
        if self.reader.read_line(response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let trimmed = response.trim_end_matches(['\n', '\r']).len();
        response.truncate(trimmed);
        Ok(())
    }
}

/// Runs `f` against a server over `store` on an ephemeral loopback port,
/// then shuts the server down and waits for it. `f` must drop its
/// connections before returning: the server has one accept thread.
pub fn with_server<R>(
    store: &ResultStore,
    datasets: &DatasetCache,
    f: impl FnOnce(SocketAddr) -> R,
) -> std::io::Result<R> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let config = RunnerConfig::with_threads(THREADS);
    let options = ServeOptions { accept_threads: 1 };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(listener, &config, Some(datasets), store, &options));
        let out = catch_unwind(AssertUnwindSafe(|| f(addr)));
        let stop = Client::connect(addr)
            .and_then(|mut c| c.ask("{\"cmd\":\"shutdown\"}", &mut String::new()));
        let served = server.join();
        match out {
            Err(panic) => resume_unwind(panic),
            Ok(out) => {
                stop?;
                match served {
                    Ok(summary) => summary.map(|_| out),
                    Err(panic) => resume_unwind(panic),
                }
            }
        }
    })
}

/// Runs the workload.
pub(crate) fn run(opts: &Options, scratch: &Path, report: &mut Report) -> std::io::Result<()> {
    let catalog = default_scenarios();
    let cells = catalog_cells();
    let requests: Vec<String> = cells.iter().map(Cell::request).collect();
    let datasets = DatasetCache::new(fresh_dir(scratch, "datasets")?);
    let store_dir = fresh_dir(scratch, "results")?;
    let prepared = run_scenarios_with_stores(
        &catalog,
        &RunnerConfig::with_threads(THREADS),
        Some(&datasets),
        Some(&ResultStore::new(&store_dir)),
    );
    report.check(prepared.len() == cells.len(), || {
        format!(
            "catalog has {} records for {} cells",
            prepared.len(),
            cells.len()
        )
    });

    let mut e2e = EndToEnd::new(PASS_REQUESTS);
    e2e.query_energy_ratio = crate::recursive_cells_ratio(&prepared, report);
    let mut per = PerLayer::default();
    let mut setup_responses: Vec<String> = Vec::new();
    let mut drawn: Vec<usize> = Vec::new();
    let mut first_pass: Vec<Duration> = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let store = ResultStore::new(&store_dir).with_hot_set(HOT_SET);
        let last = rep + 1 == SETUP_REPS;
        with_server(&store, &datasets, |addr| -> std::io::Result<()> {
            let mut client = Client::connect(addr)?;
            let mut responses = Vec::with_capacity(cells.len());
            for request in &requests {
                let mut response = String::new();
                client.ask(request, &mut response)?;
                responses.push(response);
            }
            e2e.setup.push(start.elapsed());
            check_setup(&responses, &prepared, report);
            setup_responses = responses;
            if !last {
                return Ok(());
            }
            let loads = datasets.hits() + datasets.misses();
            let probes = store.hits() + store.misses();
            let hot = store.hot_hits();
            let mut stream = Requests::new(opts.seed, cells.len());
            let mut response = String::new();
            let mut latencies = Vec::with_capacity(PASS_REQUESTS);
            let budget = Budget::start(opts.seconds);
            let mut pass = 0;
            while budget.more(pass, if opts.trace { 2 } else { MIN_PASSES }) {
                let pass_start = Instant::now();
                latencies.clear();
                for _ in 0..PASS_REQUESTS {
                    let c = stream.next().expect("endless stream");
                    let sent = Instant::now();
                    client.ask(&requests[c], &mut response)?;
                    let latency = sent.elapsed();
                    latencies.push(latency);
                    report.check(response == setup_responses[c], || {
                        format!(
                            "response for {:?} differs from set-up: {response}",
                            cells[c]
                        )
                    });
                    if pass == 0 {
                        drawn.push(c);
                        first_pass.push(latency);
                    }
                }
                let wall = pass_start.elapsed();
                if opts.trace && pass % 2 == 1 {
                    traced.push(wall);
                } else {
                    untraced.push(wall);
                    e2e.record_pass(wall, &latencies);
                }
                pass += 1;
            }
            let timed_loads = datasets.hits() + datasets.misses() - loads;
            report.check(timed_loads == 0, || {
                format!("{timed_loads} dataset loads in the timed phase")
            });
            let l = &mut per.layers;
            l.dataset_timed_loads = timed_loads;
            l.store_gets = store.hits() + store.misses() - probes;
            l.store_hot_hits = store.hot_hits() - hot;
            l.store_bytes = store.size().bytes;
            Ok(())
        })??;
    }
    if opts.trace {
        let served = Served {
            cells: &cells,
            drawn: &drawn,
            latencies: &first_pass,
        };
        replay(&catalog, &served, &store_dir, &datasets, &mut per, report);
        per.untraced_wall = median_duration(&untraced);
        per.traced_wall = median_duration(&traced);
        per.emit(report);
    } else {
        e2e.emit(report);
    }
    Ok(())
}

/// Each set-up response must be `ok`, computed nothing, and carry exactly
/// the prepared record of its cell.
fn check_setup(responses: &[String], prepared: &[ScenarioRecord], report: &mut Report) {
    for (response, record) in responses.iter().zip(prepared) {
        let parsed = Json::parse(response).ok();
        let field = |k: &str| parsed.as_ref().and_then(|j| j.get(k));
        let ok = field("ok").and_then(Json::as_bool) == Some(true)
            && field("computed").and_then(Json::as_u64) == Some(0);
        let want = Json::parse(&format!("[{}]", record_json_object(record))).ok();
        let same = want.is_some() && field("records") == want.as_ref();
        report.check(ok && same, || {
            format!(
                "set-up response for {} seed {}: ok/computed {ok}, record equal {same}",
                record.scenario, record.seed
            )
        });
    }
}

/// The first timed pass: which cell each request drew, and its latency.
struct Served<'a> {
    cells: &'a [Cell],
    drawn: &'a [usize],
    latencies: &'a [Duration],
}

/// The traced run's in-process replays of the first pass's request stream:
/// the server's catalog lookup, `ResultStore::get` on a store warmed like
/// the server's, `run_batch_with_stores` on another, and
/// `record_json_object` on every answer.
fn replay(
    catalog: &[Scenario],
    served: &Served<'_>,
    store_dir: &Path,
    datasets: &DatasetCache,
    per: &mut PerLayer,
    report: &mut Report,
) {
    let (cells, drawn) = (served.cells, served.drawn);
    let mut lookup = Duration::ZERO;
    for &c in drawn {
        let start = Instant::now();
        let found = default_scenarios()
            .into_iter()
            .find(|s| s.name == cells[c].scenario);
        lookup += start.elapsed();
        report.check(found.is_some(), || {
            format!("{:?} not in the catalog", cells[c])
        });
    }
    per.server_catalog_us = lookup.as_secs_f64() * 1e6 / drawn.len().max(1) as f64;

    let items: Vec<BatchItem> = cells
        .iter()
        .map(|cell| {
            let mut scenario = catalog
                .iter()
                .find(|s| s.name == cell.scenario)
                .expect("cells come from the catalog")
                .clone();
            scenario.seeds = vec![cell.seed];
            BatchItem {
                scenario,
                active: None,
            }
        })
        .collect();
    let warmed = || {
        let store = ResultStore::new(store_dir).with_hot_set(HOT_SET);
        for item in &items {
            let s = &item.scenario;
            store.get(&s.result_key(s.sizes[0], s.seeds[0], None));
        }
        store
    };

    let store = warmed();
    let mut get = Duration::ZERO;
    for &c in drawn {
        let s = &items[c].scenario;
        let key = s.result_key(s.sizes[0], s.seeds[0], None);
        let start = Instant::now();
        let found = store.get(&key);
        get += start.elapsed();
        report.check(found.is_some(), || {
            format!("{:?} missing from the store", cells[c])
        });
    }
    per.layers.store_get = get;
    per.layers.store_timed_gets = drawn.len() as u64;

    let store = warmed();
    let pool = WorkPool::new(THREADS);
    let config = RunnerConfig::with_threads(THREADS);
    let mut inproc = Vec::with_capacity(drawn.len());
    let mut layers = Layers::default();
    for &c in drawn {
        let start = Instant::now();
        let outcome = run_batch_with_stores(
            std::slice::from_ref(&items[c]),
            &config,
            Some(datasets),
            Some(&store),
            Some(&pool),
        )
        .pop()
        .expect("one item in, one outcome out");
        inproc.push(start.elapsed().as_secs_f64() * 1e6);
        crate::encode_records(&outcome.records, &mut layers);
        report.check(outcome.computed == 0 && outcome.records.len() == 1, || {
            format!("in-process replay computed {} cells", outcome.computed)
        });
    }
    per.layers.json_encode = layers.json_encode;
    per.layers.json_records = layers.json_records;
    per.server_inproc_us = stats::median(&inproc);
    let wire: Vec<f64> = served
        .latencies
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    per.wire_overhead_us = stats::median(&wire) - per.server_inproc_us;
}
