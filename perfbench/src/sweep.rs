//! `sweep-cold`: the default catalog (36 scenarios, 397 cells) swept cold
//! through `run_scenarios_with_stores` at two threads.
//!
//! Set-up compiles the catalog's datasets into a fresh cache (13 misses).
//! Each timed pass — one request — sweeps the whole catalog into an empty
//! result store. Pass `p` shifts every seed list by `PASS_STRIDE·seed + p`, so seed 0's
//! first pass is the catalog itself. The sweep's cost moves by about ±6%
//! with the seeds (the 3/2-approximation's hitting sets, the clustering
//! draws), and a median over passes with distinct shifts averages that out
//! inside one run. Checks per pass: 397 records, every
//! `diameter_two_approx` record agrees, and a warm re-read over the same
//! store computes nothing and is byte-identical; a traced pass must also
//! equal the untraced pass of the same shift.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use radio_bench::results::ResultStore;
use radio_bench::scenarios::{
    default_scenarios, record_json_object, run_scenarios_with_stores, RunnerConfig, Scenario,
    ScenarioRecord,
};
use radio_graph::dataset::DatasetCache;

use crate::report::Report;
use crate::trace::Layers;
use crate::{fresh_dir, median_duration, Budget, EndToEnd, Options, PerLayer, SETUP_REPS, THREADS};

/// Passes an untraced run makes at least; `query_energy_ratio` is taken
/// over their 48 recursive-BFS cells, whose ratios move by about ±25% each
/// with the seed.
const MIN_PASSES: usize = 8;

/// Seed shifts reserved per workload seed: pass `p` of workload seed `s`
/// sweeps with shift `PASS_STRIDE·s + p`.
pub(crate) const PASS_STRIDE: u64 = 1 << 10;

/// The seed shift of pass `pass` under workload seed `seed`.
pub fn shift(seed: u64, pass: u64) -> u64 {
    seed.wrapping_mul(PASS_STRIDE).wrapping_add(pass)
}

/// The default catalog with every seed list shifted by `seed`; seed 0 is
/// the catalog itself.
pub fn scenarios(seed: u64) -> Vec<Scenario> {
    let mut out = default_scenarios();
    for s in &mut out {
        for x in &mut s.seeds {
            *x = x.wrapping_add(seed);
        }
    }
    out
}

/// Compiles every (family, size) dataset of `scenarios` into a cache over
/// `dir`; returns the cache and its miss count.
pub(crate) fn compile_datasets(dir: &Path, scenarios: &[Scenario]) -> (DatasetCache, u64) {
    let cache = DatasetCache::new(dir);
    let mut seen = BTreeSet::new();
    for s in scenarios {
        for &size in &s.sizes {
            let key = s.family.dataset_key(size);
            if seen.insert(key.file_name()) {
                cache.load_or_build(&key, || s.family.build(size));
            }
        }
    }
    let misses = cache.misses();
    (cache, misses)
}

/// Runs the workload.
pub(crate) fn run(opts: &Options, scratch: &Path, report: &mut Report) -> std::io::Result<()> {
    let mut e2e = EndToEnd::new(1);
    let mut per = PerLayer::default();
    let mut datasets = None;
    for rep in 0..SETUP_REPS {
        let dir = fresh_dir(scratch, &format!("datasets-{rep}"))?;
        let start = Instant::now();
        let (cache, misses) = compile_datasets(&dir, &scenarios(opts.seed));
        e2e.setup.push(start.elapsed());
        per.dataset_setup_misses = misses;
        if let Some(old) = datasets.replace(cache) {
            std::fs::remove_dir_all(old.dir())?;
        }
    }
    per.dataset_setup_load = median_duration(&e2e.setup);
    let datasets = datasets.expect("at least one set-up");

    let config = RunnerConfig::with_threads(THREADS);
    let budget = Budget::start(opts.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut untraced_lines: Vec<String> = Vec::new();
    let mut ratio_cells = Vec::new();
    let mut pass = 0;
    while budget.more(pass, if opts.trace { 2 } else { MIN_PASSES }) {
        // A traced run sweeps each shift twice, untraced then traced.
        let traced_pass = opts.trace && pass % 2 == 1;
        let step = if opts.trace { pass / 2 } else { pass };
        let scenarios = scenarios(shift(opts.seed, step as u64));
        let dir = fresh_dir(scratch, &format!("results-{pass}"))?;
        let store = ResultStore::new(&dir);
        let start = Instant::now();
        let records = if traced_pass {
            let mut layers = Layers::default();
            let records = crate::runner::run_traced(
                &scenarios,
                THREADS,
                Some(&datasets),
                Some(&store),
                &mut layers,
            );
            traced.push(start.elapsed());
            if per.layers.stack_builds == 0 {
                layers.store_bytes = store.size().bytes;
                crate::encode_records(&records, &mut layers);
                per.layers = layers;
            }
            records
        } else {
            let records =
                run_scenarios_with_stores(&scenarios, &config, Some(&datasets), Some(&store));
            untraced.push(start.elapsed());
            records
        };
        let lines = check_pass(&scenarios, &datasets, &dir, &records, report);
        if traced_pass {
            report.check(lines == untraced_lines, || {
                format!("traced pass {pass} differs from the untraced sweep of its seeds")
            });
        } else {
            untraced_lines = lines;
        }
        if !opts.trace && pass < MIN_PASSES {
            ratio_cells.extend(
                records
                    .iter()
                    .filter(|r| r.protocol == "recursive_bfs")
                    .cloned(),
            );
        }
        std::fs::remove_dir_all(&dir)?;
        pass += 1;
    }
    if opts.trace {
        per.untraced_wall = median_duration(&untraced);
        per.traced_wall = median_duration(&traced);
        per.emit(report);
    } else {
        e2e.query_energy_ratio = crate::recursive_cells_ratio(&ratio_cells, report);
        untraced
            .into_iter()
            .for_each(|wall| e2e.record_pass(wall, &[wall]));
        e2e.emit(report);
    }
    Ok(())
}

/// One check per record (equals its warm re-read; `diameter_two_approx`
/// agrees), plus the record count and the warm re-read computing nothing.
/// Returns the records' JSON lines.
fn check_pass(
    scenarios: &[Scenario],
    datasets: &DatasetCache,
    store_dir: &Path,
    records: &[ScenarioRecord],
    report: &mut Report,
) -> Vec<String> {
    let expected: usize = scenarios
        .iter()
        .map(|s| s.sizes.len() * s.seeds.len())
        .sum();
    report.check(records.len() == expected, || {
        format!(
            "sweep produced {} records, expected {expected}",
            records.len()
        )
    });
    let warm_store = ResultStore::new(store_dir);
    let warm = run_scenarios_with_stores(
        scenarios,
        &RunnerConfig::with_threads(THREADS),
        Some(datasets),
        Some(&warm_store),
    );
    report.check(
        warm_store.misses() == 0 && warm.len() == records.len(),
        || format!("warm re-read missed {} cells", warm_store.misses()),
    );
    let lines: Vec<String> = records.iter().map(record_json_object).collect();
    for (i, (record, line)) in records.iter().zip(&lines).enumerate() {
        let warm_ok = warm.get(i).map(record_json_object).as_deref() == Some(line.as_str());
        let agrees = record.protocol != "diameter_two_approx" || record.agrees == Some(true);
        report.check(warm_ok && agrees, || {
            format!(
                "record {i} ({} seed {}): warm re-read equal {warm_ok}, agrees {agrees}",
                record.scenario, record.seed
            )
        });
    }
    lines
}
