//! `hyperball-grid`: `diameter:hyperball:p=4,rounds=4` on the 256×256 grid
//! (n = 65,536), the only workload above n = 4096. Each timed pass — one
//! request — runs [`CELLS`] cells, seeded `CELLS·seed + i`, through
//! `run_batch_with_stores` at two threads with no result store, so every
//! pass computes. Set-up compiles the grid into a fresh dataset cache and
//! reads the artifact back.
//! Checks: every estimate equals the round cap, and every pass repeats the
//! first pass's records byte for byte.

use std::path::Path;
use std::time::Instant;

use radio_bench::scenarios::{
    record_json_object, run_batch_with_stores, BatchItem, Family, Protocol, RunnerConfig, Scenario,
    StackSpec,
};

use crate::report::Report;
use crate::trace::Layers;
use crate::{fresh_dir, median_duration, Budget, EndToEnd, Options, PerLayer, SETUP_REPS, THREADS};

/// Grid side.
pub(crate) const SIDE: usize = 256;

/// Cells per pass: one per thread.
pub(crate) const CELLS: u64 = 2;

/// Registry spec of the protocol.
pub(crate) const SPEC: &str = "diameter:hyperball:p=4,rounds=4";

/// The round cap, which every estimate on this grid reaches.
const ROUNDS: u64 = 4;

/// Passes an untraced run makes at least.
const MIN_PASSES: usize = 3;

/// The pass's scenario for workload seed `seed`.
pub fn scenario(seed: u64) -> Scenario {
    Scenario {
        name: "hyperball-grid".into(),
        family: Family::Grid,
        sizes: vec![SIDE * SIDE],
        seeds: (0..CELLS)
            .map(|i| seed.wrapping_mul(CELLS).wrapping_add(i))
            .collect(),
        protocol: Protocol::from_spec(SPEC, &energy_bfs::protocol::registry())
            .expect("hyperball spec resolves"),
        stack: StackSpec::Abstract,
    }
}

/// Runs the workload.
pub(crate) fn run(opts: &Options, scratch: &Path, report: &mut Report) -> std::io::Result<()> {
    let scenario = scenario(opts.seed);
    let size = SIDE * SIDE;
    let key = scenario.family.dataset_key(size);
    let mut e2e = EndToEnd::new(1);
    let mut per = PerLayer::default();
    let mut datasets = None;
    for rep in 0..SETUP_REPS {
        let dir = fresh_dir(scratch, &format!("datasets-{rep}"))?;
        let start = Instant::now();
        let cache = radio_graph::dataset::DatasetCache::new(&dir);
        cache.load_or_build(&key, || scenario.family.build(size));
        let reread = cache.load(&key);
        e2e.setup.push(start.elapsed());
        report.check(reread.is_ok_and(|g| g.num_nodes() == size), || {
            "compiled grid does not read back".into()
        });
        per.dataset_setup_misses = cache.misses();
        if let Some(old) = datasets.replace(cache) {
            std::fs::remove_dir_all(old.dir())?;
        }
    }
    per.dataset_setup_load = median_duration(&e2e.setup);
    let datasets = datasets.expect("at least one set-up");

    let config = RunnerConfig::with_threads(THREADS);
    let item = BatchItem {
        scenario: scenario.clone(),
        active: None,
    };
    let budget = Budget::start(opts.seconds);
    let mut reference: Option<Vec<String>> = None;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut pass = 0;
    while budget.more(pass, if opts.trace { 2 } else { MIN_PASSES }) {
        let traced_pass = opts.trace && pass % 2 == 1;
        let start = Instant::now();
        let records = if traced_pass {
            let mut layers = Layers::default();
            let records = crate::runner::run_traced(
                std::slice::from_ref(&scenario),
                THREADS,
                Some(&datasets),
                None,
                &mut layers,
            );
            traced.push(start.elapsed());
            if per.layers.stack_builds == 0 {
                crate::encode_records(&records, &mut layers);
                per.layers = layers;
            }
            records
        } else {
            let records = run_batch_with_stores(
                std::slice::from_ref(&item),
                &config,
                Some(&datasets),
                None,
                None,
            )
            .pop()
            .expect("one item in, one outcome out")
            .records;
            untraced.push(start.elapsed());
            records
        };
        let lines: Vec<String> = records.iter().map(record_json_object).collect();
        let reference = reference.get_or_insert_with(|| lines.clone());
        report.check(records.len() == CELLS as usize, || {
            format!("pass {pass} produced {} records", records.len())
        });
        for (i, (record, line)) in records.iter().zip(&lines).enumerate() {
            let capped = record.estimate == Some(ROUNDS);
            let same = reference.get(i) == Some(line);
            report.check(capped && same, || {
                format!(
                    "cell seed {}: estimate {:?} (want {ROUNDS}), equal to first pass {same}",
                    record.seed, record.estimate
                )
            });
        }
        if pass == 0 {
            let graph = datasets.load_or_build(&key, || scenario.family.build(size));
            let (wavefront, ok) = crate::wavefront_baseline(&graph);
            report.check(ok, || "wavefront baseline mislabels the grid".into());
            let query: u64 = records.iter().map(|r| r.max_lb_energy).sum();
            e2e.query_energy_ratio =
                query as f64 / (wavefront * records.len().max(1) as u64) as f64;
        }
        pass += 1;
    }
    if opts.trace {
        per.untraced_wall = median_duration(&untraced);
        per.traced_wall = median_duration(&traced);
        per.emit(report);
    } else {
        untraced
            .into_iter()
            .for_each(|wall| e2e.record_pass(wall, &[wall]));
        e2e.emit(report);
    }
    Ok(())
}
