//! Integration tests for the result store and incremental sweeps: warm
//! runs must be byte-identical to cold and uncached runs at every thread
//! count, dramatically faster than recomputing, strictly incremental (only
//! absent cells are computed), and self-healing (corrupt, truncated, or
//! foreign-fingerprint artifacts are rejected as misses and recomputed —
//! never silently decoded into a wrong record).

use std::path::PathBuf;

use radio_bench::results::{read_artifact, ResultError, ResultStore};
use radio_bench::scenarios::{
    records_to_json, run_scenarios_with_stores, Family, Protocol, RunnerConfig, Scenario, StackSpec,
};

/// A scratch directory under the cargo-managed target tmpdir, unique per
/// test so parallel test binaries never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("results")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A sweep with real compute behind it: multiple families, physical and
/// abstract backends, enough cells that the cold/warm contrast is
/// unambiguous.
fn sweep() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "res-grid".into(),
            family: Family::Grid,
            sizes: vec![256],
            seeds: (0..6).collect(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        },
        Scenario {
            name: "res-grid-phys".into(),
            family: Family::Grid,
            sizes: vec![144],
            seeds: (0..4).collect(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::physical(false),
        },
        Scenario {
            name: "res-cluster".into(),
            family: Family::Tree { arity: 3 },
            sizes: vec![121],
            seeds: (0..6).collect(),
            protocol: Protocol::Clustering { inv_beta: 3 },
            stack: StackSpec::Abstract,
        },
    ]
}

#[test]
fn warm_sweeps_are_byte_identical_to_cold_and_uncached_at_every_thread_count() {
    let dir = scratch("identity");
    let store = ResultStore::new(&dir);
    let sweep = sweep();
    let uncached = records_to_json(&run_scenarios_with_stores(
        &sweep,
        &RunnerConfig::serial(),
        None,
        None,
    ));
    let cold = records_to_json(&run_scenarios_with_stores(
        &sweep,
        &RunnerConfig::serial(),
        None,
        Some(&store),
    ));
    assert_eq!(uncached, cold, "the store must not change cold output");
    assert_eq!(store.hits(), 0);
    let cells = store.misses();
    assert_eq!(cells, 16, "6 + 4 + 6 cells all computed cold");
    // The acceptance matrix: warm runs at --threads 1 and 4 both reproduce
    // the uncached bytes exactly (mean_lb_energy round-trips as raw f64
    // bits, so even the {:.3}-formatted JSON column cannot drift).
    for threads in [1usize, 4] {
        let warm = records_to_json(&run_scenarios_with_stores(
            &sweep,
            &RunnerConfig::with_threads(threads),
            None,
            Some(&store),
        ));
        assert_eq!(uncached, warm, "threads={threads}");
    }
    assert_eq!(store.hits(), 32, "both warm runs all-hit");
    assert_eq!(store.misses(), cells, "warm runs computed nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_sweeps_compute_only_the_absent_cells() {
    // Warm a sweep, then extend it with a new scenario, new seeds, and a
    // new size: only the genuinely new cells are computed.
    let dir = scratch("incremental");
    let store = ResultStore::new(&dir);
    let base = sweep();
    run_scenarios_with_stores(&base, &RunnerConfig::serial(), None, Some(&store));
    let baseline_misses = store.misses();

    let mut extended = base.clone();
    extended[0].seeds = (0..8).collect(); // 2 new seeds
    extended[1].sizes = vec![144, 100]; // 1 new size × 4 seeds
    extended.push(Scenario {
        name: "res-new".into(),
        family: Family::Path,
        sizes: vec![64],
        seeds: (0..3).collect(), // 3 entirely new cells
        protocol: Protocol::DecayBfs,
        stack: StackSpec::Abstract,
    });
    let records = run_scenarios_with_stores(&extended, &RunnerConfig::serial(), None, Some(&store));
    assert_eq!(records.len(), 8 + 8 + 6 + 3);
    assert_eq!(
        store.misses() - baseline_misses,
        2 + 4 + 3,
        "exactly the new cells were computed"
    );
    // The extended run agrees with a from-scratch uncached run cell for
    // cell — warmed prefixes splice in transparently.
    assert_eq!(
        records_to_json(&records),
        records_to_json(&run_scenarios_with_stores(
            &extended,
            &RunnerConfig::serial(),
            None,
            None
        ))
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifacts_are_rejected_as_typed_errors_and_healed_by_the_runner() {
    let dir = scratch("healing");
    let store = ResultStore::new(&dir);
    let scenario = Scenario {
        name: "res-heal".into(),
        family: Family::Grid,
        sizes: vec![64],
        seeds: vec![0, 1],
        protocol: Protocol::TrivialBfs,
        stack: StackSpec::Abstract,
    };
    let cfg = RunnerConfig::serial();
    let cold = run_scenarios_with_stores(std::slice::from_ref(&scenario), &cfg, None, Some(&store));
    let key = scenario.result_key(64, 0, None);
    let path = store.path_for(&key);
    let pristine = std::fs::read(&path).expect("artifact exists");

    // Truncation, payload corruption, and a foreign engine fingerprint are
    // all typed Format errors at the codec level...
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    cases.push(("truncated", pristine[..pristine.len() - 6].to_vec()));
    let mut flipped = pristine.clone();
    let mid = flipped.len() - 12;
    flipped[mid] ^= 0xff;
    cases.push(("corrupt payload", flipped));
    let mut foreign = pristine.clone();
    for b in &mut foreign[16..24] {
        *b ^= 0xff;
    }
    cases.push(("foreign fingerprint", foreign));
    for (what, bytes) in cases {
        std::fs::write(&path, &bytes).expect("plant bad artifact");
        let err = read_artifact(&path, &key).expect_err(what);
        assert!(matches!(err, ResultError::Format(_)), "{what}: {err}");
        // ...and at the runner level each one is a miss healed by
        // recomputing: the records come out right and the artifact is
        // restored to the pristine bytes.
        let hits_before = store.hits();
        let healed =
            run_scenarios_with_stores(std::slice::from_ref(&scenario), &cfg, None, Some(&store));
        assert_eq!(healed, cold, "{what}: healed records must match");
        assert_eq!(
            store.hits() - hits_before,
            1,
            "{what}: the untouched seed-1 cell still hits"
        );
        assert_eq!(
            std::fs::read(&path).expect("healed artifact"),
            pristine,
            "{what}: re-put must restore the exact artifact bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_runs_are_more_than_ten_times_faster_than_cold() {
    // The acceptance bound on real compute: a sweep with enough work that
    // wall-clock comparison is meaningful, timed cold (computing +
    // writing artifacts) vs warm (pure store reads). The >10x bar is the
    // ISSUE's; in practice warm is orders of magnitude faster.
    let dir = scratch("speedup");
    let store = ResultStore::new(&dir);
    let heavy = vec![Scenario {
        name: "res-heavy".into(),
        family: Family::Grid,
        sizes: vec![1024],
        seeds: (0..6).collect(),
        protocol: Protocol::TrivialBfs,
        stack: StackSpec::Abstract,
    }];
    let cfg = RunnerConfig::serial();
    let started = std::time::Instant::now();
    let cold = run_scenarios_with_stores(&heavy, &cfg, None, Some(&store));
    let cold_elapsed = started.elapsed();
    let started = std::time::Instant::now();
    let warm = run_scenarios_with_stores(&heavy, &cfg, None, Some(&store));
    let warm_elapsed = started.elapsed();
    assert_eq!(cold, warm);
    assert_eq!(store.hits(), 6, "warm run must be all hits");
    assert!(
        warm_elapsed.as_secs_f64() * 10.0 < cold_elapsed.as_secs_f64(),
        "warm {warm_elapsed:?} must undercut a tenth of cold {cold_elapsed:?}"
    );
    // And the single-cell shape of the same bound: re-running one repeated
    // cell is a pure store read.
    let one = vec![Scenario {
        seeds: vec![3],
        ..heavy[0].clone()
    }];
    let started = std::time::Instant::now();
    run_scenarios_with_stores(&one, &cfg, None, Some(&store));
    let single_elapsed = started.elapsed();
    assert_eq!(store.hits(), 7, "the repeated cell is the seventh hit");
    assert!(
        single_elapsed.as_secs_f64() * 10.0 < cold_elapsed.as_secs_f64(),
        "single warm cell {single_elapsed:?} vs cold sweep {cold_elapsed:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
