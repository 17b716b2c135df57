//! Accuracy conformance for the `diameter:*` protocol family on the
//! scenario runner: hyperball estimates must land inside the standard
//! `1.04/√2^p` relative-error envelope against the exact BFS diameter on
//! seeded path/grid/tree families (with the envelope evaluated through the
//! same `diameter_agreement` predicate the sweep records), the exact
//! estimators must honor their own approximation guarantees, and every
//! diameter record must come out byte-identical at `--threads 1` and `4`.

use radio_bench::scenarios::{
    diameter_agreement, records_to_json, run_scenarios_with_stores, Family, Protocol, RunnerConfig,
    Scenario, ScenarioRecord, StackSpec,
};
use radio_protocols::sketch::relative_error;

/// Runs one scenario on `threads` workers, with no stores.
fn run(scenario: &Scenario, threads: usize) -> Vec<ScenarioRecord> {
    let cfg = RunnerConfig::with_threads(threads);
    run_scenarios_with_stores(std::slice::from_ref(scenario), &cfg, None, None)
}

fn diameter_scenario(name: String, family: Family, sizes: Vec<usize>, spec: &str) -> Scenario {
    let registry = energy_bfs::protocol::registry();
    Scenario {
        name,
        family,
        sizes,
        seeds: (0..4).collect(),
        protocol: Protocol::from_spec(spec, &registry).expect("diameter spec resolves"),
        stack: StackSpec::Abstract,
    }
}

/// The seeded conformance matrix: one scenario per (family, precision),
/// sizes chosen so the exact diameters range from shallow (grid) to deep
/// (path), where round-counting sketches are most stressed.
fn conformance_cases() -> Vec<(Family, &'static str, Vec<usize>)> {
    vec![
        (Family::Path, "path", vec![17, 33, 64]),
        (Family::Grid, "grid", vec![64, 144, 256]),
        (Family::Tree { arity: 3 }, "tree3", vec![40, 121]),
    ]
}

#[test]
fn hyperball_estimates_stay_inside_the_pinned_error_envelope() {
    for p in [6u32, 8] {
        let tol = relative_error(p);
        for (family, tag, sizes) in conformance_cases() {
            let scenario = diameter_scenario(
                format!("conf-{tag}-p{p}"),
                family,
                sizes,
                &format!("diameter:hyperball:p={p}"),
            );
            let records = run(&scenario, 1);
            assert!(!records.is_empty());
            for r in &records {
                let est = r.estimate.expect("hyperball cells carry an estimate");
                let exact = r.exact.expect("exact diameter fits under the ceiling");
                // The pinned tolerance: ±max(⌈1.04/√2^p · D⌉, 1) rounds.
                let slack = (tol * exact as f64).ceil().max(1.0) as u64;
                assert!(
                    est.abs_diff(exact) <= slack,
                    "{}: n={} seed={}: estimate {} vs exact {} exceeds ±{}",
                    scenario.name,
                    r.n,
                    r.seed,
                    est,
                    exact,
                    slack
                );
                // The record's own agreement column says the same thing.
                assert_eq!(
                    r.agrees,
                    Some(true),
                    "{}: n={} seed={}",
                    scenario.name,
                    r.n,
                    r.seed
                );
                assert!(diameter_agreement(&r.protocol, est, exact));
                assert_eq!(r.outcome, est, "outcome column mirrors the estimate");
            }
        }
    }
}

#[test]
fn exact_estimators_honor_their_approximation_guarantees() {
    for (spec, check) in [
        (
            "diameter:two_approx",
            (|est, exact| est <= exact && 2 * est >= exact) as fn(u64, u64) -> bool,
        ),
        (
            "diameter:three_halves_approx",
            (|est, exact| est <= exact && est >= (2 * exact) / 3) as fn(u64, u64) -> bool,
        ),
    ] {
        for (family, tag, sizes) in conformance_cases() {
            let scenario = diameter_scenario(format!("conf-{tag}-{spec}"), family, sizes, spec);
            for r in run(&scenario, 1) {
                let est = r.estimate.expect("diameter cells carry an estimate");
                let exact = r.exact.expect("exact diameter fits under the ceiling");
                assert!(
                    check(est, exact),
                    "{}: n={} seed={}: estimate {} breaks the {} guarantee against exact {}",
                    scenario.name,
                    r.n,
                    r.seed,
                    est,
                    spec,
                    exact
                );
                assert_eq!(r.agrees, Some(true));
            }
        }
    }
}

#[test]
fn diameter_records_are_byte_identical_at_one_and_four_threads() {
    let registry = energy_bfs::protocol::registry();
    let specs = [
        "diameter:hyperball:p=6",
        "diameter:hyperball:p=6,rounds=4",
        "diameter:two_approx",
        "diameter:three_halves_approx",
    ];
    for (i, spec) in specs.iter().enumerate() {
        let scenario = Scenario {
            name: format!("threads-diam-{i}"),
            family: Family::Grid,
            sizes: vec![64, 100],
            seeds: (0..3).collect(),
            protocol: Protocol::from_spec(spec, &registry).expect("diameter spec resolves"),
            stack: StackSpec::Abstract,
        };
        let serial = run(&scenario, 1);
        let pooled = run(&scenario, 4);
        assert_eq!(
            records_to_json(&serial),
            records_to_json(&pooled),
            "{spec}: records diverged between 1 and 4 threads"
        );
    }
}
