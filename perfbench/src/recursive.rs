//! `recursive-path`: the paper's algorithm against the trivial wavefront on
//! a path of 4096 nodes (experiment E6's row), from source 0 to depth n−1.
//!
//! One request is a query pair on one hierarchy: `recursive_bfs_with_hierarchy`
//! on a copy of the hierarchy's post-build stack, then `trivial_bfs` on a
//! fresh stack. Hierarchy `i` of workload seed `s` is built with
//! `scaling_config(n−1, STRIDE·s + i)` on a stack seeded the same way, so
//! seed 0 starts with the hierarchy E6 uses. A query's cost and energy move
//! by ±15% with its clustering draw, so every request uses a new hierarchy:
//! set-up builds the first [`HIERARCHIES`] (`setup_s` is their median
//! build), and the timed phase builds more, untimed, if it outlasts them.
//! `query_energy_ratio` is over the first [`HIERARCHIES`] pairs, so it is
//! exact for a seed. Checks: every label of both runs equals the
//! centralized BFS; a traced pair must repeat its untraced twin's energies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use energy_bfs::baseline::trivial_bfs;
use energy_bfs::{build_hierarchy, recursive_bfs_with_hierarchy, RecursiveBfsConfig};
use radio_bench::scaling_config;
use radio_bench::scenarios::StackSpec;
use radio_graph::{bfs, generators, Dist, Graph};
use radio_protocols::{ClusterState, RadioStack, Stack};

use crate::report::Report;
use crate::trace::{LbTally, TracedStack};
use crate::{labels_match, median_duration, Budget, EndToEnd, Options, PerLayer};

/// Path length.
pub(crate) const N: usize = 4096;

/// Hierarchies built in set-up, requests a run makes at least, and the
/// pairs `query_energy_ratio` is taken over.
pub(crate) const HIERARCHIES: u64 = 8;

/// Hierarchy seeds reserved per workload seed.
pub(crate) const STRIDE: u64 = 1 << 10;

/// One built hierarchy and the stack state right after building it.
struct Prepared {
    seed: u64,
    config: RecursiveBfsConfig,
    hierarchy: Vec<ClusterState>,
    stack: Stack,
}

/// What one query pair produced.
#[derive(Clone, Debug, PartialEq)]
struct PairOutcome {
    query_calls: u64,
    query_max_energy: u64,
    baseline_max_energy: u64,
}

/// The seed of hierarchy `i` under workload seed `seed`.
pub fn hierarchy_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(STRIDE).wrapping_add(i)
}

/// Builds hierarchy `seed` over `graph`, timing `build_hierarchy`.
fn prepare(graph: &Arc<Graph>, seed: u64) -> (Prepared, Duration) {
    let config = scaling_config((N - 1) as u64, seed);
    let mut stack = StackSpec::Abstract.build(Arc::clone(graph), seed);
    let start = Instant::now();
    let hierarchy = build_hierarchy(&mut stack, &config);
    let built = start.elapsed();
    let prepared = Prepared {
        seed,
        config,
        hierarchy,
        stack,
    };
    (prepared, built)
}

/// Runs the workload.
pub(crate) fn run(opts: &Options, report: &mut Report) {
    let graph = Arc::new(generators::path(N));
    let truth = bfs::bfs_distances(&graph, 0);
    let mut e2e = EndToEnd::new(1);
    let mut per = PerLayer::default();
    let mut prepared: Vec<Prepared> = (0..HIERARCHIES)
        .map(|i| {
            let (p, built) = prepare(&graph, hierarchy_seed(opts.seed, i));
            e2e.setup.push(built);
            p
        })
        .collect();
    per.hierarchy_build = median_duration(&e2e.setup);

    if opts.trace {
        // Each hierarchy twice: untraced, then traced on an identical copy.
        let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
        for p in &prepared {
            let (outcome, query, baseline, _) = query_pair(p, &graph, &truth, false, report);
            untraced += query + baseline;
            let (twin, query, baseline, tallies) = query_pair(p, &graph, &truth, true, report);
            traced += query + baseline;
            let (query_lb, baseline_lb) = tallies.expect("traced pairs tally");
            report.check(
                twin == outcome && query_lb.calls == outcome.query_calls,
                || {
                    format!(
                        "hierarchy {}: traced pair {twin:?} differs from untraced {outcome:?} \
                     (wrapper counted {} query calls)",
                        p.seed, query_lb.calls
                    )
                },
            );
            per.queries += 1;
            per.query_run += query;
            per.query_max_energy += twin.query_max_energy;
            per.baselines += 1;
            per.baseline_run += baseline;
            per.baseline_max_energy += twin.baseline_max_energy;
            per.layers.lb.merge(&query_lb);
            per.layers.lb.merge(&baseline_lb);
            per.query_lb.merge(&query_lb);
        }
        per.untraced_wall = untraced;
        per.traced_wall = traced;
        per.emit(report);
        return;
    }

    let budget = Budget::start(opts.seconds);
    let mut first: Vec<PairOutcome> = Vec::new();
    let mut i = 0;
    while budget.more(i, HIERARCHIES as usize) {
        let p = match prepared.get(i) {
            Some(p) => p,
            None => {
                prepared.clear();
                prepared.push(prepare(&graph, hierarchy_seed(opts.seed, i as u64)).0);
                &prepared[0]
            }
        };
        let (outcome, query, baseline, _) = query_pair(p, &graph, &truth, false, report);
        e2e.record_pass(query + baseline, &[query + baseline]);
        if first.len() < HIERARCHIES as usize {
            first.push(outcome);
        }
        i += 1;
    }
    let query: u64 = first.iter().map(|o| o.query_max_energy).sum();
    let baseline: u64 = first.iter().map(|o| o.baseline_max_energy).sum();
    e2e.query_energy_ratio = query as f64 / baseline.max(1) as f64;
    e2e.emit(report);
}

/// One request: the query on a copy of `p`'s post-build stack, then the
/// baseline on a fresh stack. Returns the outcome, the two call durations,
/// and, when `traced`, the two runs' LB tallies.
fn query_pair(
    p: &Prepared,
    graph: &Arc<Graph>,
    truth: &[Dist],
    traced: bool,
    report: &mut Report,
) -> (PairOutcome, Duration, Duration, Option<(LbTally, LbTally)>) {
    let depth = (N - 1) as u64;
    let all = vec![true; N];
    let mut stack = p.stack.clone();
    let before = stack.energy_view();
    let mut baseline_stack = StackSpec::Abstract.build(Arc::clone(graph), p.seed);
    let (labels, query, query_lb) = timed(&mut stack, traced, |net| {
        recursive_bfs_with_hierarchy(net, &p.hierarchy, &[0], depth, &p.config, &[]).dist
    });
    let (base_labels, baseline, baseline_lb) = timed(&mut baseline_stack, traced, |net| {
        trivial_bfs(net, &[0], &all, depth).dist
    });
    let energy = stack.energy_view().diff(&before);
    report.check(labels_match(&labels, truth), || {
        format!(
            "recursive BFS (hierarchy seed {}) mislabels the path",
            p.seed
        )
    });
    report.check(labels_match(&base_labels, truth), || {
        format!("trivial BFS (stack seed {}) mislabels the path", p.seed)
    });
    let outcome = PairOutcome {
        query_calls: energy.lb_time(),
        query_max_energy: energy.max_lb_energy(),
        baseline_max_energy: baseline_stack.max_lb_energy(),
    };
    let tallies = query_lb.zip(baseline_lb);
    (outcome, query, baseline, tallies)
}

/// Times `f` on `stack`, wrapped in a [`TracedStack`] when `traced`.
fn timed<R>(
    stack: &mut Stack,
    traced: bool,
    f: impl FnOnce(&mut dyn RadioStack) -> R,
) -> (R, Duration, Option<LbTally>) {
    if traced {
        let mut net = TracedStack::new(stack);
        let start = Instant::now();
        let out = f(&mut net);
        let elapsed = start.elapsed();
        (out, elapsed, Some(net.into_tally()))
    } else {
        let start = Instant::now();
        let out = f(stack);
        (out, start.elapsed(), None)
    }
}
