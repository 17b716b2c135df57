//! Quickstart: build a random sensor field, compute a BFS labelling with the
//! recursive sub-polynomial-energy algorithm, and compare its energy against
//! the always-on baseline.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use radio_energy::bfs::metrics::format_table;
use radio_energy::bfs::protocol::registry;
use radio_energy::bfs::{build_hierarchy, recursive_bfs_with_hierarchy, RecursiveBfsConfig};
use radio_energy::graph::bfs::bfs_distances;
use radio_energy::graph::generators;
use radio_energy::protocols::{EnergyView, ProtocolInput, RadioStack, StackBuilder};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2020);

    // A "National Park" sensor field: 800 sensors in a 40×40 square with
    // communication radius 2.2 (connected w.h.p. at this density).
    let (graph, _positions) = generators::connected_unit_disc(800, 40.0, 2.2, 200, &mut rng)
        .expect("could not sample a connected sensor field");
    let source = 0usize;
    let truth = bfs_distances(&graph, source);
    let depth = *truth.iter().max().unwrap() as u64;
    println!(
        "sensor field: {} sensors, {} links, eccentricity of the source = {depth}",
        graph.num_nodes(),
        graph.num_edges()
    );

    // Recursive BFS (Section 4 of the paper) on the Local-Broadcast-unit
    // accounting backend.
    let config = RecursiveBfsConfig::auto(graph.num_nodes(), depth).with_seed(7);
    println!(
        "recursive BFS parameters: 1/β = {}, recursion depth = {}, w ≈ {:.1}",
        config.inv_beta,
        config.max_depth,
        config.w(graph.num_nodes())
    );

    let mut net = StackBuilder::new(graph.clone()).build();
    let hierarchy = build_hierarchy(&mut net, &config);
    let setup = net.energy_view();
    let outcome =
        recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[source], depth, &config, &[]);
    let query = net.energy_view().diff(&setup);

    // Verify the labelling against the centralized reference.
    let mut correct = 0usize;
    for v in graph.nodes() {
        if outcome.dist[v] == Some(truth[v] as u64) {
            correct += 1;
        }
    }
    println!(
        "labelling: {correct}/{} vertices match the centralized BFS",
        graph.num_nodes()
    );

    // Baseline: the trivial always-listening wavefront BFS, dispatched
    // through the protocol registry — the same surface the scenario sweep
    // uses, so the report's energy view is directly comparable.
    let mut baseline_net = StackBuilder::new(graph.clone()).build();
    let report = registry()
        .get("trivial_bfs")
        .expect("registered")
        .run(
            &mut baseline_net,
            &ProtocolInput::from_seed(7)
                .with_sources(vec![source])
                .with_depth(depth),
        )
        .expect("abstract stacks satisfy every requirement");

    let row = |name: &str, energy: &EnergyView| {
        vec![
            name.to_string(),
            energy.max_lb_energy().to_string(),
            format!("{:.1}", energy.mean_lb_energy()),
            energy.lb_time().to_string(),
        ]
    };
    let rows = vec![
        row("recursive BFS (setup: clustering hierarchy)", &setup),
        row("recursive BFS (one query)", &query),
        row("trivial BFS baseline", &report.energy),
    ];
    println!();
    println!(
        "{}",
        format_table(
            &[
                "algorithm",
                "max energy (LB units)",
                "mean energy",
                "time (LB calls)"
            ],
            &rows
        )
    );
    println!(
        "Claim 1 check: the busiest vertex joined the wavefront set X_i in {} of {} stages.",
        outcome.stats.max_wavefront_memberships(),
        outcome.stats.stages
    );
    println!(
        "Note: at this small scale the absolute energy of the recursive algorithm is dominated \
         by its polylogarithmic factors; experiment E6 (cargo run -p radio-bench --bin \
         experiments --release -- e6) measures how the two curves scale with D."
    );
}
