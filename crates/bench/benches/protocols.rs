//! Protocol-registry bench: the dispatch overhead of the first-class
//! `Protocol` surface (spec resolution + capability gate + energy-diff
//! report) against the direct free-function call it wraps, plus the two
//! wavefront baselines side by side. Dispatch must be noise-level: the
//! report costs two `EnergyView` snapshots per run, everything else is a
//! vtable call.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use energy_bfs::baseline::trivial_bfs;
use energy_bfs::protocol::registry;
use radio_graph::generators;
use radio_protocols::protocol::ProtocolInput;
use radio_protocols::{RadioStack, StackBuilder};

fn bench_registry_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_registry");
    group.sample_size(20);
    for &n in &[256usize, 1024] {
        let side = (n as f64).sqrt() as usize;
        let g = generators::grid(side, side);
        group.bench_with_input(BenchmarkId::new("trivial_direct", n), &n, |b, _| {
            b.iter(|| {
                let mut net = StackBuilder::new(g.clone()).with_seed(1).build();
                let nodes = net.num_nodes();
                let active = vec![true; nodes];
                let result = trivial_bfs(&mut net, &[0], &active, nodes as u64);
                result.dist.iter().filter(|d| d.is_some()).count()
            });
        });
        group.bench_with_input(BenchmarkId::new("trivial_registry", n), &n, |b, _| {
            // Spec resolution inside the loop, as the scenario runner pays
            // it once per scenario — still noise next to the BFS itself.
            // Both arms allocate their frame per run.
            b.iter(|| {
                let protocol = registry().get("trivial_bfs").expect("registered");
                let mut net = StackBuilder::new(g.clone()).with_seed(1).build();
                let report = protocol
                    .run(&mut net, &ProtocolInput::from_seed(1))
                    .expect("capabilities satisfied");
                report.outcome()
            });
        });
        group.bench_with_input(BenchmarkId::new("decay_registry", n), &n, |b, _| {
            let mut frame = radio_protocols::LbFrame::new(g.num_nodes());
            b.iter(|| {
                let protocol = registry().get("decay_bfs").expect("registered");
                let mut net = StackBuilder::new(g.clone()).with_seed(1).build();
                let report = protocol
                    .run_with_frame(&mut net, &ProtocolInput::from_seed(1), &mut frame)
                    .expect("capabilities satisfied");
                report.outcome()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_registry_dispatch);
criterion_main!(benches);
