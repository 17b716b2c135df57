//! E12/E13 bench: the two diameter approximations on a fixed graph family.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use energy_bfs::diameter::{three_halves_approx_diameter, two_approx_diameter};
use energy_bfs::RecursiveBfsConfig;
use radio_graph::generators;
use radio_protocols::StackBuilder;

fn config() -> RecursiveBfsConfig {
    RecursiveBfsConfig {
        inv_beta: 8,
        max_depth: 1,
        seed: 70,
    }
}

fn bench_diameter(c: &mut Criterion) {
    let mut group = c.benchmark_group("diameter_approximation");
    group.sample_size(10);
    for &side in &[6usize, 8, 10] {
        group.bench_with_input(
            BenchmarkId::new("two_approx_grid", side),
            &side,
            |b, &side| {
                let g = generators::grid(side, side);
                b.iter(|| {
                    let mut net = StackBuilder::new(g.clone()).build();
                    two_approx_diameter(&mut net, &config())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("three_halves_grid", side),
            &side,
            |b, &side| {
                let g = generators::grid(side, side);
                b.iter(|| {
                    let mut net = StackBuilder::new(g.clone()).build();
                    three_halves_approx_diameter(&mut net, &config(), 7)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_diameter);
criterion_main!(benches);
