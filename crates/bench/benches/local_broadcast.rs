//! E3 bench: wall-clock cost of the Decay Local-Broadcast (Lemma 2.4) on the
//! physical simulator as contention grows.
//!
//! The frame and the decay scratch are allocated once per size and reused
//! across iterations, as every hot caller does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use radio_bench::rng;
use radio_graph::generators;
use radio_sim::{
    decay_local_broadcast, decay_local_broadcast_cd, CollisionDetection, DecayParams, DecayScratch,
    RadioNetwork, RoundFrame,
};

fn bench_decay(c: &mut Criterion) {
    let mut group = c.benchmark_group("decay_local_broadcast");
    group.sample_size(20);
    for &n in &[16usize, 64, 256, 4096] {
        group.bench_with_input(BenchmarkId::new("star_all_senders", n), &n, |b, &n| {
            let g = generators::star(n);
            let params = DecayParams::for_network(n, n - 1);
            let mut frame: RoundFrame<u64> = RoundFrame::new(n);
            let mut scratch: DecayScratch<u64> = DecayScratch::new(n);
            let mut r = rng(300 + n as u64);
            b.iter(|| {
                let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
                frame.clear();
                for v in 1..n {
                    frame.add_sender(v, v as u64);
                }
                frame.add_receiver(0);
                decay_local_broadcast(&mut net, &mut frame, &mut scratch, params, &mut r)
            });
        });
    }
    group.finish();
}

/// CD-aware decay vs plain decay on a sparse instance (one sender on a
/// path, every other node listening). The CD variant resolves hopeless
/// receivers after one iteration and retires the sender via the echo slot,
/// so it simulates far fewer slots and spends far less energy (the saving
/// the `path-lbsweep-*` scenarios record). It is still the slower of the
/// two in wall-clock: every CD slot classifies every unresolved listener,
/// while a plain slot walks only its transmitter's neighbourhood and bills
/// each hopeless listener once per call (about 19 µs against 62 µs at
/// n = 4096 on a 2-vCPU VM, where the plain call took 3.8 ms when every
/// slot visited every listener).
fn bench_decay_cd(c: &mut Criterion) {
    let mut group = c.benchmark_group("decay_cd");
    group.sample_size(20);
    for &n in &[64usize, 256, 4096] {
        let g = generators::path(n);
        let params = DecayParams::for_network(n, 2);
        group.bench_with_input(BenchmarkId::new("path_no_cd", n), &n, |b, &n| {
            let mut frame: RoundFrame<u64> = RoundFrame::new(n);
            let mut scratch: DecayScratch<u64> = DecayScratch::new(n);
            let mut r = rng(400 + n as u64);
            b.iter(|| {
                let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
                frame.clear();
                frame.add_sender(0, 7u64);
                for v in 1..n {
                    frame.add_receiver(v);
                }
                decay_local_broadcast(&mut net, &mut frame, &mut scratch, params, &mut r)
            });
        });
        group.bench_with_input(BenchmarkId::new("path_cd", n), &n, |b, &n| {
            let mut frame: RoundFrame<u64> = RoundFrame::new(n);
            let mut scratch: DecayScratch<u64> = DecayScratch::new(n);
            let mut r = rng(400 + n as u64);
            b.iter(|| {
                let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone())
                    .with_collision_detection(CollisionDetection::Receiver);
                frame.clear();
                frame.add_sender(0, 7u64);
                for v in 1..n {
                    frame.add_receiver(v);
                }
                decay_local_broadcast_cd(&mut net, &mut frame, &mut scratch, params, &mut r)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decay, bench_decay_cd);
criterion_main!(benches);
