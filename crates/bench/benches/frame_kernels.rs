//! E6 bench: the word-parallel frame kernels in isolation, and the per-call
//! cost of a sparse Local-Broadcast on a large universe.
//!
//! Four groups:
//!
//! * `nodeset_kernels` — bulk [`NodeSet`] operations (`union_with`,
//!   `difference_with`, `count_intersection`) against a per-bit scalar
//!   reference, across universe sizes and fill densities. The kernels are
//!   what every hot loop in the simulator now calls, so their throughput
//!   bounds the per-slot cost of delivery resolution and decay bookkeeping.
//! * `delivery_resolution` — `step_frame_scan` vs `step_frame_columnar` on
//!   the same physical slot, at the two extremes the adaptive dispatch in
//!   `step_frame` arbitrates between: a handful of transmitters with the
//!   whole graph listening (columnar territory) and a dense transmitter set
//!   (scan territory).
//! * `sparse_lb_call` — one Local-Broadcast per iteration on a grid, with a
//!   single sender near the top of the id range and its grid neighbours
//!   listening, on the default abstract stack (ledger on), from n = 2^12 to
//!   2^20. This is HyperBall's call shape; since every frame set carries a
//!   two-sided occupied-word range, the time per call should stay flat in n
//!   (within 2x across the sizes) instead of growing with the sender's id.
//! * `abstract_lb_call` — the two call shapes of the recursive BFS on the
//!   abstract stack. `cast` is an up- or down-cast step: one sender and
//!   three receivers about ten words apart on a 2^12 path. `wavefront` is
//!   a trivial-BFS hop: one sender and every other node listening, on 2^12
//!   and 2^14 paths — dense listeners, sparse senders, where the sender
//!   walk costs the sender's degree instead of every listener's.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use radio_graph::generators;
use radio_protocols::{Msg, RadioStack, StackBuilder};
use radio_sim::{NodeSet, RadioNetwork, SlotFrame};

/// A deterministic set over `0..n` holding every `stride`-th element,
/// phase-shifted so two sets with different offsets overlap partially.
fn strided_set(n: usize, stride: usize, offset: usize) -> NodeSet {
    let mut s = NodeSet::new(n);
    let mut v = offset % stride.max(1);
    while v < n {
        s.insert(v);
        v += stride;
    }
    s
}

fn bench_nodeset_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("nodeset_kernels");
    group.sample_size(200);
    for &n in &[1024usize, 4096, 16384] {
        // stride 64 ≈ 1.6% full (sparse), stride 2 = 50% full (dense).
        for &(label, stride) in &[("sparse", 64usize), ("dense", 2)] {
            let a = strided_set(n, stride, 0);
            let b_set = strided_set(n, stride, stride / 2 + 1);
            let id = format!("{label}/{n}");

            group.bench_with_input(BenchmarkId::new("union_with", &id), &n, |b, _| {
                let mut dst = NodeSet::new(n);
                b.iter(|| {
                    dst.copy_from(&a);
                    dst.union_with(&b_set);
                    black_box(dst.len())
                });
            });
            group.bench_with_input(BenchmarkId::new("union_scalar_ref", &id), &n, |b, _| {
                let mut dst = NodeSet::new(n);
                b.iter(|| {
                    dst.copy_from(&a);
                    for v in b_set.iter() {
                        dst.insert(v);
                    }
                    black_box(dst.len())
                });
            });
            group.bench_with_input(BenchmarkId::new("difference_with", &id), &n, |b, _| {
                let mut dst = NodeSet::new(n);
                b.iter(|| {
                    dst.copy_from(&a);
                    dst.difference_with(&b_set);
                    black_box(dst.len())
                });
            });
            group.bench_with_input(BenchmarkId::new("count_intersection", &id), &n, |b, _| {
                b.iter(|| black_box(a.count_intersection(&b_set)))
            });
        }
    }
    group.finish();
}

/// One physical slot on a grid: `k` spread-out transmitters, everyone else
/// listening. Benchmarks both resolution paths on the identical frame so
/// the crossover the adaptive dispatch encodes is visible in wall-clock.
fn bench_delivery_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("delivery_resolution");
    group.sample_size(50);
    let side = 64usize;
    let n = side * side;
    let g = generators::grid(side, side);
    for &k in &[4usize, 64, 1024] {
        let mut frame: SlotFrame<u64> = SlotFrame::new(n);
        for i in 0..k {
            frame.transmit.insert(i * (n / k), i as u64);
        }
        for v in 0..n {
            if frame.transmit.get(v).is_none() {
                frame.listen.insert(v);
            }
        }
        group.bench_with_input(BenchmarkId::new("scan", k), &k, |b, _| {
            let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
            b.iter(|| {
                net.step_frame_scan(&mut frame);
                black_box(frame.received.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("columnar", k), &k, |b, _| {
            let mut net: RadioNetwork<u64> = RadioNetwork::new(g.clone());
            b.iter(|| {
                net.step_frame_columnar(&mut frame);
                black_box(frame.received.len())
            });
        });
    }
    group.finish();
}

/// One sparse Local-Broadcast per iteration: a sender in the grid's
/// second-to-last row (cycling over up to 64 of them) with its four
/// neighbours as receivers, on one reused frame — the id range a sparse
/// call touches sits at the top of the universe.
fn bench_sparse_lb_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_lb_call");
    group.sample_size(20_000);
    for log_n in [12u32, 14, 16, 18, 20] {
        let side = 1usize << (log_n / 2);
        let g = generators::grid(side, side);
        let senders: Vec<usize> = (1..side.min(65) - 1)
            .map(|col| (side - 2) * side + col)
            .collect();
        let neighbours: Vec<Vec<usize>> =
            senders.iter().map(|&u| g.neighbors(u).to_vec()).collect();
        let mut net = StackBuilder::new(g).build();
        let mut frame = net.new_frame();
        let msg = Msg::words(&[7]);
        let mut next = 0usize;
        group.bench_with_input(
            BenchmarkId::new("abstract_grid", format!("2^{log_n}")),
            &log_n,
            |b, _| {
                b.iter(|| {
                    let i = next % senders.len();
                    next += 1;
                    frame.clear();
                    frame.add_sender(senders[i], msg.clone());
                    for &v in &neighbours[i] {
                        frame.add_receiver(v);
                    }
                    net.local_broadcast(&mut frame);
                    black_box(frame.delivered().len())
                });
            },
        );
    }
    group.finish();
}

/// One abstract Local-Broadcast per iteration, refilling a reused frame
/// each time as the casts and the wavefront do.
fn bench_abstract_lb_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("abstract_lb_call");
    group.sample_size(2_000);
    for (shape, log_n) in [("cast", 12u32), ("wavefront", 12), ("wavefront", 14)] {
        let n = 1usize << log_n;
        // A cast step: the sender's neighbour and two nodes ten and twenty
        // words away listen. A wavefront hop: every other node listens.
        let (sender, listeners): (usize, Vec<usize>) = if shape == "cast" {
            (1000, vec![1001, 1641, 2281])
        } else {
            (n / 2, (0..n).filter(|&v| v != n / 2).collect())
        };
        let mut receivers = NodeSet::new(n);
        receivers.extend(listeners);
        let mut net = StackBuilder::new(generators::path(n)).build();
        let mut frame = net.new_frame();
        let msg = Msg::words(&[1, 7]);
        group.bench_with_input(BenchmarkId::new(shape, format!("2^{log_n}")), &n, |b, _| {
            b.iter(|| {
                frame.clear();
                frame.add_sender(sender, msg.clone());
                frame.set_receivers(&receivers);
                net.local_broadcast(&mut frame);
                black_box(frame.delivered().len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_nodeset_kernels,
    bench_delivery_resolution,
    bench_sparse_lb_call,
    bench_abstract_lb_call
);
criterion_main!(benches);
