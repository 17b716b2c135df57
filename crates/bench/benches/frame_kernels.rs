//! E6 bench: the word-parallel frame kernels in isolation, and the per-call
//! cost of a sparse Local-Broadcast on a large universe.
//!
//! Three groups:
//!
//! * `nodeset_kernels` — the bulk [`NodeSet`] kernel `difference_with`,
//!   across universe sizes and fill densities. Each Decay call and each
//!   virtual cluster-network call runs it once to take the senders out of
//!   the receiver set.
//! * `sparse_lb_call` — one Local-Broadcast per iteration on a grid, with a
//!   single sender near the top of the id range and its grid neighbours
//!   listening, on the default abstract stack (ledger on), from n = 2^12 to
//!   2^20. This is HyperBall's call shape; since every frame set carries a
//!   two-sided occupied-word range, the time per call should stay flat in n
//!   (within 2x across the sizes) instead of growing with the sender's id.
//! * `abstract_lb_call` — the call shapes of the recursive BFS on the
//!   abstract stack. `cast` is an up- or down-cast step: one sender and
//!   three receivers about ten words apart on a 2^12 path, copied in bulk.
//!   `wavefront` is a trivial-BFS hop: one sender and every other node
//!   listening, on 2^12 and 2^14 paths — dense listeners, sparse senders,
//!   where the sender walk costs the sender's degree instead of every
//!   listener's. `silent_cast` is the commonest up-cast step, four
//!   listeners spread over a 2^12 path and no sender, and `spread_cast` a
//!   cast step whose three senders and six listeners span a 2^14 path,
//!   both added one by one as the casts add them: the frame's participant
//!   lists make both cost their participants, not the span of the
//!   universe between them.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use radio_graph::generators;
use radio_protocols::{Msg, RadioStack, StackBuilder};
use radio_sim::NodeSet;

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

            group.bench_with_input(BenchmarkId::new("difference_with", &id), &n, |b, _| {
                let mut dst = NodeSet::new(n);
                b.iter(|| {
                    dst.copy_from(&a);
                    dst.difference_with(&b_set);
                    black_box(dst.len())
                });
            });
        }
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

/// One call shape of `abstract_lb_call`: `senders` send and `listeners`
/// listen on a path of `2^log_n` nodes, the listeners added one by one (as
/// the casts add them) or copied in bulk (as the wavefront copies them).
struct CallShape {
    name: &'static str,
    log_n: u32,
    senders: Vec<usize>,
    listeners: Vec<usize>,
    one_by_one: bool,
}

/// One abstract Local-Broadcast per iteration, refilling a reused frame
/// each time as the casts and the wavefront do.
fn bench_abstract_lb_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("abstract_lb_call");
    group.sample_size(2_000);
    let shape = |name, log_n, senders, listeners, one_by_one| CallShape {
        name,
        log_n,
        senders,
        listeners,
        one_by_one,
    };
    let all_but_middle = |n: usize| (0..n).filter(|&v| v != n / 2).collect::<Vec<_>>();
    let shapes = [
        // A cast step: the sender's neighbour and two nodes ten and twenty
        // words away listen.
        shape("cast", 12, vec![1000], vec![1001, 1641, 2281], false),
        // A wavefront hop: every other node listens.
        shape(
            "wavefront",
            12,
            vec![1 << 11],
            all_but_middle(1 << 12),
            false,
        ),
        shape(
            "wavefront",
            14,
            vec![1 << 13],
            all_but_middle(1 << 14),
            false,
        ),
        // A silent cast step (most up-cast steps): four listeners across
        // the universe and no sender.
        shape("silent_cast", 12, vec![], vec![5, 1030, 2055, 4090], true),
        // A spread cast step: three senders at the ends and the middle of
        // the universe, each with both neighbours listening.
        shape(
            "spread_cast",
            14,
            vec![10, 8_000, 16_370],
            vec![9, 11, 7_999, 8_001, 16_369, 16_371],
            true,
        ),
    ];
    for shape in shapes {
        let n = 1usize << shape.log_n;
        let mut receivers = NodeSet::new(n);
        receivers.extend(shape.listeners.iter().copied());
        let mut net = StackBuilder::new(generators::path(n)).build();
        let mut frame = net.new_frame();
        let msg = Msg::words(&[1, 7]);
        let id = BenchmarkId::new(shape.name, format!("2^{}", shape.log_n));
        group.bench_with_input(id, &n, |b, _| {
            b.iter(|| {
                frame.clear();
                for &s in &shape.senders {
                    frame.add_sender(s, msg.clone());
                }
                if shape.one_by_one {
                    for &r in &shape.listeners {
                        frame.add_receiver(r);
                    }
                } else {
                    frame.set_receivers(&receivers);
                }
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
    bench_sparse_lb_call,
    bench_abstract_lb_call
);
criterion_main!(benches);
