//! The traced run's instruments: a forwarding [`RadioStack`] that counts
//! every Local-Broadcast call and times a sample of them, and the per-layer
//! accumulator the workloads fill around the library's public calls.
//!
//! Counts are exact and deterministic. Time inside `local_broadcast` is
//! sampled: one call in [`SAMPLE_EVERY`], chosen by a fixed-seed xorshift
//! stream, is bracketed by two `Instant::now()` reads, and the busy time is
//! scaled up by `calls / sampled`. Timing every call cost about a fifth of
//! the recursive query's wall time, which blurred the very split it was
//! meant to show.

use std::time::{Duration, Instant};

use radio_graph::Graph;
use radio_protocols::{Capabilities, EnergyView, LbFrame, RadioStack};

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Exact Local-Broadcast counts plus the sampled busy time.
#[derive(Clone, Debug, Default)]
pub struct LbTally {
    /// Calls issued.
    pub calls: u64,
    /// Senders plus receivers, summed over calls.
    pub touched: u64,
    /// Occupied-word watermarks of the sender, receiver and delivered sets
    /// after each call, summed over calls: the words a call's kernels scan.
    pub words: u64,
    /// Receivers, summed over calls.
    pub receivers: u64,
    /// Receivers that heard a message, summed over calls.
    pub delivered: u64,
    /// Calls whose duration was measured.
    pub sampled: u64,
    /// Total measured duration of the sampled calls.
    pub sampled_time: Duration,
}

impl LbTally {
    /// Adds `other`'s counts and samples to this tally.
    pub fn merge(&mut self, other: &LbTally) {
        self.calls += other.calls;
        self.touched += other.touched;
        self.words += other.words;
        self.receivers += other.receivers;
        self.delivered += other.delivered;
        self.sampled += other.sampled;
        self.sampled_time += other.sampled_time;
    }

    /// Estimated time inside `local_broadcast`: the sampled mean per call
    /// times the number of calls.
    pub fn busy(&self) -> Duration {
        if self.sampled == 0 {
            return Duration::ZERO;
        }
        self.sampled_time
            .mul_f64(self.calls as f64 / self.sampled as f64)
    }
}

/// A transparent [`RadioStack`] wrapper: every trait method forwards to the
/// wrapped stack, so protocols see the same capabilities, energy view,
/// topology and `global_n`, and produce byte-identical records.
pub struct TracedStack<'a> {
    inner: &'a mut dyn RadioStack,
    tally: LbTally,
    sampler: u64,
}

impl<'a> TracedStack<'a> {
    /// Wraps `inner` with an empty tally.
    pub fn new(inner: &'a mut dyn RadioStack) -> Self {
        TracedStack {
            inner,
            tally: LbTally::default(),
            sampler: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Ends the wrap, returning the counts.
    pub fn into_tally(self) -> LbTally {
        self.tally
    }

    fn sample_this_call(&mut self) -> bool {
        let mut x = self.sampler;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler = x;
        x.is_multiple_of(SAMPLE_EVERY)
    }
}

impl RadioStack for TracedStack<'_> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn global_n(&self) -> usize {
        self.inner.global_n()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn local_broadcast(&mut self, frame: &mut LbFrame) {
        if self.sample_this_call() {
            let start = Instant::now();
            self.inner.local_broadcast(frame);
            self.tally.sampled_time += start.elapsed();
            self.tally.sampled += 1;
        } else {
            self.inner.local_broadcast(frame);
        }
        let t = &mut self.tally;
        let (senders, receivers, delivered) =
            (frame.senders(), frame.receivers(), frame.delivered());
        t.calls += 1;
        t.touched += (senders.len() + receivers.len()) as u64;
        t.words += (senders.keys().watermark()
            + receivers.watermark()
            + delivered.keys().watermark()) as u64;
        t.receivers += receivers.len() as u64;
        t.delivered += delivered.len() as u64;
    }

    fn lb_energy(&self, v: usize) -> u64 {
        self.inner.lb_energy(v)
    }

    fn lb_time(&self) -> u64 {
        self.inner.lb_time()
    }

    fn max_lb_energy(&self) -> u64 {
        self.inner.max_lb_energy()
    }

    fn energy_view(&self) -> EnergyView {
        self.inner.energy_view()
    }

    fn new_frame(&self) -> LbFrame {
        self.inner.new_frame()
    }

    fn topology(&self) -> Option<&Graph> {
        self.inner.topology()
    }
}

/// Host time and counts per layer, filled by a traced run around the
/// library's public calls. Each field names the call it brackets.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `DatasetCache::load_or_build` calls in the traced pass.
    pub dataset_timed_loads: u64,
    /// `StackSpec::build`.
    pub stack_build: Duration,
    /// Stacks built.
    pub stack_builds: u64,
    /// `Protocol::run_with_frame`.
    pub protocol_run: Duration,
    /// Protocol runs.
    pub protocol_runs: u64,
    /// LB calls made inside `Protocol::run_with_frame`.
    pub protocol_lb: LbTally,
    /// Every LB call of the traced pass (protocol runs, queries, baselines).
    pub lb: LbTally,
    /// One cell from stack build to finished record, summed over cells.
    pub cells: Duration,
    /// Runner wall time per scenario, summed.
    pub runner_wall: Duration,
    /// Worker threads the runner was given.
    pub runner_threads: usize,
    /// `ResultStore::get`.
    pub store_get: Duration,
    /// Gets issued.
    pub store_gets: u64,
    /// Gets whose duration `store_get` holds.
    pub store_timed_gets: u64,
    /// Gets answered by the hot set.
    pub store_hot_hits: u64,
    /// `ResultStore::put`.
    pub store_put: Duration,
    /// Puts issued.
    pub store_puts: u64,
    /// Artifact bytes in the store after the pass.
    pub store_bytes: u64,
    /// `record_json_object`.
    pub json_encode: Duration,
    /// Records encoded.
    pub json_records: u64,
}

impl Layers {
    /// Adds one traced cell's stack build, protocol run and LB counts.
    pub(crate) fn add_cell(&mut self, cell: &CellTrace) {
        self.stack_build += cell.stack_build;
        self.stack_builds += 1;
        self.protocol_run += cell.protocol_run;
        self.protocol_runs += 1;
        self.protocol_lb.merge(&cell.lb);
        self.lb.merge(&cell.lb);
        self.cells += cell.total;
    }
}

/// What one traced cell measured.
#[derive(Clone, Debug, Default)]
pub(crate) struct CellTrace {
    /// `StackSpec::build`.
    pub stack_build: Duration,
    /// `Protocol::run_with_frame`.
    pub protocol_run: Duration,
    /// LB calls of the protocol run.
    pub lb: LbTally,
    /// The whole cell, stack build to record.
    pub total: Duration,
}
