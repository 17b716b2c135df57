//! The primary contribution of *The Energy Complexity of BFS in Radio
//! Networks* (Chang, Dani, Hayes, Pettie; PODC 2020), implemented on top of
//! the `radio-graph` / `radio-sim` / `radio-protocols` substrates:
//!
//! * [`zseq`] — the `Z`-sequence that schedules Special Updates (Section
//!   4.1) and its Lemma 4.2 properties.
//! * [`estimates`] — the per-cluster distance-estimate intervals
//!   `[L_i(C), U_i(C)]` and their Automatic / Special updates (Invariant
//!   4.1).
//! * [`recursive_bfs`](mod@recursive_bfs) — the recursive, sub-polynomial-energy BFS of
//!   Section 4 (Figure 2), together with the cluster-hierarchy construction
//!   it recurses through.
//! * [`baseline`] — the trivial wavefront BFS and the Decay-style
//!   everyone-listens BFS used as baselines, and the one wavefront loop
//!   they share with the recursion's stage advance.
//! * [`diameter`] — the energy-efficient diameter approximations of
//!   Section 5.1 (Theorems 5.3 and 5.4).
//! * [`hardness`] — executable versions of the lower-bound arguments of
//!   Section 5 (Theorems 5.1 and 5.2): hard-instance generators, the
//!   good-slot / `X_bad` counting, and the set-disjointness communication
//!   ledger.
//! * [`metrics`] — the per-stage statistics behind Claims 1 and 2 and
//!   Figure 3, and the table formatter the experiments print with. Energy
//!   is read off [`radio_protocols::EnergyView`] snapshots and their diffs.
//! * [`protocol`](mod@protocol) — the BFS drivers wrapped as first-class
//!   [`radio_protocols::Protocol`]s and the full [`registry`] resolving
//!   specs like `trivial_bfs`, `decay_bfs`, `recursive:b=8`, or
//!   `clustering:b=4` into runnable protocols.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod config;
pub mod diameter;
pub mod estimates;
pub mod hardness;
pub mod metrics;
pub mod protocol;
pub mod recursive_bfs;
pub mod zseq;

pub use config::RecursiveBfsConfig;
pub use metrics::RecursionStats;
pub use protocol::{registry, DecayBfsProtocol, RecursiveBfsProtocol, TrivialBfsProtocol};
pub use recursive_bfs::{build_hierarchy, recursive_bfs, recursive_bfs_with_hierarchy, BfsOutcome};
pub use zseq::ZSequence;
