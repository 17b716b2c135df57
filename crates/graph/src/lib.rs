//! Graph substrate for the reproduction of *The Energy Complexity of BFS in
//! Radio Networks* (Chang, Dani, Hayes, Pettie; PODC 2020).
//!
//! This crate contains everything that is "about graphs" and independent of
//! the radio-network communication model:
//!
//! * [`Graph`] — a compact, immutable CSR adjacency structure with a
//!   mutable [`GraphBuilder`].
//! * [`generators`] — the graph families used throughout the paper and its
//!   experiments: paths, cycles, grids, trees, complete graphs, `K_n − e`,
//!   Erdős–Rényi, random unit-disc graphs (the paper's sensor-field
//!   motivation), and more.
//! * [`bfs`] / [`diameter`] / [`components`] — centralized (non-distributed)
//!   BFS distances, eccentricities, the exact diameter, the paper's
//!   approximation envelopes and the connectivity check, used as ground
//!   truth by the tests and experiments.
//! * [`exponential`] — sampling from `Exponential(β)` with the paper's
//!   integral-`1/β` convention.
//! * [`mpx`] and [`cluster_graph`] — the Miller–Peng–Xu clustering of
//!   Section 2 in its centralized form, together with checkers for the
//!   distance-preservation lemmas (Lemmas 2.1–2.3).
//! * [`lower_bound`] — the set-disjointness lower-bound construction of
//!   Theorem 5.2.
//! * [`arboricity`] — exact degeneracy, which bounds arboricity within a
//!   factor of two and so validates the sparsity claims of the lower-bound
//!   graphs.
//! * [`dataset`] — shared immutable CSR datasets: deterministic generator
//!   outputs compiled once into content-addressed binary artifacts and
//!   bulk-read into `Arc<Graph>`s shared across worker pools, plus the
//!   opt-in Hilbert-curve grid layout.
//! * [`artifact`] — the on-disk artifact frame (header, checksum,
//!   validation, file names, atomic writes) shared by the dataset cache and
//!   the bench crate's result store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arboricity;
pub mod artifact;
pub mod bfs;
pub mod cluster_graph;
pub mod components;
pub mod dataset;
pub mod diameter;
pub mod exponential;
pub mod generators;
pub mod graph;
pub mod lower_bound;
pub mod mpx;

pub use cluster_graph::ClusterGraph;
pub use graph::{Graph, GraphBuilder, NodeId};
pub use mpx::{Clustering, MpxParams};

/// Distance value used by all shortest-path routines.
///
/// `u32::MAX` (see [`INFINITY`]) encodes "unreachable".
pub type Dist = u32;

/// Sentinel distance meaning "unreachable".
pub const INFINITY: Dist = u32::MAX;
