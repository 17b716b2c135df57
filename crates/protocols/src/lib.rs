//! Local-Broadcast-level protocol layer (paper, Sections 2.2 and 3).
//!
//! The paper analyses all of its algorithms in units of **calls to
//! Local-Broadcast**: "calling Local-Broadcast takes one unit of time, and
//! every participating vertex expends one unit of energy" (Section 4.3).
//! This crate provides that abstraction as the capability-typed
//! [`RadioStack`] trait (see [`stack`]) and one concrete [`Stack`], built
//! through [`StackBuilder`]. Every stack charges one unit of time per call
//! and one unit of energy per participation — the exact accounting of
//! Theorem 4.1 — whichever channel resolves the call:
//!
//! * the abstract channel follows the Local-Broadcast specification
//!   exactly and optionally injects delivery failures;
//! * the physical channel expands every call into real Decay slots on the
//!   `radio-sim` simulator (Lemma 2.4), so per-slot energy and collisions
//!   are fully modelled; with collision detection enabled it runs the
//!   CD-aware Decay variant and surfaces per-receiver verdicts through the
//!   frame's feedback lane.
//!
//! Each stack advertises a [`Capabilities`] descriptor (collision
//! detection, energy model, physical counters) and snapshots all of its
//! counters into one [`EnergyView`]: participations per node, calls, and
//! on physical stacks the slot-level counters.
//!
//! On top of the abstraction it implements the machinery of Sections 2.2–3:
//!
//! * [`clustering`] — the distributed MPX clustering of Lemma 2.5;
//! * [`cast`] — the Up-cast and Down-cast primitives of Lemma 3.1;
//! * [`cluster_net`] — the simulation of Local-Broadcast on the cluster
//!   graph `G*` (Lemma 3.2), itself a [`RadioStack`], which is what lets
//!   the recursive BFS of Section 4 call itself on `G*`;
//! * [`aggregate`] / [`broadcast`] — the Find-Minimum / Find-Maximum and
//!   layered broadcast subroutines used by the diameter algorithms of
//!   Section 5.1;
//! * [`protocol`] — the first-class [`Protocol`] trait and the
//!   [`ProtocolRegistry`] resolving string specs (`clustering:b=4`,
//!   `lb_sweep:r=16`, and — via `energy-bfs` — the BFS drivers) into boxed
//!   protocols with capability gating and unified [`ProtocolReport`]
//!   telemetry;
//! * [`sketch`] — HyperLogLog counters with word-parallel merge kernels
//!   and the HyperBall neighborhood-function protocol (`hyperball:p=6`),
//!   the sketch-based end of the distance-computation spectrum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod broadcast;
pub mod cast;
pub mod cluster_net;
pub mod clustering;
pub mod lb;
pub mod ledger;
pub mod message;
pub mod protocol;
pub mod sketch;
pub mod stack;

pub use cluster_net::VirtualClusterNet;
pub use clustering::{cluster_distributed, ClusterState, ClusteringConfig};
pub use lb::{local_broadcast_once, LbFrame};
pub use ledger::LbLedger;
pub use message::Msg;
pub use protocol::{
    Protocol, ProtocolError, ProtocolId, ProtocolInput, ProtocolOutput, ProtocolRegistry,
    ProtocolReport,
};
pub use sketch::{HllSketch, HyperballProtocol, SketchSummary};
pub use stack::{Capabilities, EnergyView, RadioStack, Stack, StackBuilder};
// Re-exported so protocol callers can build stacks and cast/sweep inputs
// without depending on `radio-sim` directly.
pub use radio_sim::{CollisionDetection, EnergyModel, LbFeedback, NodeSet, NodeSlots};
