//! Slot-accurate simulator of the radio-network model (paper, Section 1.1)
//! with per-device energy metering, plus the Decay-based Local-Broadcast
//! primitive of Lemma 2.4.
//!
//! The model:
//!
//! * time is partitioned into discrete, globally synchronised slots;
//! * in each slot a device **idles** (free), **listens**, or **transmits**
//!   a message (both cost one unit of energy);
//! * a listener receives a message iff **exactly one** of its neighbours
//!   transmits in that slot; otherwise it hears nothing (the default), or —
//!   in the collision-detection variant used by the lower bounds — it can
//!   distinguish *silence* (no transmitter) from *noise* (two or more).
//!
//! The simulator puts no bound on message size: it models `RN[∞]`, in
//! which the paper's lower bounds hold, and payload sizes are the
//! protocols' concern (the workspace's tests record the longest `Msg`
//! each paper protocol sends, in 64-bit words). Every slot is resolved by
//! one coverage kernel: [`RadioNetwork::step_frame`] runs a slot of
//! [`run_devices`](device::run_devices), whose devices each act on their own
//! feedback, on a columnar [`SlotFrame`]; both Decay variants,
//! [`decay_local_broadcast`] and [`decay_local_broadcast_cd`], resolve
//! their slots from the transmitters' side.
//!
//! Layering: this crate knows nothing about clustering or BFS. Higher-level
//! algorithms are written against the Local-Broadcast abstraction in
//! `radio-protocols`, which can either run on this physical simulator (every
//! call expands into real Decay slots) or on an abstract backend that counts
//! Local-Broadcast participations directly, as the paper's analysis does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decay;
pub mod device;
pub mod energy;
pub mod frame;
pub mod model;
pub mod network;

pub use decay::{decay_local_broadcast, decay_local_broadcast_cd, DecayParams, DecayScratch};
pub use energy::{EnergyMeter, EnergyModel};
pub use frame::{NodeSet, NodeSlots, RoundFrame, SlotFrame};
pub use model::{Action, CollisionDetection, Feedback, LbFeedback};
pub use network::RadioNetwork;
