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
//! protocols' concern (`radio-protocols` measures its messages with
//! `Msg::bit_size`). Every slot runs through one entry point,
//! [`RadioNetwork::step_frame`], on a columnar [`SlotFrame`].
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
