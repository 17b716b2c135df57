//! Core types of the radio-network model: per-slot actions, channel
//! feedback, and the collision-detection switch.
//!
//! A message is any `M: Clone`, and the simulator puts no bound on its
//! size: it models `RN[∞]`, in which the paper's lower bounds hold. The
//! algorithms' `O(log n)`-bit payloads run in it unchanged; how many bits
//! a payload takes is the protocol's concern (the workspace's tests record
//! the longest `Msg` each paper protocol sends, in 64-bit words).

/// What a device does in one slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action<M> {
    /// Transceiver off; costs no energy.
    Idle,
    /// Listen to the channel; costs one unit of energy.
    Listen,
    /// Transmit `M`; costs one unit of energy.
    Transmit(M),
}

/// What a listening device hears in one slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Feedback<M> {
    /// Exactly one neighbour transmitted; the message was received.
    Received(M),
    /// No feedback. Without collision detection this is everything other
    /// than a successful reception; with collision detection it never
    /// occurs (the listener always learns silence/noise/reception).
    Nothing,
    /// Collision detection only: no neighbour transmitted.
    Silence,
    /// Collision detection only: two or more neighbours transmitted.
    Noise,
}

/// Per-call channel verdict for one receiver of a Local-Broadcast, as
/// surfaced through the round frame's feedback lane.
///
/// Backends without collision detection leave the lane empty (a receiver
/// learns nothing beyond its `delivered` entry). Collision-detection-capable
/// backends record, for every receiver, what the channel revealed over the
/// whole call — which is what lets protocols branch on CD. A
/// [`LbFeedback::Silence`] verdict proves the receiver had no sending
/// neighbour *in that call*; what that licenses is protocol-specific (for
/// an exact wavefront BFS a single silence only rules out the one distance
/// that call would have settled anyway — the sound exploitations are
/// `Noise`-as-information and all-silent-round termination, see
/// `energy-bfs`'s `trivial_bfs_cd`), while a [`LbFeedback::Noise`] verdict
/// proves a sending neighbour existed even though nothing was decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbFeedback {
    /// A message was received (it is in the frame's `delivered` arena).
    Delivered,
    /// The channel was provably free of sending neighbours: the receiver
    /// observed silence in every slot of a full decay iteration (physical
    /// backend), or has no sender in its neighbourhood (abstract backend).
    Silence,
    /// Channel activity was detected but no message was decoded (collisions
    /// throughout, or an injected delivery failure on the abstract backend).
    Noise,
}

/// Whether listeners can distinguish silence from collisions.
///
/// The paper's algorithms assume the weakest model (no collision detection);
/// its lower bounds are proved even with receiver-side collision detection,
/// so the simulator supports both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CollisionDetection {
    /// Listeners receive [`Feedback::Nothing`] unless exactly one neighbour
    /// transmits. This is the paper's default model.
    #[default]
    None,
    /// Listeners can distinguish [`Feedback::Silence`] (zero transmitters)
    /// from [`Feedback::Noise`] (two or more).
    Receiver,
}

impl CollisionDetection {
    /// Whether receiver-side collision detection is available.
    pub fn is_receiver(&self) -> bool {
        matches!(self, CollisionDetection::Receiver)
    }
}
