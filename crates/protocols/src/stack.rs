//! The capability-typed `RadioStack` API: one trait surface for
//! Local-Broadcast, energy accounting, and collision detection, and the one
//! concrete stack that implements it.
//!
//! [`RadioStack`] is what every protocol, BFS driver and experiment is
//! written against. Beyond Local-Broadcast itself it offers:
//!
//! * a [`Capabilities`] descriptor — what the stack can do (collision
//!   detection: none or receiver-side; energy model: `listen = transmit` or
//!   weighted; whether slot-level physical counters exist) — so generic
//!   code can branch on capabilities instead of downcasting;
//! * one [`EnergyView`] snapshot/diff API: one call captures the LB-unit
//!   counters (participations per node, calls overall) and, on physical
//!   stacks, the slot-level counters, and `view.diff(&earlier)` measures
//!   any phase of a longer run under any energy model;
//! * per-call channel feedback surfaced through the frame's feedback lane
//!   (`LbFrame::feedback`), so protocols running on a CD-capable stack can
//!   branch on [`radio_sim::LbFeedback`] verdicts.
//!
//! [`Stack`] is the one concrete implementation: an abstract or a physical
//! channel under one ledger. [`crate::VirtualClusterNet`] layers a virtual
//! stack over any parent.
//!
//! [`StackBuilder`] is the one way examples, tests, and the scenario runner
//! construct stacks:
//!
//! ```
//! use radio_protocols::{RadioStack, StackBuilder};
//! use radio_sim::EnergyModel;
//!
//! let g = radio_graph::generators::grid(4, 4);
//! // The paper's LB-unit accounting:
//! let mut abstract_stack = StackBuilder::new(g.clone()).build();
//! // A slot-accurate physical stack with receiver-side CD and a radio
//! // whose transmissions cost 3x a listen:
//! let mut cd_stack = StackBuilder::new(g)
//!     .physical(EnergyModel::Weighted { listen: 1, transmit: 3 })
//!     .with_cd()
//!     .with_seed(42)
//!     .build();
//! assert!(cd_stack.capabilities().collision_detection.is_receiver());
//! let view = cd_stack.energy_view();
//! assert_eq!(view.max_lb_energy(), 0);
//! # let _ = abstract_stack.new_frame();
//! ```

use std::sync::Arc;

use radio_graph::Graph;
use radio_sim::{
    decay_local_broadcast, decay_local_broadcast_cd, CollisionDetection, DecayParams, DecayScratch,
    EnergyModel, LbFeedback, NodeSet, RadioNetwork,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::lb::LbFrame;
use crate::ledger::LbLedger;
use crate::message::Msg;

/// What a [`RadioStack`] is capable of — the coordinates of the channel ×
/// collision-detection × energy-model matrix (see ARCHITECTURE.md for the
/// full table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// Whether receivers can distinguish silence from collisions, i.e.
    /// whether the frame's feedback lane is populated after a call.
    pub collision_detection: CollisionDetection,
    /// How listening/transmitting slots convert into physical energy.
    /// Always [`EnergyModel::Uniform`] on abstract stacks (LB units have no
    /// slot-level structure to weight).
    pub energy_model: EnergyModel,
    /// Whether slot-level counters exist ([`EnergyView::physical_energy`]
    /// returns `Some`): true exactly for Decay-expanding physical stacks.
    pub physical: bool,
}

impl Capabilities {
    /// The empty requirement/weakest capability set: no collision detection,
    /// uniform energy model, no physical counters. As a
    /// [`crate::protocol::Protocol::requires`] descriptor this means "runs
    /// on any stack"; every concrete stack satisfies it.
    pub fn baseline() -> Self {
        Capabilities {
            collision_detection: CollisionDetection::None,
            energy_model: EnergyModel::Uniform,
            physical: false,
        }
    }

    /// Whether a stack with these capabilities satisfies `required`,
    /// interpreting `required` field-wise as lower bounds: receiver-side
    /// collision detection and physical counters are required only when set
    /// in `required`; the energy model is descriptive, never a requirement
    /// (any model satisfies any other).
    ///
    /// ```
    /// use radio_protocols::{Capabilities, CollisionDetection, RadioStack, StackBuilder};
    ///
    /// let needs_cd = Capabilities {
    ///     collision_detection: CollisionDetection::Receiver,
    ///     ..Capabilities::baseline()
    /// };
    /// let g = radio_graph::generators::path(3);
    /// let plain = StackBuilder::new(g.clone()).build();
    /// let cd = StackBuilder::new(g).with_cd().build();
    /// assert!(!plain.capabilities().satisfies(&needs_cd));
    /// assert!(cd.capabilities().satisfies(&needs_cd));
    /// assert!(cd.capabilities().satisfies(&Capabilities::baseline()));
    /// ```
    pub fn satisfies(&self, required: &Capabilities) -> bool {
        (!required.collision_detection.is_receiver() || self.collision_detection.is_receiver())
            && (!required.physical || self.physical)
    }

    /// A human-readable rendering of these capabilities *as a requirement*,
    /// for [`crate::protocol::ProtocolError::MissingCapability`] messages.
    /// Every required component is named, so the message points at the
    /// right builder call whichever field actually failed the gate.
    pub fn requirement_label(&self) -> String {
        let mut parts = Vec::new();
        if self.collision_detection.is_receiver() {
            parts.push("receiver-side collision detection (build the stack `with_cd()`)");
        }
        if self.physical {
            parts.push("slot-level physical counters (a `physical(...)` stack)");
        }
        if parts.is_empty() {
            "no particular capabilities".to_string()
        } else {
            parts.join(" plus ")
        }
    }

    /// A compact label, e.g. `abstract`, `physical`, `physical_cd` — used by
    /// scenario records and capability tables.
    pub fn label(&self) -> String {
        let base = if self.physical {
            "physical"
        } else {
            "abstract"
        };
        match self.collision_detection {
            CollisionDetection::None => base.to_string(),
            CollisionDetection::Receiver => format!("{base}_cd"),
        }
    }
}

/// An owned snapshot of a stack's energy/time counters: per-node
/// Local-Broadcast participations and the call count, plus — on
/// physically-capable stacks — slot-level counters.
///
/// Snapshots are cheap (one or three `Vec<u64>` copies), order totally by
/// time, and subtract: `later.diff(&earlier)` isolates one phase of a run,
/// node by node.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyView {
    lb_participations: Vec<u64>,
    lb_calls: u64,
    physical: Option<PhysicalCounters>,
    energy_model: EnergyModel,
}

/// Slot-level counters of a physical stack.
#[derive(Clone, Debug, PartialEq)]
struct PhysicalCounters {
    listen: Vec<u64>,
    transmit: Vec<u64>,
    slots: u64,
}

impl EnergyView {
    /// A view holding only LB-unit counters (what the default
    /// [`RadioStack::energy_view`] produces).
    pub fn lb_only(participations: Vec<u64>, calls: u64) -> Self {
        EnergyView {
            lb_participations: participations,
            lb_calls: calls,
            physical: None,
            energy_model: EnergyModel::Uniform,
        }
    }

    /// Extends an LB-only view with slot-level counters under `model`.
    pub fn with_physical(
        mut self,
        listen: Vec<u64>,
        transmit: Vec<u64>,
        slots: u64,
        model: EnergyModel,
    ) -> Self {
        assert_eq!(listen.len(), self.lb_participations.len());
        assert_eq!(transmit.len(), self.lb_participations.len());
        self.physical = Some(PhysicalCounters {
            listen,
            transmit,
            slots,
        });
        self.energy_model = model;
        self
    }

    /// Number of nodes covered.
    pub fn nodes(&self) -> usize {
        self.lb_participations.len()
    }

    /// The energy model slot-level counters are weighted under.
    pub fn energy_model(&self) -> EnergyModel {
        self.energy_model
    }

    /// Energy of node `v` in LB units (calls participated in).
    pub fn lb_energy(&self, v: usize) -> u64 {
        self.lb_participations[v]
    }

    /// Time in LB units (total calls).
    pub fn lb_time(&self) -> u64 {
        self.lb_calls
    }

    /// Maximum per-node LB-unit energy — the paper's energy measure.
    pub fn max_lb_energy(&self) -> u64 {
        self.lb_participations.iter().copied().max().unwrap_or(0)
    }

    /// Sum of LB-unit energy over all nodes.
    pub fn total_lb_energy(&self) -> u64 {
        self.lb_participations.iter().sum()
    }

    /// Mean per-node LB-unit energy.
    pub fn mean_lb_energy(&self) -> f64 {
        if self.nodes() == 0 {
            0.0
        } else {
            self.total_lb_energy() as f64 / self.nodes() as f64
        }
    }

    /// Whether slot-level counters are present.
    pub fn has_physical(&self) -> bool {
        self.physical.is_some()
    }

    /// Physical energy of node `v` under the view's energy model (equals
    /// listening + transmitting slots under [`EnergyModel::Uniform`]), or
    /// `None` on LB-only views.
    pub fn physical_energy(&self, v: usize) -> Option<u64> {
        self.physical
            .as_ref()
            .map(|p| self.energy_model.cost(p.listen[v], p.transmit[v]))
    }

    /// Maximum per-node physical energy, when available.
    pub fn max_physical_energy(&self) -> Option<u64> {
        self.physical.as_ref().map(|p| {
            (0..p.listen.len())
                .map(|v| self.energy_model.cost(p.listen[v], p.transmit[v]))
                .max()
                .unwrap_or(0)
        })
    }

    /// Elapsed physical slots, when available.
    pub fn physical_slots(&self) -> Option<u64> {
        self.physical.as_ref().map(|p| p.slots)
    }

    /// Raw listening slots of node `v` (model-independent), or `None` on
    /// LB-only views. Together with [`EnergyView::transmit_slots`] this
    /// exposes the counters [`EnergyView::physical_energy`] weights, so
    /// tests can recompute `listen_w · listens + transmit_w · transmits`
    /// independently.
    pub fn listen_slots(&self, v: usize) -> Option<u64> {
        self.physical.as_ref().map(|p| p.listen[v])
    }

    /// Raw transmitting slots of node `v` (model-independent), or `None`
    /// on LB-only views.
    pub fn transmit_slots(&self, v: usize) -> Option<u64> {
        self.physical.as_ref().map(|p| p.transmit[v])
    }

    /// Sum of per-node physical energy under the view's model, when
    /// available.
    pub fn total_physical_energy(&self) -> Option<u64> {
        self.physical.as_ref().map(|p| {
            (0..p.listen.len())
                .map(|v| self.energy_model.cost(p.listen[v], p.transmit[v]))
                .sum()
        })
    }

    /// The counter-wise difference `self − before`, for measuring one phase
    /// of a longer run (e.g. query energy after setup energy). Nodes are
    /// subtracted one by one, so the phase's [`EnergyView::max_lb_energy`]
    /// is the largest per-node difference, not a difference of maxima.
    /// Counters are monotone, so ordinary subtraction applies; panics if the
    /// views cover different node universes.
    ///
    /// ```
    /// use radio_protocols::{local_broadcast_once, Msg, RadioStack, StackBuilder};
    ///
    /// // Path 0-1-2-3: a setup call busies node 1, a query call spares it.
    /// let mut stack = StackBuilder::new(radio_graph::generators::path(4)).build();
    /// local_broadcast_once(&mut stack, &[(0, Msg::words(&[1]))], &[1]);
    /// local_broadcast_once(&mut stack, &[(2, Msg::words(&[2]))], &[1]);
    /// let setup = stack.energy_view();
    /// local_broadcast_once(&mut stack, &[(2, Msg::words(&[3]))], &[3]);
    /// let query = stack.energy_view().diff(&setup);
    /// assert_eq!(query.lb_time(), 1);
    /// assert_eq!(query.lb_energy(1), 0);
    /// // The largest per-node difference, not 2 − 2 of the run maxima.
    /// assert_eq!(query.max_lb_energy(), 1);
    /// assert_eq!(stack.max_lb_energy(), setup.max_lb_energy());
    /// ```
    pub fn diff(&self, before: &EnergyView) -> EnergyView {
        assert_eq!(self.nodes(), before.nodes(), "view universe mismatch");
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| x.saturating_sub(*y)).collect()
        };
        EnergyView {
            lb_participations: sub(&self.lb_participations, &before.lb_participations),
            lb_calls: self.lb_calls.saturating_sub(before.lb_calls),
            physical: match (&self.physical, &before.physical) {
                (Some(a), Some(b)) => Some(PhysicalCounters {
                    listen: sub(&a.listen, &b.listen),
                    transmit: sub(&a.transmit, &b.transmit),
                    slots: a.slots.saturating_sub(b.slots),
                }),
                (a, _) => a.clone(),
            },
            energy_model: self.energy_model,
        }
    }
}

/// A network on which Local-Broadcast can be invoked — the one trait
/// surface every protocol, BFS driver, and experiment is written against.
///
/// Node identifiers are `0..num_nodes()`. `global_n()` is the common upper
/// bound "n" that all devices agree on (used for `w.h.p.` parameters); for
/// virtual cluster networks it remains the size of the *original* network,
/// as in the paper.
///
/// The trait is deliberately object-safe: the recursive BFS builds virtual
/// networks on top of virtual networks to an arbitrary, runtime-chosen
/// depth, so composition happens through `&mut dyn RadioStack` rather than
/// through generics. The concrete [`Stack`] is built with
/// [`StackBuilder`]; [`crate::VirtualClusterNet`] layers a virtual stack
/// over any parent.
pub trait RadioStack {
    /// Number of nodes in this (possibly virtual) network.
    fn num_nodes(&self) -> usize;

    /// The globally agreed upper bound `n ≥ |V|` of the underlying radio
    /// network; all polylogarithmic parameters are functions of this.
    fn global_n(&self) -> usize;

    /// What this stack can do. Protocols branch on this — e.g.
    /// [`crate::lb::local_broadcast_once`] works everywhere, while a
    /// CD-aware protocol checks `capabilities().collision_detection` before
    /// reading the frame's feedback lane.
    fn capabilities(&self) -> Capabilities;

    /// Executes one Local-Broadcast over `frame`: senders and receivers are
    /// read from the frame, and the message each receiver heard (if any) is
    /// written into `frame.delivered()` (cleared on entry). On CD-capable
    /// stacks, per-receiver verdicts additionally land in
    /// `frame.feedback()`.
    fn local_broadcast(&mut self, frame: &mut LbFrame);

    /// Energy of node `v` in Local-Broadcast units (number of calls on this
    /// network in which `v` participated).
    fn lb_energy(&self, v: usize) -> u64;

    /// Time in Local-Broadcast units (number of calls on this network).
    fn lb_time(&self) -> u64;

    /// Maximum per-node energy in Local-Broadcast units.
    fn max_lb_energy(&self) -> u64 {
        (0..self.num_nodes())
            .map(|v| self.lb_energy(v))
            .max()
            .unwrap_or(0)
    }

    /// An owned snapshot of all energy/time counters. The default
    /// implementation captures LB units only; [`Stack`] overrides it to
    /// include slot-level counters when its channel is physical, so one
    /// call sees everything.
    fn energy_view(&self) -> EnergyView {
        EnergyView::lb_only(
            (0..self.num_nodes()).map(|v| self.lb_energy(v)).collect(),
            self.lb_time(),
        )
    }

    /// Allocates a frame sized for this network. Callers should hold on to
    /// it and `clear`/refill across calls rather than allocating per call.
    fn new_frame(&self) -> LbFrame {
        LbFrame::new(self.num_nodes())
    }

    /// The simulator's bird's-eye view of the topology, when this stack
    /// has a concrete one. Protocols in the paper's KT1 setting (every
    /// node knows its neighbors) use it to precompute schedules — e.g.
    /// HyperBall targeting each sender's neighborhood instead of the whole
    /// vertex set. Virtual stacks return `None` (the default): their node
    /// ids do not name vertices of any concrete graph, and callers must
    /// fall back to all-node receiver sets.
    fn topology(&self) -> Option<&Graph> {
        None
    }
}

/// The one way to construct a [`Stack`].
///
/// Defaults: the abstract channel (the paper's LB-unit accounting: one unit
/// of time per call, one unit of energy per participation — the exact
/// accounting of Theorem 4.1), no collision detection, uniform energy
/// model, seed 0. Every stack keeps a per-node ledger of its
/// Local-Broadcast calls, and its globally known `n` is `|V|`.
#[derive(Clone, Debug)]
pub struct StackBuilder {
    graph: Arc<Graph>,
    /// `Some(model)` selects the physical channel under that model.
    physical: Option<EnergyModel>,
    cd: CollisionDetection,
    seed: u64,
    failure_prob: f64,
    decay: Option<DecayParams>,
}

impl StackBuilder {
    /// Starts a builder over `graph` with the defaults above.
    ///
    /// Accepts either an owned [`Graph`] or an `Arc<Graph>`; pass a shared
    /// `Arc` when many stacks are built over one topology (e.g. the sweep
    /// runner's per-seed cells) so construction is a refcount bump rather
    /// than a CSR copy.
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        StackBuilder {
            graph: graph.into(),
            physical: None,
            cd: CollisionDetection::None,
            seed: 0,
            failure_prob: 0.0,
            decay: None,
        }
    }

    /// Selects the physical channel under the given energy model: every
    /// call expands into Decay slots (Lemma 2.4) on the slot-accurate
    /// simulator, so collisions and per-slot energy are fully modelled.
    pub fn physical(mut self, model: EnergyModel) -> Self {
        self.physical = Some(model);
        self
    }

    /// Enables receiver-side collision detection. On the physical channel
    /// Local-Broadcast switches to the CD-aware Decay variant
    /// ([`radio_sim::decay_local_broadcast_cd`]); on both channels the
    /// frame's feedback lane carries per-receiver verdicts after each call.
    pub fn with_cd(mut self) -> Self {
        self.cd = CollisionDetection::Receiver;
        self
    }

    /// Seeds the stack's RNG (tie-breaking and failure draws on the
    /// abstract channel; Decay slot draws on the physical one).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-receiver delivery failure probability `f` injected by
    /// the abstract channel (the physical channel's failures arise from
    /// real collisions instead).
    pub fn with_failures(mut self, failure_prob: f64) -> Self {
        assert!((0.0..1.0).contains(&failure_prob));
        self.failure_prob = failure_prob;
        self
    }

    /// Overrides the physical channel's Decay parameters (defaults to
    /// `Δ` = max degree, `f = n^{-3}`).
    pub fn with_decay_params(mut self, decay: DecayParams) -> Self {
        self.decay = Some(decay);
        self
    }

    /// Builds the stack.
    ///
    /// Panics if injected failures were requested on the physical channel
    /// (its losses arise from real collisions; silently dropping the
    /// configured probability would mislabel a reliable run as lossy).
    pub fn build(self) -> Stack {
        let n = self.graph.num_nodes();
        let channel = match self.physical {
            None => Channel::Abstract {
                failure_prob: self.failure_prob,
                pick_buf: Vec::new(),
                reached: NodeSet::new(n),
            },
            Some(model) => {
                assert!(
                    self.failure_prob == 0.0,
                    "with_failures is an abstract-channel knob; the physical channel's \
                     failures come from real collisions"
                );
                let decay = self.decay.unwrap_or_else(|| {
                    DecayParams::for_network(n.max(2), self.graph.max_degree().max(1))
                });
                Channel::Physical(Box::new(PhysicalChannel {
                    net: RadioNetwork::new(Arc::clone(&self.graph))
                        .with_collision_detection(self.cd),
                    model,
                    decay,
                    scratch: DecayScratch::new(n),
                }))
            }
        };
        Stack {
            graph: self.graph,
            global_n: n.max(2),
            cd: self.cd,
            ledger: LbLedger::new(n),
            rng: ChaCha8Rng::seed_from_u64(self.seed),
            channel,
        }
    }
}

/// The one concrete [`RadioStack`], produced by [`StackBuilder::build`].
///
/// Every stack charges its [`LbLedger`] one unit per participation and
/// one unit of time per call, whatever resolves the call underneath:
///
/// * the **abstract** channel follows the Local-Broadcast specification
///   exactly — every receiver with a sending neighbour hears one of them,
///   picked uniformly — optionally losing each delivery with an injected
///   probability `f`. With collision detection, a receiver with no sending
///   neighbour reads `Silence` and a lost delivery reads `Noise`. Each call
///   finds the receivers with a sending neighbour by one of two walks: if
///   the senders' degrees sum to less than the receiver count, it marks
///   `N(S) ∩ R` from the senders' side in `O(Σ deg(S))` plus the words the
///   marks span, however many receivers listen; otherwise it scans every
///   receiver's adjacency in `O(Σ_{r∈R} deg(r))`. Either walk visits those
///   receivers in ascending order, and each draws its failure coin and
///   then its pick — receivers without a sending neighbour draw nothing —
///   so the RNG stream and every outcome are the same whichever walk ran.
///   With collision detection, one pass over `R` then gives `Silence` to
///   every receiver left without a verdict;
/// * the **physical** channel expands every call into Decay slots
///   (Lemma 2.4) on the `radio-sim` simulator, so collisions and per-slot
///   energy are fully modelled. With collision detection it runs the
///   CD-aware Decay variant ([`radio_sim::decay_local_broadcast_cd`]),
///   which retires hopeless receivers after one iteration and idle senders
///   once their neighbourhoods resolve.
#[derive(Clone, Debug)]
pub struct Stack {
    graph: Arc<Graph>,
    global_n: usize,
    cd: CollisionDetection,
    ledger: LbLedger,
    /// Failure coins and sender picks on the abstract channel; Decay slot
    /// draws on the physical one.
    rng: ChaCha8Rng,
    channel: Channel,
}

/// What resolves a [`Stack`]'s Local-Broadcast calls.
#[derive(Clone, Debug)]
enum Channel {
    Abstract {
        failure_prob: f64,
        /// Per-receiver scratch: the sending neighbours found in the single
        /// CSR pass, so the uniform pick indexes the buffer instead of
        /// re-scanning.
        pick_buf: Vec<usize>,
        /// The sender walk's scratch: the receivers with a sending
        /// neighbour, `N(S) ∩ R`.
        reached: NodeSet,
    },
    /// Boxed: the slot simulator and the Decay scratch dwarf the rest of
    /// the stack.
    Physical(Box<PhysicalChannel>),
}

#[derive(Clone, Debug)]
struct PhysicalChannel {
    net: RadioNetwork<Msg>,
    model: EnergyModel,
    decay: DecayParams,
    scratch: DecayScratch<Msg>,
}

impl Stack {
    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The slot simulator (per-slot energy, elapsed slots) of a physical
    /// stack; `None` on the abstract channel.
    ///
    /// ```
    /// use radio_protocols::{local_broadcast_once, EnergyModel, Msg, StackBuilder};
    ///
    /// let g = radio_graph::generators::path(3);
    /// assert!(StackBuilder::new(g.clone()).build().radio().is_none());
    /// let mut stack = StackBuilder::new(g).physical(EnergyModel::Uniform).build();
    /// local_broadcast_once(&mut stack, &[(0, Msg::words(&[7]))], &[1, 2]);
    /// // One Local-Broadcast call expands into a full Decay run (Lemma 2.4).
    /// let radio = stack.radio().expect("physical stack");
    /// let decay = stack.decay_params().expect("physical stack");
    /// assert!(radio.slots() as usize >= decay.total_slots());
    /// ```
    pub fn radio(&self) -> Option<&RadioNetwork<Msg>> {
        match &self.channel {
            Channel::Abstract { .. } => None,
            Channel::Physical(p) => Some(&p.net),
        }
    }

    /// The Decay parameters in force on a physical stack; `None` on the
    /// abstract channel.
    pub fn decay_params(&self) -> Option<DecayParams> {
        match &self.channel {
            Channel::Abstract { .. } => None,
            Channel::Physical(p) => Some(p.decay),
        }
    }
}

impl RadioStack for Stack {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn global_n(&self) -> usize {
        self.global_n
    }

    fn capabilities(&self) -> Capabilities {
        let (energy_model, physical) = match &self.channel {
            Channel::Abstract { .. } => (EnergyModel::Uniform, false),
            Channel::Physical(p) => (p.model, true),
        };
        Capabilities {
            collision_detection: self.cd,
            energy_model,
            physical,
        }
    }

    fn local_broadcast(&mut self, frame: &mut LbFrame) {
        self.ledger
            .record_call(frame.senders().keys(), frame.receivers());
        let cd = self.cd == CollisionDetection::Receiver;
        match &mut self.channel {
            Channel::Abstract {
                failure_prob,
                pick_buf,
                reached,
            } => {
                frame.clear_delivered();
                let (senders, receivers, delivered, feedback) = frame.parts_with_feedback_mut();
                let graph = &*self.graph;
                // The sender walk costs `O(Σ deg(S) + words of the marks'
                // range)`, the receiver walk `O(Σ_{r∈R} deg(r))`; the cheaper
                // one is chosen per call, like `RadioNetwork::step_frame`'s
                // scan and columnar paths. Both visit their candidates in
                // ascending node order — the frame's iteration order by
                // construction — and only those with a sending neighbour
                // draw, so the RNG stream maps to receivers identically.
                let degree_sum: usize = senders.keys().iter().map(|s| graph.degree(s)).sum();
                let candidates = if degree_sum < receivers.len() {
                    reached.clear();
                    for s in senders.keys() {
                        for &u in graph.neighbors(s) {
                            reached.insert(u);
                        }
                    }
                    reached.intersect_with(receivers);
                    &*reached
                } else {
                    receivers
                };
                for r in candidates {
                    if senders.contains(r) {
                        // Sender/receiver sets are required to be disjoint; a
                        // vertex listed in both acts as a sender only.
                        continue;
                    }
                    // Collect sending neighbours in one pass over the CSR
                    // adjacency against the sender occupancy bitset.
                    pick_buf.clear();
                    pick_buf.extend(
                        graph
                            .neighbors(r)
                            .iter()
                            .copied()
                            .filter(|&u| senders.contains(u)),
                    );
                    if pick_buf.is_empty() {
                        // Only the receiver walk visits such receivers.
                        continue;
                    }
                    if *failure_prob > 0.0 && self.rng.gen_bool(*failure_prob) {
                        if cd {
                            feedback.insert(r, LbFeedback::Noise);
                        }
                        continue;
                    }
                    // The specification only promises *some* neighbour's
                    // message; we pick uniformly to avoid accidental
                    // reliance on a tie-break.
                    let u = pick_buf[self.rng.gen_range(0..pick_buf.len())];
                    delivered.insert(r, senders.get(u).expect("occupied sender").clone());
                    if cd {
                        feedback.insert(r, LbFeedback::Delivered);
                    }
                }
                if cd {
                    // Every receiver with a sending neighbour has its verdict;
                    // the rest heard nothing.
                    for r in receivers {
                        if !feedback.contains(r) && !senders.contains(r) {
                            feedback.insert(r, LbFeedback::Silence);
                        }
                    }
                }
            }
            Channel::Physical(p) => {
                let expand = if cd {
                    decay_local_broadcast_cd
                } else {
                    decay_local_broadcast
                };
                expand(&mut p.net, frame, &mut p.scratch, p.decay, &mut self.rng);
            }
        }
    }

    fn lb_energy(&self, v: usize) -> u64 {
        self.ledger.participations(v)
    }

    fn lb_time(&self) -> u64 {
        self.ledger.calls()
    }

    fn energy_view(&self) -> EnergyView {
        let view = EnergyView::lb_only(self.ledger.participation_counts().to_vec(), self.lb_time());
        match &self.channel {
            Channel::Abstract { .. } => view,
            Channel::Physical(p) => {
                let meter = p.net.meter();
                view.with_physical(
                    meter.listen_counts().to_vec(),
                    meter.transmit_counts().to_vec(),
                    meter.slots(),
                    p.model,
                )
            }
        }
    }

    fn topology(&self) -> Option<&Graph> {
        Some(&self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generators;

    #[test]
    fn stacks_and_views_are_send_and_sync_sound() {
        // The scenario runner moves whole stacks (and the frames/views they
        // produce) onto pool workers; this pins the auto-traits so a future
        // `Rc`/`RefCell` in a channel fails here instead of in the pool.
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Stack>();
        assert_send::<LbFrame>();
        assert_send::<EnergyView>();
        assert_sync::<Capabilities>();
        assert_sync::<StackBuilder>();
    }

    #[test]
    fn builder_defaults_are_the_paper_model() {
        let stack = StackBuilder::new(generators::path(4)).build();
        let caps = stack.capabilities();
        assert_eq!(caps.collision_detection, CollisionDetection::None);
        assert_eq!(caps.energy_model, EnergyModel::Uniform);
        assert!(!caps.physical);
        assert_eq!(caps.label(), "abstract");
        assert!(stack.radio().is_none() && stack.decay_params().is_none());
    }

    #[test]
    fn builder_capability_matrix_round_trips() {
        let g = generators::path(4);
        let model = EnergyModel::Weighted {
            listen: 1,
            transmit: 3,
        };
        let cases: Vec<(Stack, &str, bool)> = vec![
            (StackBuilder::new(g.clone()).build(), "abstract", false),
            (
                StackBuilder::new(g.clone()).with_cd().build(),
                "abstract_cd",
                false,
            ),
            (
                StackBuilder::new(g.clone())
                    .physical(EnergyModel::Uniform)
                    .build(),
                "physical",
                true,
            ),
            (
                StackBuilder::new(g.clone())
                    .physical(model)
                    .with_cd()
                    .build(),
                "physical_cd",
                true,
            ),
        ];
        for (stack, label, physical) in &cases {
            let caps = stack.capabilities();
            assert_eq!(&caps.label(), label);
            assert_eq!(caps.physical, *physical);
            assert_eq!(caps.physical, stack.energy_view().has_physical());
        }
        assert_eq!(cases[3].0.capabilities().energy_model, model);
    }

    #[test]
    #[should_panic]
    fn physical_backend_rejects_injected_failures() {
        let _ = StackBuilder::new(generators::path(3))
            .physical(EnergyModel::Uniform)
            .with_failures(0.3)
            .build();
    }

    #[test]
    fn stacks_always_record_lb_counters() {
        for mut stack in [
            StackBuilder::new(generators::path(3)).build(),
            StackBuilder::new(generators::path(3))
                .physical(EnergyModel::Uniform)
                .build(),
        ] {
            let mut frame = stack.new_frame();
            frame.add_sender(0, crate::Msg::words(&[1]));
            frame.add_receiver(1);
            stack.local_broadcast(&mut frame);
            assert_eq!(frame.delivered().get(1), Some(&crate::Msg::words(&[1])));
            assert_eq!(stack.lb_time(), 1);
            assert_eq!(stack.lb_energy(0), 1);
            assert_eq!(stack.lb_energy(1), 1);
            assert_eq!(stack.lb_energy(2), 0);
        }
    }

    #[test]
    fn energy_view_diff_isolates_a_phase() {
        let mut stack = StackBuilder::new(generators::path(4)).build();
        let mut frame = stack.new_frame();
        frame.add_sender(0, crate::Msg::words(&[1]));
        frame.add_receiver(1);
        stack.local_broadcast(&mut frame);
        let mid = stack.energy_view();
        frame.clear();
        frame.add_sender(1, crate::Msg::words(&[2]));
        frame.add_receiver(2);
        frame.add_receiver(3);
        stack.local_broadcast(&mut frame);
        let phase = stack.energy_view().diff(&mid);
        assert_eq!(phase.lb_time(), 1);
        assert_eq!(phase.lb_energy(0), 0);
        assert_eq!(phase.lb_energy(1), 1);
        assert_eq!(phase.lb_energy(2), 1);
        assert_eq!(phase.max_lb_energy(), 1);
        // A phase that spares the run's busiest node: its maximum is the
        // largest per-node difference (1), not the difference of the run
        // maxima (2 − 2).
        let before = stack.energy_view();
        frame.clear();
        frame.add_sender(2, crate::Msg::words(&[3]));
        frame.add_receiver(3);
        stack.local_broadcast(&mut frame);
        assert_eq!(stack.max_lb_energy(), before.max_lb_energy());
        assert_eq!(stack.energy_view().diff(&before).max_lb_energy(), 1);
    }

    #[test]
    fn weighted_energy_model_scales_physical_costs() {
        let run = |model: EnergyModel| -> u64 {
            let mut stack = StackBuilder::new(generators::path(2))
                .physical(model)
                .with_seed(5)
                .build();
            let mut frame = stack.new_frame();
            frame.add_sender(0, crate::Msg::words(&[9]));
            frame.add_receiver(1);
            stack.local_broadcast(&mut frame);
            stack.energy_view().physical_energy(0).expect("physical")
        };
        let uniform = run(EnergyModel::Uniform);
        let weighted = run(EnergyModel::Weighted {
            listen: 1,
            transmit: 3,
        });
        // Node 0 only transmits, so tripling the transmit weight triples it.
        assert_eq!(weighted, 3 * uniform);
    }

    /// The four corners of the channel × collision-detection matrix over
    /// `g`, in label order `abstract`, `abstract_cd`, `physical`,
    /// `physical_cd`.
    fn matrix(g: &Graph) -> [Stack; 4] {
        let builder = || StackBuilder::new(g.clone());
        [
            builder().build(),
            builder().with_cd().build(),
            builder().physical(EnergyModel::Uniform).build(),
            builder().physical(EnergyModel::Uniform).with_cd().build(),
        ]
    }

    #[test]
    fn requirements_are_field_wise_lower_bounds() {
        let needs_cd = Capabilities {
            collision_detection: CollisionDetection::Receiver,
            ..Capabilities::baseline()
        };
        let needs_physical = Capabilities {
            physical: true,
            ..Capabilities::baseline()
        };
        let needs_both = Capabilities {
            collision_detection: CollisionDetection::Receiver,
            physical: true,
            ..Capabilities::baseline()
        };
        let satisfied: Vec<(bool, bool, bool)> = matrix(&generators::path(3))
            .iter()
            .map(|s| {
                let caps = s.capabilities();
                (
                    caps.satisfies(&needs_cd),
                    caps.satisfies(&needs_physical),
                    caps.satisfies(&needs_both),
                )
            })
            .collect();
        assert_eq!(
            satisfied,
            [
                (false, false, false),
                (true, false, false),
                (false, true, false),
                (true, true, true),
            ]
        );
    }

    #[test]
    fn the_energy_model_is_never_a_requirement() {
        let weighted = Capabilities {
            energy_model: EnergyModel::Weighted {
                listen: 1,
                transmit: 4,
            },
            ..Capabilities::baseline()
        };
        let uniform_stack = StackBuilder::new(generators::path(3)).build();
        assert!(uniform_stack.capabilities().satisfies(&weighted));
        assert!(weighted.satisfies(&Capabilities::baseline()));
    }

    #[test]
    fn requirement_label_names_the_builder_call_for_each_capability() {
        assert_eq!(
            Capabilities::baseline().requirement_label(),
            "no particular capabilities"
        );
        let caps = |cd: bool, physical: bool| Capabilities {
            collision_detection: if cd {
                CollisionDetection::Receiver
            } else {
                CollisionDetection::None
            },
            physical,
            ..Capabilities::baseline()
        };
        let cd = caps(true, false).requirement_label();
        assert!(
            cd.contains("with_cd()") && !cd.contains("physical("),
            "{cd}"
        );
        let physical = caps(false, true).requirement_label();
        assert!(
            physical.contains("physical(...)") && !physical.contains("with_cd()"),
            "{physical}"
        );
        let both = caps(true, true).requirement_label();
        assert_eq!(both, format!("{cd} plus {physical}"));
    }

    #[test]
    fn lb_only_view_reports_lb_units_and_no_slot_counters() {
        let view = EnergyView::lb_only(vec![3, 0, 5, 4], 6);
        assert_eq!(view.nodes(), 4);
        assert_eq!(view.lb_time(), 6);
        assert_eq!(view.lb_energy(2), 5);
        assert_eq!(view.max_lb_energy(), 5);
        assert_eq!(view.total_lb_energy(), 12);
        assert!((view.mean_lb_energy() - 3.0).abs() < 1e-12);
        assert_eq!(view.energy_model(), EnergyModel::Uniform);
        assert!(!view.has_physical());
        assert_eq!(view.physical_energy(0), None);
        assert_eq!(view.max_physical_energy(), None);
        assert_eq!(view.total_physical_energy(), None);
        assert_eq!(view.physical_slots(), None);
        assert_eq!(view.listen_slots(0), None);
        assert_eq!(view.transmit_slots(0), None);
    }

    #[test]
    fn empty_view_is_all_zero() {
        let view = EnergyView::lb_only(Vec::new(), 0);
        assert_eq!(view.nodes(), 0);
        assert_eq!(view.max_lb_energy(), 0);
        assert_eq!(view.total_lb_energy(), 0);
        assert_eq!(view.mean_lb_energy(), 0.0);
    }

    #[test]
    #[should_panic]
    fn with_physical_rejects_a_different_node_count() {
        let _ = EnergyView::lb_only(vec![0; 3], 0).with_physical(
            vec![0; 2],
            vec![0; 3],
            0,
            EnergyModel::Uniform,
        );
    }

    #[test]
    #[should_panic(expected = "view universe mismatch")]
    fn diff_rejects_views_of_different_universes() {
        let _ = EnergyView::lb_only(vec![0; 3], 0).diff(&EnergyView::lb_only(vec![0; 4], 0));
    }

    #[test]
    fn diff_subtracts_slot_counters_node_by_node() {
        let physical = |lb: Vec<u64>, calls, listen, transmit, slots| {
            EnergyView::lb_only(lb, calls).with_physical(
                listen,
                transmit,
                slots,
                EnergyModel::Uniform,
            )
        };
        let before = physical(vec![4, 1], 4, vec![10, 0], vec![0, 2], 20);
        let after = physical(vec![5, 3], 6, vec![11, 6], vec![0, 2], 32);
        let phase = after.diff(&before);
        assert_eq!(phase.lb_time(), 2);
        assert_eq!((phase.lb_energy(0), phase.lb_energy(1)), (1, 2));
        assert_eq!(phase.listen_slots(1), Some(6));
        assert_eq!(phase.transmit_slots(1), Some(0));
        assert_eq!(phase.physical_slots(), Some(12));
        // Node 0 is the run's busiest device, but node 1 spent the most
        // in this phase.
        assert_eq!(after.max_physical_energy(), Some(11));
        assert_eq!(phase.max_physical_energy(), Some(6));
    }

    #[test]
    fn a_view_minus_itself_is_zero_on_every_channel() {
        for mut stack in matrix(&generators::grid(3, 3)) {
            let mut frame = stack.new_frame();
            frame.add_sender(4, crate::Msg::words(&[1]));
            for r in [1, 3, 5, 7] {
                frame.add_receiver(r);
            }
            stack.local_broadcast(&mut frame);
            let view = stack.energy_view();
            let zero = view.diff(&view);
            assert_eq!(zero.lb_time(), 0);
            assert_eq!(zero.total_lb_energy(), 0);
            assert_eq!(zero.has_physical(), view.has_physical());
            if view.has_physical() {
                assert_eq!(zero.physical_slots(), Some(0));
                assert_eq!(zero.total_physical_energy(), Some(0));
            }
        }
    }

    #[test]
    fn global_n_is_the_node_count_but_at_least_two() {
        let single = StackBuilder::new(Graph::from_edges(1, &[])).build();
        assert_eq!(single.num_nodes(), 1);
        assert_eq!(single.global_n(), 2);
        let path = StackBuilder::new(generators::path(5)).build();
        assert_eq!(path.global_n(), 5);
    }

    #[test]
    fn topology_is_the_shared_graph_the_stack_was_built_over() {
        let g = Arc::new(generators::grid(3, 4));
        for stack in [
            StackBuilder::new(Arc::clone(&g)).build(),
            StackBuilder::new(Arc::clone(&g))
                .physical(EnergyModel::Uniform)
                .build(),
        ] {
            let topology = stack.topology().expect("concrete stacks expose a graph");
            // Built from an `Arc`, the stack shares the CSR instead of
            // copying it.
            assert!(std::ptr::eq(topology, &*g));
            assert!(std::ptr::eq(stack.graph(), &*g));
            assert_eq!(stack.num_nodes(), 12);
        }
    }

    #[test]
    fn decay_params_default_to_the_networks_size_and_max_degree() {
        let g = generators::star(6);
        let stack = StackBuilder::new(g).physical(EnergyModel::Uniform).build();
        assert_eq!(stack.decay_params(), Some(DecayParams::for_network(6, 5)));
    }

    #[test]
    fn with_decay_params_overrides_the_default() {
        let custom = DecayParams {
            max_degree: 8,
            failure_prob: 0.01,
        };
        let stack = StackBuilder::new(generators::path(4))
            .physical(EnergyModel::Uniform)
            .with_decay_params(custom)
            .build();
        assert_eq!(stack.decay_params(), Some(custom));
        // The abstract channel has no Decay expansion to override.
        let abstract_stack = StackBuilder::new(generators::path(4))
            .with_decay_params(custom)
            .build();
        assert_eq!(abstract_stack.decay_params(), None);
    }

    #[test]
    #[should_panic]
    fn with_failures_rejects_certain_loss() {
        let _ = StackBuilder::new(generators::path(2)).with_failures(1.0);
    }

    #[test]
    fn an_empty_call_costs_time_but_no_energy() {
        for mut stack in matrix(&generators::path(3)) {
            let mut frame = stack.new_frame();
            stack.local_broadcast(&mut frame);
            assert_eq!(stack.lb_time(), 1);
            assert_eq!(stack.max_lb_energy(), 0);
            assert!(frame.delivered().is_empty());
        }
    }

    #[test]
    fn one_builder_builds_stacks_that_replay_each_other() {
        // A builder carries the seed, so every stack it builds draws the
        // same picks and failure coins.
        let builder = StackBuilder::new(generators::star(7))
            .with_failures(0.2)
            .with_seed(21);
        let run = |mut stack: Stack| -> Vec<Option<u64>> {
            let mut frame = stack.new_frame();
            (0..40)
                .map(|_| {
                    frame.clear();
                    for s in 1..7 {
                        frame.add_sender(s, crate::Msg::words(&[s as u64]));
                    }
                    frame.add_receiver(0);
                    stack.local_broadcast(&mut frame);
                    frame.delivered().get(0).map(|m| m.word(0))
                })
                .collect()
        };
        let first = run(builder.clone().build());
        assert_eq!(run(builder.clone().build()), first);
        assert_ne!(run(builder.with_seed(22).build()), first);
    }
}
