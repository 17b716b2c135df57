//! The capability-typed `RadioStack` API: one trait surface for backends,
//! energy accounting, and collision detection.
//!
//! Historically this crate exposed an `LbNetwork` trait whose two backends
//! hid everything but deliveries: channel feedback never crossed the trait
//! boundary (so no protocol could exploit receiver-side collision
//! detection, even though the simulator resolves Silence/Noise), and energy
//! accounting was split across three ad-hoc surfaces (`LbLedger`,
//! `EnergyMeter`, and `EnergySummary::of`/`of_physical` in `energy-bfs`).
//! [`RadioStack`] supersedes it with three additions:
//!
//! * a [`Capabilities`] descriptor — what the stack can do (collision
//!   detection: none or receiver-side; energy model: `listen = transmit` or
//!   weighted; whether slot-level physical counters exist) — so generic
//!   code can branch on capabilities instead of downcasting to concrete
//!   backends;
//! * a unified [`EnergyView`] snapshot/diff API that subsumes the ledger
//!   and the meter: one call captures LB-unit *and* (when capable)
//!   slot-level counters, and `view.diff(&earlier)` measures any phase of a
//!   longer run under any energy model;
//! * per-call channel feedback surfaced through the frame's feedback lane
//!   (`LbFrame::feedback`), so protocols running on a CD-capable stack can
//!   branch on [`radio_sim::LbFeedback`] verdicts.
//!
//! [`StackBuilder`] is the one way examples, tests, and the scenario runner
//! construct stacks:
//!
//! ```
//! use radio_protocols::{RadioStack, StackBuilder};
//! use radio_sim::EnergyModel;
//!
//! let g = radio_graph::generators::grid(4, 4);
//! // The paper's accounting backend:
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
use radio_sim::{CollisionDetection, DecayParams, EnergyModel};

use crate::lb::{AbstractLbNetwork, LbFrame, PhysicalLbNetwork};

/// What a [`RadioStack`] is capable of — the coordinates of the backend ×
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
    /// returns `Some`): true exactly for Decay-expanding physical backends.
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

/// An owned snapshot of a stack's energy/time counters, in LB units plus —
/// on physically-capable stacks — slot-level counters.
///
/// Snapshots are cheap (two or four `Vec<u64>` copies), order totally by
/// time, and subtract: `later.diff(&earlier)` isolates one phase of a run.
/// This is the single surface that replaces reading `LbLedger` and
/// `EnergyMeter` separately.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyView {
    lb_participations: Vec<u64>,
    lb_sends: Vec<u64>,
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
    pub fn lb_only(participations: Vec<u64>, sends: Vec<u64>, calls: u64) -> Self {
        assert_eq!(participations.len(), sends.len());
        EnergyView {
            lb_participations: participations,
            lb_sends: sends,
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

    /// Calls in which node `v` was a sender.
    pub fn lb_sends(&self, v: usize) -> u64 {
        self.lb_sends[v]
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
    /// of a longer run (e.g. query energy after setup energy). Counters are
    /// monotone, so ordinary subtraction applies; panics if the views cover
    /// different node universes.
    pub fn diff(&self, before: &EnergyView) -> EnergyView {
        assert_eq!(self.nodes(), before.nodes(), "view universe mismatch");
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| x.saturating_sub(*y)).collect()
        };
        EnergyView {
            lb_participations: sub(&self.lb_participations, &before.lb_participations),
            lb_sends: sub(&self.lb_sends, &before.lb_sends),
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
/// through generics. Concrete stacks are built with [`StackBuilder`];
/// [`crate::VirtualClusterNet`] layers a virtual stack over any parent.
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
    /// implementation captures LB units only; physically-capable backends
    /// override it to include slot-level counters, so one call sees
    /// everything regardless of backend.
    fn energy_view(&self) -> EnergyView {
        EnergyView::lb_only(
            (0..self.num_nodes()).map(|v| self.lb_energy(v)).collect(),
            vec![0; self.num_nodes()],
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

/// Which backend a [`StackBuilder`] produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    Abstract,
    Physical,
}

/// The one way to construct a concrete [`RadioStack`].
///
/// Defaults: abstract backend (the paper's LB-unit accounting: one unit of
/// time per call, one unit of energy per participation — the exact
/// accounting of Theorem 4.1), no collision detection, uniform energy
/// model, seed 0. Every stack keeps a per-node ledger of its
/// Local-Broadcast calls, and its globally known `n` is `|V|`.
#[derive(Clone, Debug)]
pub struct StackBuilder {
    graph: Arc<Graph>,
    backend: Backend,
    energy_model: EnergyModel,
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
            backend: Backend::Abstract,
            energy_model: EnergyModel::Uniform,
            cd: CollisionDetection::None,
            seed: 0,
            failure_prob: 0.0,
            decay: None,
        }
    }

    /// Selects the physical backend under the given energy model: every
    /// call expands into Decay slots (Lemma 2.4) on the slot-accurate
    /// simulator, so collisions and per-slot energy are fully modelled.
    pub fn physical(mut self, model: EnergyModel) -> Self {
        self.backend = Backend::Physical;
        self.energy_model = model;
        self
    }

    /// Enables receiver-side collision detection. On the physical backend
    /// Local-Broadcast switches to the CD-aware Decay variant
    /// ([`radio_sim::decay_local_broadcast_cd`]); on both backends the
    /// frame's feedback lane carries per-receiver verdicts after each call.
    pub fn with_cd(mut self) -> Self {
        self.cd = CollisionDetection::Receiver;
        self
    }

    /// Seeds the stack's RNG (tie-breaking and failure draws on the
    /// abstract backend; Decay slot draws on the physical one).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-receiver delivery failure probability `f` injected by
    /// the abstract backend (the physical backend's failures arise from real
    /// collisions instead; it ignores this).
    pub fn with_failures(mut self, failure_prob: f64) -> Self {
        assert!((0.0..1.0).contains(&failure_prob));
        self.failure_prob = failure_prob;
        self
    }

    /// Overrides the physical backend's Decay parameters (defaults to
    /// `Δ` = max degree, `f = n^{-3}`).
    pub fn with_decay_params(mut self, decay: DecayParams) -> Self {
        self.decay = Some(decay);
        self
    }

    /// Builds the stack.
    ///
    /// Panics if injected failures were requested on the physical backend
    /// (its losses arise from real collisions; silently dropping the
    /// configured probability would mislabel a reliable run as lossy).
    pub fn build(self) -> Stack {
        assert!(
            self.failure_prob == 0.0 || self.backend == Backend::Abstract,
            "with_failures is an abstract-backend knob; the physical backend's \
             failures come from real collisions"
        );
        let global_n = self.graph.num_nodes().max(2);
        match self.backend {
            Backend::Abstract => Stack::Abstract(Box::new(AbstractLbNetwork::from_builder(
                self.graph,
                global_n,
                self.cd,
                self.failure_prob,
                self.seed,
            ))),
            Backend::Physical => Stack::Physical(Box::new(PhysicalLbNetwork::from_builder(
                self.graph,
                global_n,
                self.cd,
                self.energy_model,
                self.decay,
                self.seed,
            ))),
        }
    }
}

/// A concrete stack produced by [`StackBuilder::build`]. Use it as a
/// `&mut dyn RadioStack`, or reach the backend-specific accessors through
/// [`Stack::as_abstract`]/[`Stack::as_physical`].
#[derive(Clone, Debug)]
pub enum Stack {
    /// The LB-unit accounting backend (boxed, as is the physical variant,
    /// so the enum stays a thin pointer-sized handle).
    Abstract(Box<AbstractLbNetwork>),
    /// The Decay-expanding slot-level backend (boxed: it owns the slot
    /// simulator and the decay scratch, far larger than the abstract one).
    Physical(Box<PhysicalLbNetwork>),
}

impl Stack {
    /// The abstract backend, if that is what was built.
    pub fn as_abstract(&self) -> Option<&AbstractLbNetwork> {
        match self {
            Stack::Abstract(a) => Some(a),
            Stack::Physical(_) => None,
        }
    }

    /// The physical backend, if that is what was built.
    pub fn as_physical(&self) -> Option<&PhysicalLbNetwork> {
        match self {
            Stack::Abstract(_) => None,
            Stack::Physical(p) => Some(p),
        }
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        match self {
            Stack::Abstract(a) => a.graph(),
            Stack::Physical(p) => p.radio().graph(),
        }
    }
}

impl RadioStack for Stack {
    fn num_nodes(&self) -> usize {
        match self {
            Stack::Abstract(a) => a.num_nodes(),
            Stack::Physical(p) => p.num_nodes(),
        }
    }

    fn global_n(&self) -> usize {
        match self {
            Stack::Abstract(a) => a.global_n(),
            Stack::Physical(p) => p.global_n(),
        }
    }

    fn capabilities(&self) -> Capabilities {
        match self {
            Stack::Abstract(a) => a.capabilities(),
            Stack::Physical(p) => p.capabilities(),
        }
    }

    fn local_broadcast(&mut self, frame: &mut LbFrame) {
        match self {
            Stack::Abstract(a) => a.local_broadcast(frame),
            Stack::Physical(p) => p.local_broadcast(frame),
        }
    }

    fn lb_energy(&self, v: usize) -> u64 {
        match self {
            Stack::Abstract(a) => a.lb_energy(v),
            Stack::Physical(p) => p.lb_energy(v),
        }
    }

    fn lb_time(&self) -> u64 {
        match self {
            Stack::Abstract(a) => a.lb_time(),
            Stack::Physical(p) => p.lb_time(),
        }
    }

    fn energy_view(&self) -> EnergyView {
        match self {
            Stack::Abstract(a) => a.energy_view(),
            Stack::Physical(p) => p.energy_view(),
        }
    }

    fn topology(&self) -> Option<&Graph> {
        Some(self.graph())
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
        // `Rc`/`RefCell` in a backend fails here instead of in the pool.
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Stack>();
        assert_send::<AbstractLbNetwork>();
        assert_send::<PhysicalLbNetwork>();
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
        assert!(stack.as_abstract().is_some());
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
        assert_eq!(phase.lb_sends(1), 1);
        assert_eq!(phase.lb_energy(2), 1);
        assert_eq!(phase.max_lb_energy(), 1);
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
}
