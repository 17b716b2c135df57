//! First-class protocols: one execution API from examples to the sweep.
//!
//! The paper's algorithms form a layered family — trivial wavefront BFS,
//! Decay BFS, distributed clustering, recursive BFS — but historically the
//! repo exposed them as free functions with ad-hoc signatures, and every
//! consumer (examples, benches, the scenario runner, the paper-claims
//! tests) re-dispatched them through its own `match`. This module is the
//! uniform surface that replaces those call sites:
//!
//! * [`Protocol`] — an object-safe trait: a protocol has a stable
//!   [`ProtocolId`], declares the stack [`Capabilities`] it [`requires`],
//!   and [`run`]s against any `&mut dyn RadioStack`, producing a
//!   [`ProtocolReport`].
//! * [`ProtocolReport`] — the unified result: a typed payload
//!   ([`ProtocolOutput`]: distances, a clustering, or a delivery count), the
//!   [`EnergyView`] *diff* over exactly the protocol's own calls, and the
//!   scalar `outcome` the scenario records carry. The scenario runner's
//!   record writer turns reports into the sweep's JSON columns.
//! * [`ProtocolRegistry`] — resolves string specs like `trivial_bfs`,
//!   `decay_bfs`, `clustering:b=4`, `recursive:eps=0.5`, or `lb_sweep:r=16`
//!   into boxed protocols, so a new workload is a registry entry instead of
//!   a new match arm in four places.
//!
//! Capability gating happens in [`Protocol::run`] before any Local-Broadcast
//! is issued: a protocol whose requirements the stack does not satisfy (for
//! example `trivial_bfs_cd` on a `physical` stack built without
//! [`crate::StackBuilder::with_cd`]) returns
//! [`ProtocolError::MissingCapability`] — a typed error, never a panic —
//! with the capability matrix coordinates of both sides.
//!
//! This crate registers the protocols that live at the Local-Broadcast
//! layer ([`base_registry`]: `clustering`, `lb_sweep`); the BFS drivers of
//! `energy-bfs` register themselves on top via `energy_bfs::protocol::registry()`,
//! which is the registry every runner should use.
//!
//! [`requires`]: Protocol::requires
//! [`run`]: Protocol::run

use std::fmt;

use radio_sim::NodeSet;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::clustering::{cluster_distributed, ClusterState, ClusteringConfig};
use crate::lb::LbFrame;
use crate::message::Msg;
use crate::stack::{Capabilities, EnergyView, RadioStack};

/// Stable identifier of a resolved protocol, e.g. `trivial_bfs` or
/// `clustering_b4`. This is the label that appears in scenario records and
/// sweep JSON, so it is part of the byte-stability contract.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProtocolId(String);

impl ProtocolId {
    /// Wraps a label.
    pub fn new(label: impl Into<String>) -> Self {
        ProtocolId(label.into())
    }

    /// The label as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq<&str> for ProtocolId {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

/// The per-run inputs every protocol draws from: a source set, an optional
/// depth bound, and the seed for any protocol-level randomness (clustering
/// tags, recursive-BFS hierarchy growth). Stack-level randomness is seeded
/// separately through [`crate::StackBuilder::with_seed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolInput {
    /// Source vertices (all labelled 0 by BFS protocols; single-source
    /// protocols use the first entry). Defaults to `[0]`.
    pub sources: Vec<usize>,
    /// Depth bound for bounded protocols. `None` means the protocol's own
    /// full-graph horizon (`n` for the trivial wavefront, `n − 1` for the
    /// recursive BFS — their historical free-function defaults).
    pub depth: Option<u64>,
    /// Seed for protocol-level randomness.
    pub seed: u64,
    /// Optional restricted active set: the vertices allowed to participate.
    /// `None` is the full vertex set — the historical behaviour, and what
    /// every default-sweep cell uses. Protocols that support restriction
    /// (the trivial wavefronts, whose free functions always took an
    /// `active: &[bool]` parameter) run only inside the set — the
    /// recursion's base-case workload expressed as a registry input.
    /// Protocols without a meaningful restriction (clustering, `lb_sweep`,
    /// the recursive driver) ignore it; result caches must still key on it,
    /// since for honouring protocols it changes the record.
    pub active: Option<Vec<usize>>,
}

impl Default for ProtocolInput {
    fn default() -> Self {
        ProtocolInput {
            sources: vec![0],
            depth: None,
            seed: 0,
            active: None,
        }
    }
}

impl ProtocolInput {
    /// Source 0, no depth bound, the given seed — what the scenario runner
    /// feeds every cell.
    pub fn from_seed(seed: u64) -> Self {
        ProtocolInput {
            seed,
            ..Default::default()
        }
    }

    /// Replaces the source set.
    pub fn with_sources(mut self, sources: Vec<usize>) -> Self {
        self.sources = sources;
        self
    }

    /// Sets the depth bound.
    pub fn with_depth(mut self, depth: u64) -> Self {
        self.depth = Some(depth);
        self
    }

    /// Restricts the run to the given active vertex set.
    pub fn with_active(mut self, active: Vec<usize>) -> Self {
        self.active = Some(active);
        self
    }

    /// The active set over an `n`-vertex universe. `None` is the full set;
    /// indices `≥ n` are ignored, so a set for a smaller realized graph
    /// never panics — validating callers (the sweep server) should
    /// range-check before building the input.
    pub fn active_set(&self, n: usize) -> NodeSet {
        let mut set = NodeSet::new(n);
        match &self.active {
            None => set.extend(0..n),
            Some(active) => set.extend(active.iter().copied().filter(|&v| v < n)),
        }
        set
    }
}

/// The typed payload of a [`ProtocolReport`].
#[derive(Clone, Debug)]
pub enum ProtocolOutput {
    /// Per-vertex distance labels (BFS protocols).
    Distances(Vec<Option<u64>>),
    /// A full clustering state (clustering protocols).
    Clustering(ClusterState),
    /// Number of deliveries (stress/sweep protocols).
    Deliveries(u64),
    /// A HyperBall run: neighborhood function, diameter and eccentricity
    /// estimates (sketch protocols).
    Sketch(crate::sketch::SketchSummary),
    /// A diameter estimate from one of the Section 5 approximation
    /// protocols (the `diameter:*` family).
    Diameter {
        /// The diameter estimate.
        estimate: u64,
        /// BFS computations the estimator ran (1 for the 2-approximation,
        /// `Õ(√n)` for the nearly-3/2 one, 0 for the sketch).
        bfs_count: u64,
    },
}

impl ProtocolOutput {
    /// The scalar summary the scenario records carry: vertices labelled,
    /// clusters formed, deliveries, or a diameter estimate.
    pub fn outcome(&self) -> u64 {
        match self {
            ProtocolOutput::Distances(dist) => dist.iter().filter(|d| d.is_some()).count() as u64,
            ProtocolOutput::Clustering(state) => state.num_clusters() as u64,
            ProtocolOutput::Deliveries(d) => *d,
            ProtocolOutput::Sketch(summary) => summary.outcome(),
            ProtocolOutput::Diameter { estimate, .. } => *estimate,
        }
    }

    /// The distance labelling, when this is a BFS output.
    pub fn distances(&self) -> Option<&[Option<u64>]> {
        match self {
            ProtocolOutput::Distances(d) => Some(d),
            _ => None,
        }
    }

    /// The clustering state, when this is a clustering output.
    pub fn clustering(&self) -> Option<&ClusterState> {
        match self {
            ProtocolOutput::Clustering(s) => Some(s),
            _ => None,
        }
    }

    /// The sketch summary, when this is a HyperBall output.
    pub fn sketch(&self) -> Option<&crate::sketch::SketchSummary> {
        match self {
            ProtocolOutput::Sketch(s) => Some(s),
            _ => None,
        }
    }

    /// The diameter estimate, when this is a diameter-family output — the
    /// sketch variant reports its own estimate here too, so agreement
    /// checks read one accessor for the whole family.
    pub fn diameter_estimate(&self) -> Option<u64> {
        match self {
            ProtocolOutput::Diameter { estimate, .. } => Some(*estimate),
            ProtocolOutput::Sketch(s) => Some(s.diameter_estimate),
            _ => None,
        }
    }
}

/// The unified result of one protocol run: payload, energy, telemetry.
#[derive(Clone, Debug)]
pub struct ProtocolReport {
    /// The resolved protocol's id (the record label).
    pub protocol: ProtocolId,
    /// The typed payload.
    pub output: ProtocolOutput,
    /// The [`EnergyView`] **diff** over exactly this run — on a fresh stack
    /// it equals the stack's whole view; mid-run it isolates the protocol's
    /// own phase (setup vs query accounting falls out for free).
    pub energy: EnergyView,
}

impl ProtocolReport {
    /// The scalar outcome column.
    pub fn outcome(&self) -> u64 {
        self.output.outcome()
    }

    /// Local-Broadcast calls issued by the run (time in LB units).
    pub fn lb_calls(&self) -> u64 {
        self.energy.lb_time()
    }

    /// Elapsed physical slots, on physically-capable stacks.
    pub fn physical_slots(&self) -> Option<u64> {
        self.energy.physical_slots()
    }
}

/// Typed failures of spec resolution and capability gating.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The spec's protocol name is not registered. Carries the registry's
    /// known names so CLI surfaces can print them.
    UnknownProtocol {
        /// The spec as given.
        spec: String,
        /// Names the registry does know.
        known: Vec<&'static str>,
    },
    /// The spec parsed but its parameters are malformed (bad syntax, an
    /// unknown key, or an unparsable value).
    InvalidSpec {
        /// The spec as given.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The stack does not satisfy the protocol's [`Protocol::requires`]
    /// descriptor (e.g. a `*_cd` protocol on a stack without receiver-side
    /// collision detection).
    MissingCapability {
        /// The protocol that refused to run.
        protocol: String,
        /// Human-readable requirement that failed.
        required: String,
        /// The stack's capability label (`abstract`, `physical`, …).
        available: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnknownProtocol { spec, known } => write!(
                f,
                "unknown protocol spec {spec:?}; known protocols: {}",
                known.join(", ")
            ),
            ProtocolError::InvalidSpec { spec, reason } => {
                write!(f, "invalid protocol spec {spec:?}: {reason}")
            }
            ProtocolError::MissingCapability {
                protocol,
                required,
                available,
            } => write!(
                f,
                "protocol {protocol} requires {required}, but the stack provides only \
                 `{available}`"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// An executable protocol: the one trait surface between workloads and the
/// stacks they run on.
///
/// The trait is object-safe — registries hand out `Box<dyn Protocol>`, the
/// scenario runner shares one boxed protocol across its worker pool
/// (`Send + Sync`), and composition never needs generics. Implementors
/// provide [`Protocol::execute`]; callers invoke [`Protocol::run`] (or
/// [`Protocol::run_with_frame`] to reuse a frame across many runs), which
/// wraps `execute` with the capability gate and the energy-diff telemetry,
/// so every protocol reports uniformly without repeating the plumbing.
pub trait Protocol: Send + Sync {
    /// The stable id (and record label) of this protocol instance,
    /// parameters included — e.g. `clustering_b4`.
    fn name(&self) -> ProtocolId;

    /// Minimum stack capabilities this protocol needs, as a [`Capabilities`]
    /// descriptor interpreted field-wise as lower bounds (see
    /// [`Capabilities::satisfies`]). The default requires nothing —
    /// [`Capabilities::baseline`].
    fn requires(&self) -> Capabilities {
        Capabilities::baseline()
    }

    /// The protocol body. Called by [`Protocol::run`] after the capability
    /// gate passed; `frame` is cleared state owned by the caller and may be
    /// reused across runs. Implementations should not read stack counters —
    /// the wrapper captures the energy diff.
    fn execute(
        &self,
        net: &mut dyn RadioStack,
        input: &ProtocolInput,
        frame: &mut LbFrame,
    ) -> ProtocolOutput;

    /// Runs the protocol through a caller-owned frame (the batched path the
    /// scenario runner uses: one frame per worker, reused across cells).
    ///
    /// Checks [`Protocol::requires`] against the stack's capabilities first
    /// and returns [`ProtocolError::MissingCapability`] without issuing a
    /// single Local-Broadcast if they fall short; otherwise executes and
    /// wraps the output with the [`EnergyView`] diff of exactly this run.
    fn run_with_frame(
        &self,
        net: &mut dyn RadioStack,
        input: &ProtocolInput,
        frame: &mut LbFrame,
    ) -> Result<ProtocolReport, ProtocolError> {
        let caps = net.capabilities();
        let required = self.requires();
        if !caps.satisfies(&required) {
            return Err(ProtocolError::MissingCapability {
                protocol: self.name().to_string(),
                required: required.requirement_label(),
                available: caps.label(),
            });
        }
        let before = net.energy_view();
        let output = self.execute(net, input, frame);
        let energy = net.energy_view().diff(&before);
        Ok(ProtocolReport {
            protocol: self.name(),
            output,
            energy,
        })
    }

    /// Runs the protocol with a freshly allocated frame.
    fn run(
        &self,
        net: &mut dyn RadioStack,
        input: &ProtocolInput,
    ) -> Result<ProtocolReport, ProtocolError> {
        let mut frame = net.new_frame();
        self.run_with_frame(net, input, &mut frame)
    }
}

/// Parsed parameters of a protocol spec: the `k=v` pairs after the `:` in
/// `name:k=v,k=v`. Factories read typed values with defaults and reject
/// unknown keys, so a typo'd parameter is an [`ProtocolError::InvalidSpec`]
/// instead of a silently ignored knob.
#[derive(Clone, Debug)]
pub struct SpecParams {
    spec: String,
    pairs: Vec<(String, String)>,
}

impl SpecParams {
    /// An [`ProtocolError::InvalidSpec`] anchored to this spec — for
    /// factories (in any crate) rejecting out-of-range parameter values.
    pub fn invalid(&self, reason: impl Into<String>) -> ProtocolError {
        ProtocolError::InvalidSpec {
            spec: self.spec.clone(),
            reason: reason.into(),
        }
    }

    /// The full spec string these parameters came from.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Rejects any key outside `allowed`.
    pub fn ensure_known_keys(&self, allowed: &[&str]) -> Result<(), ProtocolError> {
        for (k, _) in &self.pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(self.invalid(format!(
                    "unknown parameter {k:?} (allowed: {})",
                    if allowed.is_empty() {
                        "none".to_string()
                    } else {
                        allowed.join(", ")
                    }
                )));
            }
        }
        Ok(())
    }

    fn raw(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Reads a bare selector key (`name:key`, no value): `true` when
    /// present, an [`ProtocolError::InvalidSpec`] if it was given a value
    /// — the family-spec shape (`diameter:two_approx`).
    pub fn flag(&self, key: &str) -> Result<bool, ProtocolError> {
        match self.raw(key) {
            None => Ok(false),
            Some("") => Ok(true),
            Some(v) => Err(self.invalid(format!("parameter {key} is a selector, got {key}={v:?}"))),
        }
    }

    /// Reads a `u64` parameter, falling back to `default` when absent.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ProtocolError> {
        Ok(self.get_opt_u64(key)?.unwrap_or(default))
    }

    /// Reads a `u64` parameter, distinguishing "absent" from any given
    /// value — for knobs whose default is computed rather than constant
    /// (e.g. `recursive`'s depth-derived `1/β`), where reserving a sentinel
    /// value would silently reinterpret legitimate input.
    pub fn get_opt_u64(&self, key: &str) -> Result<Option<u64>, ProtocolError> {
        match self.raw(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| self.invalid(format!("parameter {key}={v:?} is not an integer"))),
        }
    }

    /// Reads an `f64` parameter, falling back to `default` when absent.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ProtocolError> {
        match self.raw(key) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .map_err(|_| self.invalid(format!("parameter {key}={v:?} is not a number"))),
        }
    }
}

/// Splits `name[:k=v[,k=v]*]` into the protocol name and its parameters.
///
/// A parameter without `=` is kept as a *bare key* with an empty value —
/// the selector shape family specs use (`diameter:two_approx`,
/// `diameter:hyperball:p=6`). Factories that do not document bare keys
/// still reject them: an empty value fails every typed getter, and
/// [`SpecParams::ensure_known_keys`] rejects unknown names as before.
fn parse_spec(spec: &str) -> Result<(&str, SpecParams), ProtocolError> {
    let spec = spec.trim();
    let (name, rest) = match spec.split_once(':') {
        None => (spec, ""),
        Some((name, rest)) => (name, rest),
    };
    let mut pairs: Vec<(String, String)> = Vec::new();
    for part in rest.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part.split_once('=').unwrap_or((part, ""));
        let k = k.trim().to_string();
        // First-wins would silently drop the later (likely intended)
        // value; make the conflict loud instead.
        if pairs.iter().any(|(existing, _)| *existing == k) {
            return Err(ProtocolError::InvalidSpec {
                spec: spec.to_string(),
                reason: format!("parameter {k:?} given more than once"),
            });
        }
        pairs.push((k, v.trim().to_string()));
    }
    Ok((
        name,
        SpecParams {
            spec: spec.to_string(),
            pairs,
        },
    ))
}

/// A factory resolving parsed spec parameters into a boxed protocol.
pub type ProtocolFactory = fn(&SpecParams) -> Result<Box<dyn Protocol>, ProtocolError>;

struct RegistryEntry {
    name: &'static str,
    summary: &'static str,
    factory: ProtocolFactory,
}

/// Resolves protocol specs (`trivial_bfs`, `clustering:b=4`, …) into boxed
/// [`Protocol`]s.
///
/// The registry is a plain value — cheap to build, no global state — so
/// layered crates compose it by registration: this crate's
/// [`base_registry`] carries the Local-Broadcast-layer protocols, and
/// `energy-bfs` adds its BFS drivers on top. Lookup order is registration
/// order; names must be unique.
pub struct ProtocolRegistry {
    entries: Vec<RegistryEntry>,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProtocolRegistry {
            entries: Vec::new(),
        }
    }

    /// Registers `factory` under `name` (the spec's base name, before any
    /// `:`). Panics on a duplicate name: two factories for one spec is a
    /// wiring bug, not a runtime condition.
    pub fn register(
        &mut self,
        name: &'static str,
        summary: &'static str,
        factory: ProtocolFactory,
    ) {
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "protocol {name:?} registered twice"
        );
        self.entries.push(RegistryEntry {
            name,
            summary,
            factory,
        });
    }

    /// The registered base names, in registration order.
    pub fn known(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// One `name — summary` line per registered protocol, for CLI help.
    pub fn help(&self) -> String {
        self.entries
            .iter()
            .map(|e| format!("  {:<16} {}", e.name, e.summary))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Resolves a spec into a boxed protocol.
    pub fn get(&self, spec: &str) -> Result<Box<dyn Protocol>, ProtocolError> {
        let (name, params) = parse_spec(spec)?;
        match self.entries.iter().find(|e| e.name == name) {
            Some(entry) => (entry.factory)(&params),
            None => Err(ProtocolError::UnknownProtocol {
                spec: spec.to_string(),
                known: self.known(),
            }),
        }
    }
}

impl Default for ProtocolRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// The registry of protocols defined at this crate's layer: `clustering`
/// (Lemma 2.5) and `lb_sweep` (the bare Local-Broadcast stress loop).
/// Downstream crates extend it — use `energy_bfs::protocol::registry()` for
/// the full set including the BFS drivers.
pub fn base_registry() -> ProtocolRegistry {
    let mut r = ProtocolRegistry::new();
    r.register(
        "clustering",
        "distributed MPX clustering (Lemma 2.5); b = integral 1/β (default 4)",
        |params| {
            params.ensure_known_keys(&["b"])?;
            let inv_beta = params.get_u64("b", 4)?;
            if inv_beta == 0 {
                return Err(params.invalid("parameter b must be ≥ 1"));
            }
            Ok(Box::new(ClusteringProtocol { inv_beta }))
        },
    );
    r.register(
        "lb_sweep",
        "rotating single-sender Local-Broadcast stress loop; r = rounds (default 16)",
        |params| {
            params.ensure_known_keys(&["r"])?;
            let rounds = params.get_u64("r", 16)?;
            Ok(Box::new(LbSweepProtocol { rounds }))
        },
    );
    r.register(
        "hyperball",
        "HyperBall neighborhood-function sketch; p = register bits (default 6), rounds = bound",
        |params| {
            Ok(Box::new(crate::sketch::HyperballProtocol::from_params(
                params,
            )?))
        },
    );
    r
}

/// The distributed MPX clustering of Lemma 2.5 as a [`Protocol`]: grows
/// `cluster(G, β)` with `1/β = inv_beta`, seeding the shared-randomness tags
/// from the input seed. Output: [`ProtocolOutput::Clustering`].
#[derive(Clone, Debug)]
pub struct ClusteringProtocol {
    /// The integral `1/β` of the MPX growth.
    pub inv_beta: u64,
}

impl Protocol for ClusteringProtocol {
    fn name(&self) -> ProtocolId {
        ProtocolId::new(format!("clustering_b{}", self.inv_beta))
    }

    fn execute(
        &self,
        net: &mut dyn RadioStack,
        input: &ProtocolInput,
        _frame: &mut LbFrame,
    ) -> ProtocolOutput {
        let cfg = ClusteringConfig::new(self.inv_beta);
        let mut rng = ChaCha8Rng::seed_from_u64(input.seed);
        ProtocolOutput::Clustering(cluster_distributed(net, &cfg, &mut rng))
    }
}

/// A bare Local-Broadcast stress loop: in round `r`, node `r mod n` sends
/// and everyone else listens. Most receivers are outside the sender's
/// neighbourhood — exactly the sparse-neighbourhood regime where the
/// CD-aware Decay variant terminates early — so running it under `physical`
/// and `physical_cd` stacks measures the collision-detection saving.
/// Output: [`ProtocolOutput::Deliveries`].
#[derive(Clone, Debug)]
pub struct LbSweepProtocol {
    /// Number of Local-Broadcast rounds.
    pub rounds: u64,
}

impl Protocol for LbSweepProtocol {
    fn name(&self) -> ProtocolId {
        ProtocolId::new(format!("lb_sweep_{}", self.rounds))
    }

    fn execute(
        &self,
        net: &mut dyn RadioStack,
        _input: &ProtocolInput,
        frame: &mut LbFrame,
    ) -> ProtocolOutput {
        let n = net.num_nodes();
        let mut delivered = 0u64;
        for r in 0..self.rounds {
            frame.clear();
            let src = (r as usize) % n;
            frame.add_sender(src, Msg::words(&[r]));
            for v in 0..n {
                if v != src {
                    frame.add_receiver(v);
                }
            }
            net.local_broadcast(frame);
            delivered += frame.delivered().len() as u64;
        }
        ProtocolOutput::Deliveries(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StackBuilder;
    use radio_graph::generators;
    use radio_sim::EnergyModel;

    #[test]
    fn registry_resolves_specs_with_and_without_params() {
        let r = base_registry();
        assert_eq!(r.get("clustering").unwrap().name(), "clustering_b4");
        assert_eq!(r.get("clustering:b=7").unwrap().name(), "clustering_b7");
        assert_eq!(r.get("lb_sweep:r=3").unwrap().name(), "lb_sweep_3");
        assert_eq!(r.known(), vec!["clustering", "lb_sweep", "hyperball"]);
        assert!(r.help().contains("clustering"));
    }

    #[test]
    fn registry_rejects_unknown_and_malformed_specs_with_typed_errors() {
        let r = base_registry();
        match r.get("warp_drive") {
            Err(ProtocolError::UnknownProtocol { known, .. }) => {
                assert!(known.contains(&"clustering"))
            }
            other => panic!(
                "expected UnknownProtocol, got {other:?}",
                other = other.err()
            ),
        }
        assert!(matches!(
            r.get("clustering:b=zero"),
            Err(ProtocolError::InvalidSpec { .. })
        ));
        assert!(matches!(
            r.get("clustering:b"),
            Err(ProtocolError::InvalidSpec { .. })
        ));
        assert!(matches!(
            r.get("clustering:q=4"),
            Err(ProtocolError::InvalidSpec { .. })
        ));
        assert!(matches!(
            r.get("clustering:b=0"),
            Err(ProtocolError::InvalidSpec { .. })
        ));
        // Duplicate keys are a conflict, not a silent first-wins.
        assert!(matches!(
            r.get("clustering:b=2,b=9"),
            Err(ProtocolError::InvalidSpec { .. })
        ));
        // Errors render with the registry's known-protocol list.
        let Err(err) = r.get("warp_drive") else {
            panic!("warp_drive resolved");
        };
        let msg = err.to_string();
        assert!(msg.contains("lb_sweep"), "{msg}");
    }

    #[test]
    fn clustering_protocol_matches_the_direct_call() {
        let g = generators::grid(8, 8);
        let seed = 11u64;
        let report = {
            let mut net = StackBuilder::new(g.clone()).with_seed(seed).build();
            base_registry()
                .get("clustering:b=3")
                .unwrap()
                .run(&mut net, &ProtocolInput::from_seed(seed))
                .unwrap()
        };
        let (direct, view) = {
            let mut net = StackBuilder::new(g).with_seed(seed).build();
            let cfg = ClusteringConfig::new(3);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let state = cluster_distributed(&mut net, &cfg, &mut rng);
            (state, net.energy_view())
        };
        let state = report.output.clustering().expect("clustering output");
        assert_eq!(state.cluster_of, direct.cluster_of);
        assert_eq!(state.centers, direct.centers);
        assert_eq!(report.outcome(), direct.num_clusters() as u64);
        assert_eq!(report.energy, view, "energy diff must equal the full view");
    }

    #[test]
    fn lb_sweep_counts_deliveries_and_reports_physical_columns() {
        let g = generators::path(8);
        let mut net = StackBuilder::new(g)
            .physical(EnergyModel::Uniform)
            .with_seed(5)
            .build();
        let report = base_registry()
            .get("lb_sweep:r=4")
            .unwrap()
            .run(&mut net, &ProtocolInput::from_seed(5))
            .unwrap();
        assert_eq!(report.lb_calls(), 4);
        assert!(report.outcome() >= 1);
        assert!(report.physical_slots().unwrap() > 0);
    }

    #[test]
    fn report_json_is_null_stable_on_abstract_stacks() {
        let g = generators::path(4);
        let mut net = StackBuilder::new(g).build();
        let report = base_registry()
            .get("lb_sweep:r=1")
            .unwrap()
            .run(&mut net, &ProtocolInput::default())
            .unwrap();
        assert_eq!(report.energy.max_physical_energy(), None);
        assert_eq!(report.physical_slots(), None);
    }

    #[test]
    fn capability_gate_runs_before_any_call() {
        // A protocol requiring CD on a stack without it: typed error, and
        // the stack's counters stay untouched.
        struct NeedsCd;
        impl Protocol for NeedsCd {
            fn name(&self) -> ProtocolId {
                ProtocolId::new("needs_cd")
            }
            fn requires(&self) -> Capabilities {
                Capabilities {
                    collision_detection: radio_sim::CollisionDetection::Receiver,
                    ..Capabilities::baseline()
                }
            }
            fn execute(
                &self,
                net: &mut dyn RadioStack,
                _input: &ProtocolInput,
                frame: &mut LbFrame,
            ) -> ProtocolOutput {
                frame.clear();
                frame.add_sender(0, Msg::words(&[1]));
                frame.add_receiver(1);
                net.local_broadcast(frame);
                ProtocolOutput::Deliveries(frame.delivered().len() as u64)
            }
        }
        let g = generators::path(3);
        let mut plain = StackBuilder::new(g.clone()).build();
        match NeedsCd.run(&mut plain, &ProtocolInput::default()) {
            Err(ProtocolError::MissingCapability {
                protocol,
                available,
                ..
            }) => {
                assert_eq!(protocol, "needs_cd");
                assert_eq!(available, "abstract");
            }
            other => panic!("expected MissingCapability, got {:?}", other.err()),
        }
        assert_eq!(plain.lb_time(), 0, "gate must fire before any call");
        let mut cd = StackBuilder::new(g).with_cd().build();
        assert!(NeedsCd.run(&mut cd, &ProtocolInput::default()).is_ok());
    }
}
