//! Batched multi-seed scenario runner.
//!
//! A [`Scenario`] is a declarative sweep — a graph family, a list of sizes,
//! a list of seeds, a protocol, and a [`StackSpec`] choosing the backend —
//! and the runner executes the full cartesian product, emitting one
//! [`ScenarioRecord`] of energy/time metrics per (size, seed) cell. Within
//! one size the graph is built once and shared by every seed as one
//! `Arc<Graph>`; each cell allocates one [`radio_protocols::LbFrame`] and
//! reuses it across all of its Local-Broadcast calls.
//!
//! The stack dimension rides the [`StackBuilder`] API: the same scenario
//! can run on the paper's abstract accounting backend, on the slot-accurate
//! physical backend, or on the physical backend with receiver-side
//! collision detection (where Local-Broadcast switches to the CD-aware
//! Decay variant) — and the records then carry slot-level energy columns.
//!
//! Protocols are dispatched through `energy_bfs::protocol::registry()`: the
//! [`Protocol`] enum here is only a thin parser mapping each variant to a
//! registry spec ([`Protocol::spec`]), resolved once per scenario and
//! shared across the worker pool. Capability mismatches (a CD protocol on a
//! no-CD stack) surface as the registry's typed error, raised before a
//! single Local-Broadcast is issued.
//!
//! Records serialize to JSON with a stable field order and no wall-clock
//! fields, so a sweep is byte-for-byte reproducible: same scenarios + same
//! seeds ⇒ identical JSON. That property is what lets sweeps be diffed
//! across commits the way `BENCH_*.json` files are.
//!
//! Determinism is also what makes records *cacheable*: a cell's record is a
//! pure function of its [`ResultKey`] (scenario, family, target size, seed,
//! protocol spec, stack, active set) plus the engine fingerprint, so the
//! runner consults a [`ResultStore`] before dispatching anything and
//! computes only the absent cells — the incremental-sweep discipline behind
//! `experiments`' warm re-runs and the `serve` mode.
//!
//! The runner has one entry point, [`run_batch_with_stores`], and one
//! executor, a [`WorkPool`]. Seeds within a scenario are independent — each
//! (size, seed) cell builds its own seeded stack and draws from its own
//! seeded RNG — so the missing cells of a whole batch go to the pool as one
//! work-item set, and results are collected **by index, not completion
//! order**. The byte-identical-JSON contract therefore holds for *every*
//! thread count; [`RunnerConfig::threads`]` = 1` is one pool worker running
//! the cells in order. [`run_scenarios_with_stores`] is the in-order list
//! form over one pool that the CLI sweep uses. The conformance tests in
//! `tests/determinism.rs` and the property tests in
//! `crates/bench/tests/properties.rs` pin parallel output to serial output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use radio_graph::dataset::{self, DatasetCache, DatasetKey};
use radio_graph::diameter::is_nearly_three_halves_approx;
use radio_graph::lower_bound::build_disjointness_graph;
use radio_graph::{generators, Graph};
use radio_protocols::protocol::{
    Protocol as ProtocolImpl, ProtocolError, ProtocolInput, ProtocolRegistry,
};
use radio_protocols::{EnergyModel, RadioStack, Stack, StackBuilder};

use crate::json::escape;
use crate::pool::WorkPool;
use crate::results::{ResultKey, ResultStore};

/// Graph family of a scenario. `size` is always the *target node count*;
/// families that cannot hit it exactly (grids, trees, disjointness
/// instances) build the largest instance not exceeding it and report the
/// realized `n` in the record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// Path graph `P_n`.
    Path,
    /// Cycle graph `C_n`.
    Cycle,
    /// Square grid with side `⌊√size⌋`.
    Grid,
    /// The same square grid re-labelled along the Hilbert space-filling
    /// curve, so CSR neighbour blocks of curve-adjacent vertices sit close
    /// in memory (the COST-style cache-aware layout). Isomorphic to
    /// [`Family::Grid`] of the same size with vertex 0 (the BFS source)
    /// fixed; **opt-in per scenario** — never substituted into existing
    /// families, because relabelling changes neighbour iteration order and
    /// with it any RNG-ordered delivery draw.
    GridHilbert,
    /// Complete `arity`-ary tree with as many full levels as fit in `size`.
    Tree {
        /// Branching factor (≥ 2).
        arity: usize,
    },
    /// Star graph (one hub, `size − 1` leaves) — the maximum-contention
    /// workload of the hardness experiments.
    Star,
    /// Lollipop: a clique of `⌊size/4⌋` vertices dragging a path — the
    /// classic hard case for sweep-style protocols.
    Lollipop,
    /// The complete graph `K_n` — one half of the Theorem 5.1 hard pair.
    Complete,
    /// `K_n − e` (the edge between vertices 1 and 2 removed) — the other
    /// half of the Theorem 5.1 pair; distinguishing it from `K_n` is what
    /// costs Ω(n) energy.
    CompleteMinusEdge,
    /// A Theorem 5.2 set-disjointness instance: the largest universe
    /// `k = 2^ℓ` with `k + 2ℓ + 2 ≤ size`, with `A` the lower half of the
    /// universe and `B` either the upper half (`intersecting: false`,
    /// diameter 2) or also the lower half (`intersecting: true`,
    /// diameter 3) — the reduction's 2-vs-3 diameter gap.
    Disjointness {
        /// Whether the two encoded sets intersect.
        intersecting: bool,
    },
}

impl Family {
    /// A printable name for tables and JSON.
    pub fn label(&self) -> String {
        match self {
            Family::Path => "path".into(),
            Family::Cycle => "cycle".into(),
            Family::Grid => "grid".into(),
            Family::GridHilbert => "grid_hilbert".into(),
            Family::Tree { arity } => format!("tree{arity}"),
            Family::Star => "star".into(),
            Family::Lollipop => "lollipop".into(),
            Family::Complete => "kn".into(),
            Family::CompleteMinusEdge => "kn_minus_e".into(),
            Family::Disjointness { intersecting } => {
                if *intersecting {
                    "disj_overlap".into()
                } else {
                    "disj_disjoint".into()
                }
            }
        }
    }

    /// Builds the instance for the given target node count.
    pub fn build(&self, size: usize) -> Graph {
        let size = size.max(2);
        match self {
            Family::Path => generators::path(size),
            Family::Cycle => generators::cycle(size.max(3)),
            Family::Grid => {
                let side = (size as f64).sqrt().floor() as usize;
                generators::grid(side.max(2), side.max(2))
            }
            Family::GridHilbert => {
                let side = ((size as f64).sqrt().floor() as usize).max(2);
                dataset::hilbert::relabeled_grid(side, side)
            }
            Family::Tree { arity } => {
                let k = (*arity).max(2);
                let mut levels = 2usize;
                // Largest complete k-ary tree with at most `size` nodes.
                while tree_nodes(k, levels + 1) <= size {
                    levels += 1;
                }
                generators::complete_k_ary_tree(k, levels)
            }
            Family::Star => generators::star(size),
            Family::Lollipop => {
                // Clamp the clique to the target so tiny sizes degrade to a
                // bare clique instead of underflowing the tail length.
                let clique = (size / 4).max(3).min(size);
                generators::lollipop(clique, size - clique)
            }
            Family::Complete => generators::complete(size.max(3)),
            Family::CompleteMinusEdge => generators::complete_minus_edge(size.max(3), 1, 2),
            Family::Disjointness { intersecting } => {
                // Largest universe k = 2^ℓ with k + 2ℓ + 2 ≤ size (ℓ ≥ 2).
                let mut ell = 2u32;
                while (1usize << (ell + 1)) + 2 * (ell as usize + 1) + 2 <= size {
                    ell += 1;
                }
                let k = 1u64 << ell;
                let set_a: Vec<u64> = (0..k / 2).collect();
                let set_b: Vec<u64> = if *intersecting {
                    (0..k / 2).collect()
                } else {
                    (k / 2..k).collect()
                };
                build_disjointness_graph(&set_a, &set_b, ell).graph
            }
        }
    }

    /// The inverse of [`Family::label`]: parses a family label back into
    /// the family — how the `serve` mode's ad-hoc requests name workloads.
    /// `tree{k}` decodes the arity (≥ 2); an unknown label is `None`.
    pub fn parse(label: &str) -> Option<Family> {
        Some(match label {
            "path" => Family::Path,
            "cycle" => Family::Cycle,
            "grid" => Family::Grid,
            "grid_hilbert" => Family::GridHilbert,
            "star" => Family::Star,
            "lollipop" => Family::Lollipop,
            "kn" => Family::Complete,
            "kn_minus_e" => Family::CompleteMinusEdge,
            "disj_overlap" => Family::Disjointness { intersecting: true },
            "disj_disjoint" => Family::Disjointness {
                intersecting: false,
            },
            other => {
                let arity: usize = other.strip_prefix("tree")?.parse().ok()?;
                if arity < 2 {
                    return None;
                }
                Family::Tree { arity }
            }
        })
    }

    /// The content-address of this family's instance at the given *target*
    /// size, for [`DatasetCache`] lookups. [`Family::label`] already encodes
    /// every generator parameter (arity, intersection, layout), so the label
    /// is the whole key family and the params field stays empty; two
    /// families whose labels differ can never share an artifact.
    pub fn dataset_key(&self, size: usize) -> DatasetKey {
        DatasetKey::new(self.label(), "", size)
    }
}

/// The inverse of `EnergyModel::label`: `uniform`, or `w{listen}l{transmit}t`
/// (e.g. `w1l4t` = listen 1, transmit 4).
fn parse_energy_model(label: &str) -> Option<EnergyModel> {
    if label == "uniform" {
        return Some(EnergyModel::Uniform);
    }
    let (listen, transmit) = label
        .strip_prefix('w')?
        .strip_suffix('t')?
        .split_once('l')?;
    Some(EnergyModel::Weighted {
        listen: listen.parse().ok()?,
        transmit: transmit.parse().ok()?,
    })
}

/// Number of nodes of the complete `k`-ary tree with `levels` levels.
fn tree_nodes(k: usize, levels: usize) -> usize {
    let mut total = 0usize;
    let mut layer = 1usize;
    for _ in 0..levels {
        total = total.saturating_add(layer);
        layer = layer.saturating_mul(k);
    }
    total
}

/// Which [`RadioStack`] backend a scenario runs on — the stack dimension of
/// the sweep grid, mapped 1:1 onto [`StackBuilder`] calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackSpec {
    /// The paper's LB-unit accounting backend.
    Abstract,
    /// The LB-unit accounting backend with receiver-side collision
    /// detection: deliveries are still counted abstractly (no Decay slots),
    /// but the frame's feedback lane carries per-receiver
    /// `Silence`/`Noise` verdicts, so CD protocols run under the paper's
    /// analysis accounting. Records label the backend `abstract_cd`.
    AbstractCd,
    /// The slot-accurate Decay-expanding backend; with `cd` the stack runs
    /// the CD-aware Decay variant and records fewer slots on sparse
    /// neighbourhoods. `model` weights the slot-level counters (the paper's
    /// "other energy models" discussion): under
    /// [`EnergyModel::Weighted`] the record's physical-energy column
    /// charges listens and transmits at their configured rates.
    Physical {
        /// Enable receiver-side collision detection.
        cd: bool,
        /// How listening/transmitting slots convert into energy.
        model: EnergyModel,
    },
    /// The physical backend with weight-ratio-aware Decay parameters:
    /// instead of the ratio-blind `DecayParams::for_network` default, the
    /// stack is built with [`radio_sim::DecayParams::for_energy_model`],
    /// which trades delivery slack for fewer slots when the energy model
    /// charges listens and transmits at skewed rates. Labelled by appending
    /// `:tuned` to the corresponding `Physical` label (`physical:w4l1t:tuned`).
    /// Strictly opt-in: no pre-existing scenario uses it, so the frozen
    /// record surface is untouched.
    PhysicalTuned {
        /// Enable receiver-side collision detection.
        cd: bool,
        /// How listening/transmitting slots convert into energy.
        model: EnergyModel,
    },
}

impl StackSpec {
    /// The slot-accurate physical backend under the paper's uniform model.
    pub fn physical(cd: bool) -> Self {
        StackSpec::Physical {
            cd,
            model: EnergyModel::Uniform,
        }
    }

    /// A canonical label naming the stack *spec* (not the built stack):
    /// `abstract`, `abstract_cd`, `physical`, `physical_cd`, with a
    /// non-uniform energy model appended as `physical:w1l4t`. This is the
    /// stack coordinate of a [`ResultKey`] and the `stack` field of serve
    /// requests; [`StackSpec::parse`] is its exact inverse (pinned by a
    /// test below).
    pub fn label(&self) -> String {
        match self {
            StackSpec::Abstract => "abstract".into(),
            StackSpec::AbstractCd => "abstract_cd".into(),
            StackSpec::Physical { cd, model } => {
                let base = if *cd { "physical_cd" } else { "physical" };
                match model {
                    EnergyModel::Uniform => base.into(),
                    weighted => format!("{base}:{}", weighted.label()),
                }
            }
            StackSpec::PhysicalTuned { cd, model } => {
                let base = StackSpec::Physical {
                    cd: *cd,
                    model: *model,
                }
                .label();
                format!("{base}:tuned")
            }
        }
    }

    /// The inverse of [`StackSpec::label`]; an unknown label is `None`.
    pub fn parse(label: &str) -> Option<StackSpec> {
        match label {
            "abstract" => return Some(StackSpec::Abstract),
            "abstract_cd" => return Some(StackSpec::AbstractCd),
            _ => {}
        }
        if let Some(base) = label.strip_suffix(":tuned") {
            return match StackSpec::parse(base)? {
                StackSpec::Physical { cd, model } => Some(StackSpec::PhysicalTuned { cd, model }),
                _ => None,
            };
        }
        let (base, model) = match label.split_once(':') {
            None => (label, EnergyModel::Uniform),
            Some((base, model)) => (base, parse_energy_model(model)?),
        };
        let cd = match base {
            "physical" => false,
            "physical_cd" => true,
            _ => return None,
        };
        Some(StackSpec::Physical { cd, model })
    }

    /// Builds the stack for one seeded run over a shared topology — an
    /// `Arc` refcount bump, never a CSR copy, no matter how many cells the
    /// sweep fans out. The record's backend and energy-model labels are
    /// read back from the built stack's `Capabilities`, so the JSON columns
    /// can never drift from what the stack actually is.
    pub fn build(&self, graph: Arc<Graph>, seed: u64) -> Stack {
        // Captured before the builder takes ownership; only the tuned
        // variant reads them.
        let (num_nodes, max_degree) = (graph.num_nodes(), graph.max_degree());
        let builder = StackBuilder::new(graph).with_seed(seed);
        match self {
            StackSpec::Abstract => builder.build(),
            StackSpec::AbstractCd => builder.with_cd().build(),
            StackSpec::Physical { cd, model } => {
                let builder = builder.physical(*model);
                if *cd {
                    builder.with_cd().build()
                } else {
                    builder.build()
                }
            }
            StackSpec::PhysicalTuned { cd, model } => {
                // The same `(n, Δ)` derivation as the physical channel's
                // ratio-blind default, routed through the weight-ratio-aware
                // constructor instead.
                let params = radio_sim::DecayParams::for_energy_model(
                    num_nodes.max(2),
                    max_degree.max(1),
                    *model,
                );
                let builder = builder.physical(*model).with_decay_params(params);
                if *cd {
                    builder.with_cd().build()
                } else {
                    builder.build()
                }
            }
        }
    }
}

/// Protocol executed on each (size, seed) cell.
///
/// Since the `Protocol`-trait redesign this enum is only a thin, typo-proof
/// parser over the registry: every variant maps to a spec string
/// ([`Protocol::spec`]) that `energy_bfs::protocol::registry()` resolves
/// into the boxed protocol the runner actually executes. New workloads are
/// registry entries; a variant here is only warranted when the default
/// sweep wants a declarative handle on one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Full-depth trivial wavefront BFS from node 0 (Section 4.3 baseline).
    TrivialBfs,
    /// The same wavefront with an explicit depth horizon `D` — the `xl-`
    /// sweep workload: on million-node instances the full-depth wavefront
    /// is `O(n·D)` and would dwarf the sweep, while a bounded horizon keeps
    /// per-cell work proportional to the explored ball.
    TrivialBfsDepth {
        /// Depth horizon (≥ 1).
        depth: u64,
    },
    /// The wavefront exploiting receiver-side collision detection: `Noise`
    /// verdicts settle exactly and an all-`Silence` round halts the run.
    /// Requires a CD-capable [`StackSpec`] (the registry's capability gate
    /// enforces this with a typed error).
    TrivialBfsCd,
    /// Unbounded Decay-style wavefront BFS: advances until a sweep settles
    /// nothing new.
    DecayBfs,
    /// Recursive BFS from node 0 with `1/β ≈ √D` (the paper's tuning),
    /// hierarchy rebuilt per seed.
    RecursiveBfs,
    /// Distributed MPX clustering (Lemma 2.5) with the given `1/β`.
    Clustering {
        /// The integral `1/β` of the MPX growth.
        inv_beta: u64,
    },
    /// A bare Local-Broadcast stress loop: in round `r`, node `r mod n`
    /// sends and everyone else listens. Most receivers are outside the
    /// sender's neighbourhood, which is exactly the sparse-neighbourhood
    /// regime where the CD-aware Decay variant terminates early — run it
    /// under `physical` and `physical_cd` to measure the saving.
    LbSweep {
        /// Number of Local-Broadcast rounds.
        rounds: u64,
    },
    /// An arbitrary registry spec with its resolved label — what the
    /// `serve` mode's ad-hoc requests parse into. Construct through
    /// [`Protocol::from_spec`], which validates the spec against the
    /// registry and captures the resolved protocol's name as the label;
    /// a hand-built variant with a label the registry would not produce
    /// breaks the label/registry agreement the runner relies on.
    Custom {
        /// The registry spec, e.g. `recursive:b=8`.
        spec: String,
        /// The resolved protocol's name (what records carry).
        label: String,
    },
}

impl Protocol {
    /// The registry spec this variant resolves through, e.g.
    /// `clustering:b=4`. `registry().get(&p.spec())` always succeeds, and
    /// the resolved protocol's name equals [`Protocol::label`] — pinned by a
    /// test below.
    pub fn spec(&self) -> String {
        match self {
            Protocol::TrivialBfs => "trivial_bfs".into(),
            Protocol::TrivialBfsDepth { depth } => format!("trivial_bfs:depth={depth}"),
            Protocol::TrivialBfsCd => "trivial_bfs_cd".into(),
            Protocol::DecayBfs => "decay_bfs".into(),
            Protocol::RecursiveBfs => "recursive".into(),
            Protocol::Clustering { inv_beta } => format!("clustering:b={inv_beta}"),
            Protocol::LbSweep { rounds } => format!("lb_sweep:r={rounds}"),
            Protocol::Custom { spec, .. } => spec.clone(),
        }
    }

    /// A printable name for tables and JSON (the resolved protocol's id).
    pub fn label(&self) -> String {
        match self {
            Protocol::TrivialBfs => "trivial_bfs".into(),
            Protocol::TrivialBfsDepth { depth } => format!("trivial_bfs_d{depth}"),
            Protocol::TrivialBfsCd => "trivial_bfs_cd".into(),
            Protocol::DecayBfs => "decay_bfs".into(),
            Protocol::RecursiveBfs => "recursive_bfs".into(),
            Protocol::Clustering { inv_beta } => format!("clustering_b{inv_beta}"),
            Protocol::LbSweep { rounds } => format!("lb_sweep_{rounds}"),
            Protocol::Custom { label, .. } => label.clone(),
        }
    }

    /// Parses an arbitrary registry spec into a [`Protocol::Custom`],
    /// validating it through `registry` — an unknown or malformed spec is
    /// the registry's typed error (the same one the CLI's exit-2 path and
    /// the server's structured error response surface to users).
    pub fn from_spec(spec: &str, registry: &ProtocolRegistry) -> Result<Protocol, ProtocolError> {
        let resolved = registry.get(spec)?;
        Ok(Protocol::Custom {
            spec: spec.to_string(),
            label: resolved.name().as_str().to_string(),
        })
    }
}

/// One declarative sweep: `family × sizes × seeds`, one protocol, one
/// backend.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Name of the sweep (appears in every record).
    pub name: String,
    /// Graph family.
    pub family: Family,
    /// Target node counts.
    pub sizes: Vec<usize>,
    /// RNG seeds; one run per seed per size.
    pub seeds: Vec<u64>,
    /// Protocol to execute.
    pub protocol: Protocol,
    /// Backend the protocol runs on.
    pub stack: StackSpec,
}

impl Scenario {
    /// The [`ResultStore`] identity of this scenario's (target size, seed)
    /// cell, optionally under a restricted active set. Everything the
    /// cell's deterministic record depends on is in here — scenario name,
    /// family, target size, seed, protocol spec, stack label, active set —
    /// and the engine fingerprint rides in the artifact header.
    pub fn result_key(&self, target_n: usize, seed: u64, active: Option<&[usize]>) -> ResultKey {
        ResultKey {
            scenario: self.name.clone(),
            family: self.family.label(),
            target_n,
            seed,
            protocol_spec: self.protocol.spec(),
            stack: self.stack.label(),
            active: active.map(<[usize]>::to_vec),
        }
    }
}

/// Deterministic per-run metrics of one (size, seed) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioRecord {
    /// Scenario name.
    pub scenario: String,
    /// Family label.
    pub family: String,
    /// Realized node count.
    pub n: usize,
    /// Seed of this run.
    pub seed: u64,
    /// Protocol label.
    pub protocol: String,
    /// Backend label (`abstract`, `physical`, `physical_cd`).
    pub backend: String,
    /// Energy-model label (`uniform`, or e.g. `w1l4t` for
    /// `Weighted { listen: 1, transmit: 4 }`), read back from the stack's
    /// capabilities.
    pub energy_model: String,
    /// Local-Broadcast calls (time in LB units).
    pub lb_calls: u64,
    /// Maximum per-node LB participations (the paper's energy measure).
    pub max_lb_energy: u64,
    /// Mean per-node LB participations.
    pub mean_lb_energy: f64,
    /// Maximum per-node physical energy (slots), physical backends only.
    pub max_physical_energy: Option<u64>,
    /// Elapsed physical slots, physical backends only.
    pub physical_slots: Option<u64>,
    /// Protocol-specific output size: vertices labelled (BFS), clusters
    /// formed (clustering), or deliveries (LB sweep); a cheap cross-seed
    /// sanity signal.
    pub outcome: u64,
    /// The *requested* node count of the cell — the `size` entry of the
    /// scenario, before the family rounded it to a realizable instance
    /// (grids to `⌊√size⌋²`, trees to full levels, …). Equal to [`n`] for
    /// exact families; appended as the last JSON column so size-rounding
    /// families can't mislabel cells (`grid` at target 1000 realizes 961).
    ///
    /// [`n`]: ScenarioRecord::n
    pub target_n: usize,
    /// Diameter estimate reported by the protocol — `Some` exactly for the
    /// diameter-family workloads (`diameter_*` / `hyperball_*` labels),
    /// `None` for every other protocol. Appended after [`target_n`] and
    /// emitted in JSON only when present, so pre-existing records stay
    /// byte-identical.
    ///
    /// [`target_n`]: ScenarioRecord::target_n
    pub estimate: Option<u64>,
    /// The exact BFS diameter of the cell's graph, computed centrally as
    /// ground truth next to [`estimate`] — only on diameter-family cells
    /// small enough to afford all-pairs BFS (`n ≤ 16384`; xl sketch cells
    /// carry `None`, which is the point of running a sketch there).
    ///
    /// [`estimate`]: ScenarioRecord::estimate
    pub exact: Option<u64>,
    /// Whether [`estimate`] lands inside its method's pinned envelope
    /// against [`exact`]: `[D/2, D]` for `two_approx`, `[⌊2D/3⌋, D]` for
    /// `three_halves_approx`, relative error `1.04/√2^p` for hyperball.
    /// `Some` exactly when both columns are.
    ///
    /// [`estimate`]: ScenarioRecord::estimate
    /// [`exact`]: ScenarioRecord::exact
    pub agrees: Option<bool>,
}

/// Execution knobs of the scenario runner: thread count and progress
/// verbosity. The *output* (the record vector, and hence the JSON) is
/// identical for every configuration — only wall-clock and stderr differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Worker threads of the pool the cells run on — built per runner call,
    /// or once per `serve`. `1` is one worker running the cells in order;
    /// `0` is treated as 1. The default is the machine's available
    /// parallelism.
    pub threads: usize,
    /// Suppress the per-scenario completion lines on stderr. Progress is on
    /// by default so a hung sweep's log shows where it stopped.
    pub quiet: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            threads: crate::pool::available_threads(),
            quiet: false,
        }
    }
}

impl RunnerConfig {
    /// One worker with progress suppressed — the reference configuration
    /// the conformance tests compare every other thread count against.
    pub fn serial() -> Self {
        RunnerConfig {
            threads: 1,
            quiet: true,
        }
    }

    /// `threads` workers, progress suppressed (the shape tests want).
    pub fn with_threads(threads: usize) -> Self {
        RunnerConfig {
            threads,
            quiet: true,
        }
    }
}

/// One dispatched cell, with everything a pool worker needs *owned*
/// (`Arc`s over the shared pieces): pool jobs are `'static`, so the job
/// list moves into the pool behind one `Arc`.
struct CellJob {
    /// Index of the originating batch item.
    item: usize,
    /// Cell index within that item (size-major, seed-minor).
    cell: usize,
    scenario: Arc<Scenario>,
    protocol: Arc<dyn ProtocolImpl>,
    /// The shared graph, its realized `n`, and the target size.
    graph: (Arc<Graph>, usize, usize),
    seed: u64,
    active: Option<Arc<[usize]>>,
}

/// Runs one (size, seed) cell: builds the seeded stack, dispatches the
/// resolved protocol on a fresh frame, and reads the record off the
/// report's energy view (a diff over exactly this run — equal to the
/// stack's whole view, since the stack is fresh). Cells are pure in the
/// job — everything seeded is derived from `seed` — which is what makes
/// parallel execution record-identical to serial.
fn run_cell(job: &CellJob) -> ScenarioRecord {
    let (scenario, seed) = (&job.scenario, job.seed);
    let (g, n, target_n) = &job.graph;
    let (n, target_n) = (*n, *target_n);
    // `Arc::clone`, not `Graph::clone`: the per-cell graph cost is a
    // refcount bump, so setup no longer scales with |V| + |E| per seed.
    let mut net = scenario.stack.build(Arc::clone(g), seed);
    let mut input = ProtocolInput::from_seed(seed);
    if let Some(set) = &job.active {
        input = input.with_active(set.to_vec());
    }
    let report = job.protocol.run(&mut net, &input).unwrap_or_else(|e| {
        panic!(
            "scenario {:?} (protocol {}, seed {seed}): {e}",
            scenario.name,
            scenario.protocol.label()
        )
    });
    let caps = net.capabilities();
    let label = scenario.protocol.label();
    let estimate = report.output.diameter_estimate();
    let exact = match estimate {
        Some(_) if n <= EXACT_DIAMETER_CEILING => {
            radio_graph::diameter::exact_diameter(g).map(u64::from)
        }
        _ => None,
    };
    let agrees = match (estimate, exact) {
        (Some(est), Some(d)) => Some(diameter_agreement(&label, est, d)),
        _ => None,
    };
    ScenarioRecord {
        scenario: scenario.name.clone(),
        family: scenario.family.label(),
        n,
        seed,
        protocol: label,
        backend: caps.label(),
        energy_model: caps.energy_model.label(),
        lb_calls: report.energy.lb_time(),
        max_lb_energy: report.energy.max_lb_energy(),
        mean_lb_energy: report.energy.mean_lb_energy(),
        max_physical_energy: report.energy.max_physical_energy(),
        physical_slots: report.energy.physical_slots(),
        outcome: report.outcome(),
        target_n,
        estimate,
        exact,
        agrees,
    }
}

/// Largest `n` at which a diameter-family cell also computes the exact
/// all-pairs-BFS diameter as a ground-truth column. Above this the cell
/// records only the estimate — which is exactly the regime the sketch
/// exists for.
const EXACT_DIAMETER_CEILING: usize = 16_384;

/// The per-method agreement predicate behind the `agrees` column: does
/// `estimate` land inside the envelope its protocol promises against the
/// exact diameter `exact`?
///
/// * `diameter_two_approx` — Theorem 5.3: `estimate ∈ [⌈D/2⌉, D]`.
/// * `diameter_three_halves_approx` — Theorem 5.4: `estimate ∈ [⌊2D/3⌋, D]`
///   ([`is_nearly_three_halves_approx`]).
/// * `diameter_hyperball_p{p}…` / `hyperball_p{p}…` — the standard HLL
///   envelope, relative error `1.04/√2^p` (plus one round of slack for
///   tiny diameters, where a single register round is the resolution).
///
/// Unrecognized labels fall back to exact equality, which can only make
/// the column stricter, never silently pass.
pub fn diameter_agreement(label: &str, estimate: u64, exact: u64) -> bool {
    if label == "diameter_two_approx" {
        return estimate <= exact && 2 * estimate >= exact;
    }
    if label == "diameter_three_halves_approx" {
        return is_nearly_three_halves_approx(exact, estimate);
    }
    let hyper_p = label
        .strip_prefix("diameter_hyperball_p")
        .or_else(|| label.strip_prefix("hyperball_p"))
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u32>().ok()
        });
    match hyper_p {
        Some(p) => {
            let tol = radio_protocols::sketch::relative_error(p);
            let slack = (tol * exact as f64).ceil().max(1.0) as u64;
            estimate.abs_diff(exact) <= slack
        }
        None => estimate == exact,
    }
}

/// One work item of a batched run: a scenario plus an optional restricted
/// active set. A server `run` request decodes to a list of these; the CLI
/// sweep wraps one per scenario.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The sweep to run (or answer from the store).
    pub scenario: Scenario,
    /// Optional restricted active set threaded into every cell's
    /// [`ProtocolInput`].
    pub active: Option<Vec<usize>>,
}

/// What one [`BatchItem`] produced: its records in cell order plus exact
/// per-item accounting. `hits` counts cells answered by the store probe,
/// `computed` counts cells dispatched to workers — `hits + computed`
/// always equals `records.len()`, and summing these per-response fields
/// over all requests reconciles exactly with the store's global counters
/// (the counters are *moved* here by the probe itself, not re-derived
/// from racy global deltas).
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Records of every (size, seed) cell, size-major seed-minor.
    pub records: Vec<ScenarioRecord>,
    /// Cells answered by the result store.
    pub hits: u64,
    /// Cells computed fresh (and written back when a store is present).
    pub computed: u64,
}

/// Renders a caught panic payload the way `panic!` produced it — how a
/// cell's panic crosses from a pool worker to the caller, and how the
/// server turns a failed run into an error response.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "protocol execution failed".to_string()
    }
}

/// The runner's one entry point: runs a whole batch of items as **one
/// work-item set**, so a server request carrying many scenarios saturates
/// the pool instead of draining items one at a time.
///
/// Every (size, seed) cell's [`ResultKey`] is probed first — keys are over
/// the *target* size, so a fully warm item never materializes a graph at
/// all — and only the missing cells become jobs. Graphs are built lazily,
/// once per (item, size) with at least one miss, through the dataset cache
/// when one is given: artifacts round-trip the CSR exactly, so records are
/// byte-identical with and without a cache. Freshly computed records are
/// written back on the caller's thread. Because result artifacts
/// round-trip records bit-exactly, a warm run's record vector — and hence
/// its JSON — is byte-identical to a cold or uncached run at every thread
/// count.
///
/// The jobs run on `pool` — the server shares one persistent pool, so
/// concurrent requests interleave their cells on its FIFO queue — or, when
/// `pool` is `None` and some cell is missing, on a pool of
/// `config.threads` workers built for this call. A cell that panics (e.g.
/// a capability mismatch raised mid-run) re-panics on the caller's thread
/// with the original message, and no record of the batch is written back.
pub fn run_batch_with_stores(
    items: &[BatchItem],
    config: &RunnerConfig,
    datasets: Option<&DatasetCache>,
    results: Option<&ResultStore>,
    pool: Option<&WorkPool>,
) -> Vec<BatchOutcome> {
    // Probe phase: per item, cell order size-major seed-minor — the
    // serial order each item's record vector keeps.
    let mut slots: Vec<Vec<Option<ScenarioRecord>>> = items
        .iter()
        .map(|it| vec![None; it.scenario.sizes.len() * it.scenario.seeds.len()])
        .collect();
    let mut hits = vec![0u64; items.len()];
    if let Some(store) = results {
        for (k, item) in items.iter().enumerate() {
            let seeds = &item.scenario.seeds;
            if seeds.is_empty() {
                continue;
            }
            for (i, slot) in slots[k].iter_mut().enumerate() {
                let target_n = item.scenario.sizes[i / seeds.len()];
                let seed = seeds[i % seeds.len()];
                *slot = store.get(&item.scenario.result_key(
                    target_n,
                    seed,
                    item.active.as_deref(),
                ));
                if slot.is_some() {
                    hits[k] += 1;
                }
            }
        }
    }
    // Job phase: flatten the missing cells of every item into one list.
    // Protocols resolve once per item; graphs materialize once per
    // (item, size) with at least one miss, on the caller's thread.
    let mut jobs: Vec<CellJob> = Vec::new();
    for (k, item) in items.iter().enumerate() {
        let seeds = &item.scenario.seeds;
        let missing: Vec<usize> = slots[k]
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        if missing.is_empty() {
            continue;
        }
        let protocol: Arc<dyn ProtocolImpl> = Arc::from(
            energy_bfs::protocol::registry()
                .get(&item.scenario.protocol.spec())
                .unwrap_or_else(|e| panic!("scenario {:?}: {e}", item.scenario.name)),
        );
        let scenario = Arc::new(item.scenario.clone());
        let active: Option<Arc<[usize]>> = item.active.as_deref().map(Arc::from);
        let graphs: Vec<Option<(Arc<Graph>, usize, usize)>> = scenario
            .sizes
            .iter()
            .enumerate()
            .map(|(si, &size)| {
                if !missing.iter().any(|&i| i / seeds.len() == si) {
                    return None;
                }
                let g: Arc<Graph> = match datasets {
                    Some(c) => c.load_or_build(&scenario.family.dataset_key(size), || {
                        scenario.family.build(size)
                    }),
                    None => Arc::new(scenario.family.build(size)),
                };
                let n = g.num_nodes();
                Some((g, n, size))
            })
            .collect();
        for &i in &missing {
            let graph = graphs[i / seeds.len()]
                .as_ref()
                .expect("graph materialized for every size with a miss")
                .clone();
            jobs.push(CellJob {
                item: k,
                cell: i,
                scenario: Arc::clone(&scenario),
                protocol: Arc::clone(&protocol),
                graph,
                seed: seeds[i % seeds.len()],
                active: active.clone(),
            });
        }
    }
    let mut computed = vec![0u64; items.len()];
    if !jobs.is_empty() {
        let local;
        let pool = match pool {
            Some(pool) => pool,
            None => {
                local = WorkPool::new(config.threads);
                &local
            }
        };
        let jobs: Arc<Vec<CellJob>> = Arc::new(jobs);
        let pool_jobs = Arc::clone(&jobs);
        // Catch here (not only in the pool) so the panic *message* survives
        // the hop between threads. Slots come back in job order regardless
        // of scheduling.
        let records: Vec<ScenarioRecord> = pool
            .run_batch(jobs.len(), move |j| {
                catch_unwind(AssertUnwindSafe(|| run_cell(&pool_jobs[j]))).map_err(panic_message)
            })
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(record)) => record,
                Some(Err(msg)) => panic!("{msg}"),
                None => panic!("batch cell panicked in the worker pool"),
            })
            .collect();
        // Write-back on the caller's thread, in job order.
        for (job, record) in jobs.iter().zip(records) {
            if let Some(store) = results {
                let key = job
                    .scenario
                    .result_key(job.graph.2, record.seed, job.active.as_deref());
                store.put(&key, &record).unwrap_or_else(|e| {
                    panic!(
                        "scenario {:?}: writing result artifact: {e}",
                        job.scenario.name
                    )
                });
            }
            computed[job.item] += 1;
            slots[job.item][job.cell] = Some(record);
        }
    }
    slots
        .into_iter()
        .zip(hits)
        .zip(computed)
        .map(|((item_slots, hits), computed)| BatchOutcome {
            records: item_slots
                .into_iter()
                .map(|s| s.expect("every cell probed or computed"))
                .collect(),
            hits,
            computed,
        })
        .collect()
}

/// Runs `scenarios` in list order over one pool of `config.threads`
/// workers: each scenario is a one-item [`run_batch_with_stores`] call, so
/// the record stream is grouped by scenario exactly as in a serial run.
/// With a [`ResultStore`], an incremental sweep — one that appends
/// scenarios, seeds, or sizes to a previously stored sweep — computes
/// exactly the absent cells and answers the rest from artifacts; the
/// store's hit/miss counters accumulate across the list, and callers print
/// them once at the end (the `[results]` stderr line of the `experiments`
/// binary). Unless `config.quiet`, a completion line per scenario goes to
/// stderr, so a hung sweep's log shows where it stopped.
pub fn run_scenarios_with_stores(
    scenarios: &[Scenario],
    config: &RunnerConfig,
    datasets: Option<&DatasetCache>,
    results: Option<&ResultStore>,
) -> Vec<ScenarioRecord> {
    let pool = WorkPool::new(config.threads);
    let mut records = Vec::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        let item = BatchItem {
            scenario: scenario.clone(),
            active: None,
        };
        let recs = run_batch_with_stores(&[item], config, datasets, results, Some(&pool))
            .pop()
            .expect("one item in, one outcome out")
            .records;
        if !config.quiet {
            eprintln!(
                "[scenarios] {}/{} {}: {} records",
                i + 1,
                scenarios.len(),
                scenario.name,
                recs.len()
            );
        }
        records.extend(recs);
    }
    records
}

/// The default sweep wired into `experiments -- scenarios`: the PR-2 era
/// grid/tree/cluster/contention workloads at six seeds, plus 32-seed
/// statistical sweeps of the clustering, hardness (Theorems 5.1/5.2), and
/// Decay Local-Broadcast families — the regime where per-seed noise
/// averages out — and a `Weighted` energy-model dimension on the physical
/// backends (the paper's "other energy models" discussion: a radio whose
/// transmissions cost 4x a listen).
///
/// Appended after the PR-4 era families (order is part of the byte-stable
/// JSON contract, so additions are append-only): the `decay_bfs` wavefront
/// on the grid/tree/lollipop families, the `trivial_bfs_cd` twin of the
/// physical trivial-BFS scenario (CD-vs-no-CD per seed on identical
/// workloads), and the E-series weight-ratio sweep — `trivial_bfs` and
/// `decay_bfs` under listen:transmit ratios 1:1, 1:4, and 4:1.
pub fn default_scenarios() -> Vec<Scenario> {
    let seeds: Vec<u64> = (0..6).collect();
    let seeds32: Vec<u64> = (0..32).collect();
    let transmit_heavy = EnergyModel::Weighted {
        listen: 1,
        transmit: 4,
    };
    let mut out = vec![
        Scenario {
            name: "grid32-trivial".into(),
            family: Family::Grid,
            sizes: vec![1024],
            seeds: seeds.clone(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        },
        Scenario {
            name: "tree3-trivial".into(),
            family: Family::Tree { arity: 3 },
            sizes: vec![1093],
            seeds: seeds.clone(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        },
        Scenario {
            name: "path512-recursive".into(),
            family: Family::Path,
            sizes: vec![512],
            seeds: seeds.clone(),
            protocol: Protocol::RecursiveBfs,
            stack: StackSpec::Abstract,
        },
        // 32-seed clustering sweep: cluster counts vary per seed, so this
        // family is the one that actually needs statistical depth.
        Scenario {
            name: "grid32-clustering".into(),
            family: Family::Grid,
            sizes: vec![1024],
            seeds: seeds32.clone(),
            protocol: Protocol::Clustering { inv_beta: 4 },
            stack: StackSpec::Abstract,
        },
        Scenario {
            name: "lollipop-trivial".into(),
            family: Family::Lollipop,
            sizes: vec![2048],
            seeds: seeds.clone(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        },
        // Hardness families (Theorems 5.1 and 5.2) at 32 seeds: the
        // K_n / K_n − e pair under maximum contention, and both
        // disjointness diameters.
        Scenario {
            name: "kn-trivial".into(),
            family: Family::Complete,
            sizes: vec![192],
            seeds: seeds32.clone(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        },
        Scenario {
            name: "kn-minus-e-trivial".into(),
            family: Family::CompleteMinusEdge,
            sizes: vec![192],
            seeds: seeds32.clone(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        },
        Scenario {
            name: "disjointness-disjoint".into(),
            family: Family::Disjointness {
                intersecting: false,
            },
            sizes: vec![300],
            seeds: seeds32.clone(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        },
        Scenario {
            name: "disjointness-overlap".into(),
            family: Family::Disjointness { intersecting: true },
            sizes: vec![300],
            seeds: seeds32.clone(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        },
        // The physical backend as a scenario dimension: the same trivial
        // BFS, now paying real Decay slots — once under the paper's uniform
        // model, once on a transmit-heavy radio (identical slot counts, so
        // diffing the two isolates the pure weighting effect).
        Scenario {
            name: "grid16-trivial-physical".into(),
            family: Family::Grid,
            sizes: vec![256],
            seeds: seeds.clone(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::physical(false),
        },
        Scenario {
            name: "grid16-trivial-weighted".into(),
            family: Family::Grid,
            sizes: vec![256],
            seeds: seeds.clone(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Physical {
                cd: false,
                model: transmit_heavy,
            },
        },
    ];
    // The CD comparison family at 32 seeds: identical Decay sweeps on the
    // physical backend with and without receiver-side collision detection;
    // diff the max_physical_energy / physical_slots columns.
    for cd in [false, true] {
        out.push(Scenario {
            name: format!("path-lbsweep-{}", if cd { "cd" } else { "nocd" }),
            family: Family::Path,
            sizes: vec![256],
            seeds: seeds32.clone(),
            protocol: Protocol::LbSweep { rounds: 16 },
            stack: StackSpec::physical(cd),
        });
    }
    // The weighted model on the CD-aware decay: transmit-heavy radios make
    // the echo-slot sender retirement *more* valuable, since every retired
    // sender skips 4-unit transmit slots.
    out.push(Scenario {
        name: "path-lbsweep-cd-weighted".into(),
        family: Family::Path,
        sizes: vec![256],
        seeds: seeds32,
        protocol: Protocol::LbSweep { rounds: 16 },
        stack: StackSpec::Physical {
            cd: true,
            model: transmit_heavy,
        },
    });
    // ---- Append-only additions below (the records above are pinned
    // byte-for-byte across the Protocol-registry redesign). ----
    // The unbounded Decay wavefront on the structured families.
    for (name, family, size) in [
        ("grid32-decay", Family::Grid, 1024usize),
        ("tree3-decay", Family::Tree { arity: 3 }, 1093),
        ("lollipop-decay", Family::Lollipop, 2048),
    ] {
        out.push(Scenario {
            name: name.into(),
            family,
            sizes: vec![size],
            seeds: seeds.clone(),
            protocol: Protocol::DecayBfs,
            stack: StackSpec::Abstract,
        });
    }
    // The CD-exploiting trivial BFS, the per-seed twin of
    // `grid16-trivial-physical`: identical workload and seeds, so diffing
    // the physical columns isolates the collision-detection saving.
    out.push(Scenario {
        name: "grid16-trivial-physical-cd".into(),
        family: Family::Grid,
        sizes: vec![256],
        seeds: seeds.clone(),
        protocol: Protocol::TrivialBfsCd,
        stack: StackSpec::physical(true),
    });
    // E-series weight-ratio sweep (the paper's "other energy models"
    // discussion): the two wavefront baselines under listen:transmit
    // ratios 1:1, 1:4 (power-amplifier-bound radio), and 4:1
    // (downlink-heavy radio), all on the physical backend with identical
    // slot schedules per seed — only the energy_model column reweights.
    // `eseries-trivial-uniform` deliberately duplicates the workload of
    // `grid16-trivial-physical` (6 cheap cells): the E-series stays a
    // self-contained three-ratio family under one naming scheme, so its
    // consumers never need to know another scenario aliases the 1:1 row.
    let listen_heavy = EnergyModel::Weighted {
        listen: 4,
        transmit: 1,
    };
    for (pname, protocol) in [
        ("trivial", Protocol::TrivialBfs),
        ("decay", Protocol::DecayBfs),
    ] {
        for model in [EnergyModel::Uniform, transmit_heavy, listen_heavy] {
            out.push(Scenario {
                name: format!("eseries-{pname}-{}", model.label()),
                family: Family::Grid,
                sizes: vec![256],
                seeds: seeds.clone(),
                protocol: protocol.clone(),
                stack: StackSpec::Physical { cd: false, model },
            });
        }
    }
    // PR-6 additions (append-only, after everything above): the abstract-CD
    // backend as a sweep coordinate, exercised at the word-parallel kernel
    // scale (grid 64×64). The twins share family, size, and seeds, so
    // diffing the pair isolates what collision-detection feedback changes
    // under pure LB accounting — nothing on max energy, only the early-halt
    // round count.
    out.push(Scenario {
        name: "grid64-trivial-abstract".into(),
        family: Family::Grid,
        sizes: vec![4096],
        seeds: seeds.clone(),
        protocol: Protocol::TrivialBfs,
        stack: StackSpec::Abstract,
    });
    out.push(Scenario {
        name: "grid64-trivial-abstract-cd".into(),
        family: Family::Grid,
        sizes: vec![4096],
        seeds: seeds.clone(),
        protocol: Protocol::TrivialBfsCd,
        stack: StackSpec::AbstractCd,
    });
    // PR-10 additions (append-only, after everything above): the diameter
    // family — the HyperBall sketch against the Section 5.1 exact
    // estimators on three shapes, same family/size/seeds per trio so the
    // records diff into a pure method comparison. These are the first
    // scenarios whose records carry the estimate/exact/agrees columns;
    // sizes stay modest because the 3/2-approx runs Õ(√n) full BFS
    // computations per cell. Three seeds: the sketch and the 2-approx are
    // seed-deterministic here, only the hitting-set draw varies.
    let registry = energy_bfs::protocol::registry();
    let diam_seeds: Vec<u64> = (0..3).collect();
    for (fam_tag, family, size) in [
        ("grid16", Family::Grid, 256usize),
        ("tree3", Family::Tree { arity: 3 }, 121),
        ("lollipop", Family::Lollipop, 128),
    ] {
        for (ptag, spec) in [
            ("hyperball", "diameter:hyperball:p=6"),
            ("two-approx", "diameter:two_approx"),
            ("three-halves", "diameter:three_halves_approx"),
        ] {
            out.push(Scenario {
                name: format!("diam-{fam_tag}-{ptag}"),
                family: family.clone(),
                sizes: vec![size],
                seeds: diam_seeds.clone(),
                protocol: Protocol::from_spec(spec, &registry)
                    .expect("default diameter spec resolves"),
                stack: StackSpec::Abstract,
            });
        }
    }
    // The weight-ratio-aware Decay twin of `eseries-decay-w4l1t`: same
    // workload, same seeds, same listen-heavy model, but the stack derives
    // its Decay parameters through `DecayParams::for_energy_model` instead
    // of the ratio-blind default — the pinned test below asserts the tuned
    // rows charge strictly less max physical energy per seed.
    out.push(Scenario {
        name: "eseries-decay-w4l1t-tuned".into(),
        family: Family::Grid,
        sizes: vec![256],
        seeds,
        protocol: Protocol::DecayBfs,
        stack: StackSpec::PhysicalTuned {
            cd: false,
            model: listen_heavy,
        },
    });
    out
}

/// The `xl-` large-graph sweep behind `experiments -- scenarios --xl`:
/// path/grid/tree/Hilbert-grid instances at n ∈ {2^18, 2^20} — the regime
/// the dataset substrate exists for, where the asymptotic separations the
/// paper proves start to matter and a per-cell CSR clone would dominate the
/// sweep. Few seeds and *bounded* protocols only: the full-depth wavefront
/// is `O(n·D)` and a million-node path would never finish, so the workloads
/// are `trivial_bfs:depth=64` (cost ∝ the explored ball) and a short
/// `lb_sweep`. The Hilbert family is the opt-in cache-aware layout: an
/// isomorphic relabelling of `grid`, safe here because the abstract
/// backend's delivery under zero failures is order-invariant (pinned by the
/// `hilbert_relabel_is_observation_invariant` test below).
///
/// These scenarios are **separate from [`default_scenarios`]** — the 397
/// default records are a byte-frozen conformance surface, and xl cells land
/// after them only when explicitly requested (`--xl`).
pub fn xl_scenarios() -> Vec<Scenario> {
    let seeds: Vec<u64> = (0..2).collect();
    let sizes = vec![1usize << 18, 1usize << 20];
    let mut out = Vec::new();
    for (tag, family) in [
        ("path", Family::Path),
        ("grid", Family::Grid),
        ("tree3", Family::Tree { arity: 3 }),
        ("grid-hilbert", Family::GridHilbert),
    ] {
        out.push(Scenario {
            name: format!("xl-{tag}-trivial-d64"),
            family: family.clone(),
            sizes: sizes.clone(),
            seeds: seeds.clone(),
            protocol: Protocol::TrivialBfsDepth { depth: 64 },
            stack: StackSpec::Abstract,
        });
    }
    // One contention workload: bounded LB rounds on the grid, where every
    // round floods a single sender's neighbourhood — cheap per cell but
    // exercises the full frame machinery at 2^20 nodes.
    out.push(Scenario {
        name: "xl-grid-lbsweep".into(),
        family: Family::Grid,
        sizes,
        seeds,
        protocol: Protocol::LbSweep { rounds: 8 },
        stack: StackSpec::Abstract,
    });
    // The sketch where exact diameter is infeasible: one 2^18-node grid
    // cell of round-bounded HyperBall (p=4 keeps the register plane at
    // 2 words/node = 4 MiB; 12 rounds bound the run the same way depth=64
    // bounds the xl wavefront). All-pairs BFS ground truth is far out of
    // reach at this n, so the record carries `estimate` with `exact`/
    // `agrees` absent — the sketch answers where nothing else can.
    out.push(Scenario {
        name: "xl-grid-hyperball".into(),
        family: Family::Grid,
        sizes: vec![1 << 18],
        seeds: vec![0],
        protocol: Protocol::from_spec(
            "diameter:hyperball:p=4,rounds=12",
            &energy_bfs::protocol::registry(),
        )
        .expect("xl hyperball spec resolves"),
        stack: StackSpec::Abstract,
    });
    out
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

/// One record as a single-line JSON object — the exact byte sequence
/// [`records_to_json`] emits per record (fixed field order, floats at three
/// decimals, `null` for absent physical counters). The serve mode reuses
/// this for its response records, so a served record is byte-identical to
/// the same record's line in a sweep file.
///
/// The diameter columns (`estimate`, `exact`, `agrees`) are appended after
/// `target_n` **only when present**: every non-diameter record — in
/// particular all 364+ pre-existing default-sweep records — serializes to
/// exactly the bytes it did before the columns existed.
pub fn record_json_object(r: &ScenarioRecord) -> String {
    let mut out = format!(
        "{{\"scenario\":\"{}\",\"family\":\"{}\",\"n\":{},\"seed\":{},\
         \"protocol\":\"{}\",\"backend\":\"{}\",\"energy_model\":\"{}\",\
         \"lb_calls\":{},\"max_lb_energy\":{},\
         \"mean_lb_energy\":{:.3},\"max_physical_energy\":{},\"physical_slots\":{},\
         \"outcome\":{},\"target_n\":{}",
        escape(&r.scenario),
        escape(&r.family),
        r.n,
        r.seed,
        escape(&r.protocol),
        escape(&r.backend),
        escape(&r.energy_model),
        r.lb_calls,
        r.max_lb_energy,
        r.mean_lb_energy,
        json_opt(r.max_physical_energy),
        json_opt(r.physical_slots),
        r.outcome,
        r.target_n,
    );
    if let Some(est) = r.estimate {
        out.push_str(&format!(",\"estimate\":{est}"));
    }
    if let Some(exact) = r.exact {
        out.push_str(&format!(",\"exact\":{exact}"));
    }
    if let Some(agrees) = r.agrees {
        out.push_str(&format!(",\"agrees\":{agrees}"));
    }
    out.push('}');
    out
}

/// Serializes records as a stable, pretty-printed JSON array: fixed field
/// order, floats at three decimals, `null` for absent physical counters, no
/// wall-clock fields — byte-identical across repeated runs of the same
/// sweep.
pub fn records_to_json(records: &[ScenarioRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&record_json_object(r));
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scenarios on one worker, with no stores.
    fn run_serial(scenarios: &[Scenario]) -> Vec<ScenarioRecord> {
        run_scenarios_with_stores(scenarios, &RunnerConfig::serial(), None, None)
    }

    fn run_one(scenario: &Scenario) -> Vec<ScenarioRecord> {
        run_serial(std::slice::from_ref(scenario))
    }

    fn small_sweep() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "grid-small".into(),
                family: Family::Grid,
                sizes: vec![64],
                seeds: (0..6).collect(),
                protocol: Protocol::TrivialBfs,
                stack: StackSpec::Abstract,
            },
            Scenario {
                name: "tree-small".into(),
                family: Family::Tree { arity: 3 },
                sizes: vec![40],
                seeds: (0..6).collect(),
                protocol: Protocol::Clustering { inv_beta: 3 },
                stack: StackSpec::Abstract,
            },
        ]
    }

    #[test]
    fn lollipop_degrades_gracefully_at_tiny_sizes() {
        // Regression: size < clique must not underflow the tail length.
        for size in [2usize, 3, 4, 7, 11] {
            let g = Family::Lollipop.build(size);
            assert!(g.num_nodes() <= size.max(3), "size {size}");
        }
    }

    #[test]
    fn json_escapes_special_characters_in_names() {
        let records = vec![ScenarioRecord {
            scenario: "grid-\"big\"\\".into(),
            family: "grid".into(),
            n: 4,
            seed: 0,
            protocol: "trivial_bfs".into(),
            backend: "abstract".into(),
            energy_model: "uniform".into(),
            lb_calls: 1,
            max_lb_energy: 1,
            mean_lb_energy: 1.0,
            max_physical_energy: None,
            physical_slots: None,
            outcome: 4,
            target_n: 5,
            estimate: None,
            exact: None,
            agrees: None,
        }];
        let json = records_to_json(&records);
        assert!(json.contains("grid-\\\"big\\\"\\\\"), "escaped: {json}");
        assert!(json.contains("\"max_physical_energy\":null"));
        // target_n closes every non-diameter record — strictly after
        // outcome, with no estimate/exact/agrees bytes at all (the legacy
        // byte-identity contract).
        assert!(json.contains("\"outcome\":4,\"target_n\":5}"), "{json}");
        assert!(!json.contains("estimate"), "{json}");
        // A diameter record appends the three columns in order.
        let mut diam = records[0].clone();
        diam.estimate = Some(7);
        diam.exact = Some(8);
        diam.agrees = Some(true);
        let line = record_json_object(&diam);
        assert!(
            line.ends_with("\"target_n\":5,\"estimate\":7,\"exact\":8,\"agrees\":true}"),
            "{line}"
        );
        // The xl shape: an estimate with no ground truth keeps the other
        // two columns absent, not null.
        diam.exact = None;
        diam.agrees = None;
        let line = record_json_object(&diam);
        assert!(line.ends_with("\"target_n\":5,\"estimate\":7}"), "{line}");
    }

    #[test]
    fn family_sizes_are_respected() {
        assert_eq!(Family::Path.build(17).num_nodes(), 17);
        assert_eq!(Family::Grid.build(1024).num_nodes(), 1024);
        assert_eq!(Family::Grid.build(1000).num_nodes(), 961); // 31×31
        let t = Family::Tree { arity: 3 }.build(40);
        assert!(t.num_nodes() <= 40 && t.num_nodes() >= 13);
        assert_eq!(Family::Star.build(100).num_nodes(), 100);
        assert!(Family::Lollipop.build(80).num_nodes() <= 80);
        assert_eq!(Family::Complete.build(64).num_nodes(), 64);
        assert_eq!(Family::CompleteMinusEdge.build(64).num_nodes(), 64);
        // K_n has one more edge than K_n − e.
        assert_eq!(
            Family::Complete.build(64).num_edges(),
            Family::CompleteMinusEdge.build(64).num_edges() + 1
        );
        for intersecting in [false, true] {
            let g = Family::Disjointness { intersecting }.build(300);
            assert!(g.num_nodes() <= 300, "{}", g.num_nodes());
            assert!(g.num_nodes() > 150, "{}", g.num_nodes());
        }
    }

    #[test]
    fn records_carry_both_target_and_realized_n() {
        // The size-rounding pin: grid at target 1000 realizes 31×31 = 961,
        // and the record must carry *both* numbers so the cell can't be
        // mislabelled as a 1000-node run.
        let records = run_one(&Scenario {
            name: "rounded".into(),
            family: Family::Grid,
            sizes: vec![1000],
            seeds: vec![0],
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        });
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].n, 961);
        assert_eq!(records[0].target_n, 1000);
        // Exact families keep the two equal.
        let exact = run_one(&Scenario {
            name: "exact".into(),
            family: Family::Path,
            sizes: vec![100],
            seeds: vec![0],
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        });
        assert_eq!(exact[0].n, 100);
        assert_eq!(exact[0].target_n, 100);
    }

    #[test]
    fn hilbert_grid_is_isomorphic_to_grid_and_fixes_the_source() {
        for size in [64usize, 256, 1000] {
            let plain = Family::Grid.build(size);
            let hil = Family::GridHilbert.build(size);
            assert_eq!(plain.num_nodes(), hil.num_nodes(), "size {size}");
            assert_eq!(plain.num_edges(), hil.num_edges(), "size {size}");
            // Vertex 0 is the BFS source in every scenario; the Hilbert
            // relabelling keeps it at the grid corner (degree 2).
            assert_eq!(hil.degree(0), 2, "size {size}");
        }
    }

    #[test]
    fn hilbert_relabel_is_observation_invariant_for_abstract_trivial_bfs() {
        // The order-invariance proof backing the opt-in layout: on the
        // abstract backend with zero failures, delivery is a deterministic
        // function of the *set* of senders — no RNG draw depends on
        // neighbour iteration order — and trivial BFS's observables
        // (lb_calls, max/mean energy, labelled count) are invariant under
        // any isomorphism fixing the source. So the Hilbert grid must
        // reproduce the plain grid's records exactly, per seed. (Clustering
        // does NOT have this property — its per-vertex RNG draws map by
        // vertex id — which is why the layout is per-scenario opt-in.)
        let run = |family: Family| {
            run_one(&Scenario {
                name: "inv".into(),
                family,
                sizes: vec![256],
                seeds: (0..4).collect(),
                protocol: Protocol::TrivialBfs,
                stack: StackSpec::Abstract,
            })
        };
        for (plain, hil) in run(Family::Grid).iter().zip(run(Family::GridHilbert)) {
            assert_eq!(plain.seed, hil.seed);
            assert_eq!(plain.lb_calls, hil.lb_calls, "seed {}", plain.seed);
            assert_eq!(plain.max_lb_energy, hil.max_lb_energy);
            assert_eq!(plain.mean_lb_energy, hil.mean_lb_energy);
            assert_eq!(plain.outcome, hil.outcome);
        }
    }

    #[test]
    fn depth_bounded_trivial_bfs_labels_exactly_the_horizon_ball() {
        // The xl workload's contract: depth=D labels exactly the ≤D-ball
        // around the source — on a path, D+1 vertices.
        let records = run_one(&Scenario {
            name: "ball".into(),
            family: Family::Path,
            sizes: vec![512],
            seeds: vec![0, 1],
            protocol: Protocol::TrivialBfsDepth { depth: 64 },
            stack: StackSpec::Abstract,
        });
        for r in &records {
            assert_eq!(r.protocol, "trivial_bfs_d64");
            assert_eq!(r.outcome, 65, "seed {}: not the 64-ball", r.seed);
        }
    }

    #[test]
    fn xl_sweep_is_separate_and_uses_bounded_protocols_only() {
        // The conformance firewall: xl scenarios never leak into the
        // default sweep, and every xl protocol is depth- or round-bounded
        // (a full-depth wavefront at 2^20 would be O(n·D)).
        let xl = xl_scenarios();
        assert!(!xl.is_empty());
        for s in &xl {
            assert!(s.name.starts_with("xl-"), "{}", s.name);
            let bounded = match &s.protocol {
                Protocol::TrivialBfsDepth { .. } | Protocol::LbSweep { .. } => true,
                // The sketch cell is round-bounded through its spec — an
                // unbounded hyperball at 2^18 would run to the diameter.
                Protocol::Custom { spec, .. } => spec.contains("rounds="),
                _ => false,
            };
            assert!(bounded, "{}: unbounded protocol in the xl sweep", s.name);
            if matches!(s.protocol, Protocol::Custom { .. }) {
                assert_eq!(s.sizes, vec![1 << 18], "{}", s.name);
            } else {
                assert_eq!(s.sizes, vec![1 << 18, 1 << 20], "{}", s.name);
            }
        }
        let default_names: std::collections::BTreeSet<String> =
            default_scenarios().iter().map(|s| s.name.clone()).collect();
        for s in &xl {
            assert!(!default_names.contains(&s.name));
        }
    }

    #[test]
    fn cached_and_uncached_sweeps_produce_identical_records() {
        // The dataset cache changes where graph bytes come from, never what
        // they are: a cold-cache run (generator → artifact), a warm-cache
        // run (artifact → bulk read), and a no-cache run must all emit the
        // same records.
        let dir = std::env::temp_dir().join(format!(
            "radio-bench-cache-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let cache = DatasetCache::new(&dir);
        let sweep = small_sweep();
        let cfg = RunnerConfig::serial();
        let uncached = run_scenarios_with_stores(&sweep, &cfg, None, None);
        let cold = run_scenarios_with_stores(&sweep, &cfg, Some(&cache), None);
        assert!(cache.misses() > 0, "cold run must compile artifacts");
        let hits_before = cache.hits();
        let warm = run_scenarios_with_stores(&sweep, &cfg, Some(&cache), None);
        assert!(cache.hits() > hits_before, "warm run must hit the cache");
        assert_eq!(uncached, cold);
        assert_eq!(uncached, warm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disjointness_family_encodes_the_diameter_gap() {
        use radio_graph::diameter::exact_diameter;
        let disjoint = Family::Disjointness {
            intersecting: false,
        }
        .build(120);
        let overlap = Family::Disjointness { intersecting: true }.build(120);
        assert_eq!(exact_diameter(&disjoint), Some(2));
        assert_eq!(exact_diameter(&overlap), Some(3));
    }

    #[test]
    fn sweep_covers_the_full_grid_of_cells() {
        let records = run_serial(&small_sweep());
        assert_eq!(records.len(), 12, "2 scenarios × 1 size × 6 seeds");
        // Trivial BFS on a connected graph labels everybody.
        for r in records.iter().filter(|r| r.protocol == "trivial_bfs") {
            assert_eq!(r.outcome, r.n as u64);
            assert!(r.max_lb_energy > 0);
            assert!(r.lb_calls > 0);
            assert_eq!(r.backend, "abstract");
            assert!(r.max_physical_energy.is_none());
        }
        // Clustering forms at least one cluster and stays within budget.
        for r in records
            .iter()
            .filter(|r| r.protocol.starts_with("clustering"))
        {
            assert!(r.outcome >= 1);
        }
    }

    #[test]
    fn sweep_json_is_byte_identical_across_runs() {
        // The multi-seed determinism property the runner guarantees: same
        // scenarios, same seeds ⇒ byte-identical JSON (there is no
        // wall-clock or hash-order dependence anywhere in the pipeline).
        let a = records_to_json(&run_serial(&small_sweep()));
        let b = records_to_json(&run_serial(&small_sweep()));
        assert_eq!(a, b);
        // And distinct seeds genuinely produce distinct runs where the
        // protocol is randomized (clustering cluster counts vary).
        let records = run_serial(&small_sweep());
        let cluster_counts: std::collections::BTreeSet<u64> = records
            .iter()
            .filter(|r| r.protocol.starts_with("clustering"))
            .map(|r| r.outcome)
            .collect();
        assert!(
            cluster_counts.len() > 1,
            "6 clustering seeds all produced identical outcomes: {cluster_counts:?}"
        );
    }

    #[test]
    fn recursive_bfs_scenario_labels_everything_on_a_path() {
        let records = run_one(&Scenario {
            name: "rec".into(),
            family: Family::Path,
            sizes: vec![96],
            seeds: (0..3).collect(),
            protocol: Protocol::RecursiveBfs,
            stack: StackSpec::Abstract,
        });
        for r in &records {
            assert_eq!(r.outcome, 96, "seed {} mislabelled the path", r.seed);
        }
    }

    #[test]
    fn physical_backend_scenarios_carry_slot_columns() {
        let records = run_one(&Scenario {
            name: "phys".into(),
            family: Family::Grid,
            sizes: vec![36],
            seeds: (0..2).collect(),
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::physical(false),
        });
        for r in &records {
            assert_eq!(r.backend, "physical");
            assert_eq!(r.energy_model, "uniform");
            assert_eq!(r.outcome, r.n as u64, "physical BFS mislabelled");
            let phys = r.max_physical_energy.expect("slot column");
            assert!(
                phys > r.max_lb_energy,
                "Decay expansion must cost more slots than LB units"
            );
            assert!(r.physical_slots.unwrap() >= r.lb_calls);
        }
    }

    #[test]
    fn parallel_runs_match_the_serial_path_record_for_record() {
        // The collect-by-index contract: every thread count yields the
        // exact serial record vector, including multi-size scenarios where
        // workers cross frame universes.
        let sweep = Scenario {
            name: "par".into(),
            family: Family::Grid,
            sizes: vec![36, 64],
            seeds: (0..7).collect(),
            protocol: Protocol::Clustering { inv_beta: 3 },
            stack: StackSpec::Abstract,
        };
        let serial = run_one(&sweep);
        assert_eq!(serial.len(), 14);
        for threads in [2usize, 3, 8] {
            let parallel = run_scenarios_with_stores(
                std::slice::from_ref(&sweep),
                &RunnerConfig::with_threads(threads),
                None,
                None,
            );
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn every_enum_variant_resolves_and_labels_agree_with_the_registry() {
        // The thin-parser contract: each variant's spec resolves, and the
        // resolved protocol's name is exactly the label the records carry.
        let registry = energy_bfs::protocol::registry();
        let variants = [
            Protocol::TrivialBfs,
            Protocol::TrivialBfsDepth { depth: 64 },
            Protocol::TrivialBfsCd,
            Protocol::DecayBfs,
            Protocol::RecursiveBfs,
            Protocol::Clustering { inv_beta: 4 },
            Protocol::LbSweep { rounds: 16 },
        ];
        for p in variants {
            let resolved = registry
                .get(&p.spec())
                .unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert_eq!(
                resolved.name().as_str(),
                p.label(),
                "spec {} resolved to a differently-labelled protocol",
                p.spec()
            );
        }
    }

    #[test]
    fn decay_bfs_scenarios_label_everything_and_match_trivial_outcomes() {
        let run = |protocol: Protocol| {
            run_one(&Scenario {
                name: "decaycmp".into(),
                family: Family::Grid,
                sizes: vec![64],
                seeds: (0..3).collect(),
                protocol,
                stack: StackSpec::Abstract,
            })
        };
        for (d, t) in run(Protocol::DecayBfs)
            .iter()
            .zip(run(Protocol::TrivialBfs))
        {
            assert_eq!(d.protocol, "decay_bfs");
            assert_eq!(d.outcome, d.n as u64, "seed {}", d.seed);
            assert_eq!(d.outcome, t.outcome);
            // The unbounded wavefront stops one unproductive sweep after
            // eccentricity; the bounded one stops on an empty receiver set.
            assert!(d.lb_calls <= t.lb_calls + 1);
        }
    }

    #[test]
    fn trivial_bfs_cd_scenario_beats_its_no_cd_twin_on_physical_energy() {
        // The acceptance comparison the CI smoke re-runs on the full sweep:
        // identical workload and seeds, CD stack vs plain physical stack —
        // same labels and LB accounting, strictly cheaper slots.
        let run = |cd: bool| {
            run_one(&Scenario {
                name: "cdtwin".into(),
                family: Family::Grid,
                sizes: vec![64],
                seeds: (0..3).collect(),
                protocol: if cd {
                    Protocol::TrivialBfsCd
                } else {
                    Protocol::TrivialBfs
                },
                stack: StackSpec::physical(cd),
            })
        };
        for (no_cd, with_cd) in run(false).iter().zip(run(true)) {
            assert_eq!(no_cd.seed, with_cd.seed);
            assert_eq!(with_cd.backend, "physical_cd");
            assert_eq!(no_cd.outcome, with_cd.outcome, "labels must agree");
            assert_eq!(no_cd.lb_calls, with_cd.lb_calls);
            assert_eq!(no_cd.max_lb_energy, with_cd.max_lb_energy);
            assert!(
                with_cd.max_physical_energy.unwrap() <= no_cd.max_physical_energy.unwrap(),
                "seed {}: CD twin costs more slots",
                no_cd.seed
            );
        }
    }

    #[test]
    fn cd_protocol_on_a_no_cd_stack_panics_with_the_typed_error_message() {
        // The runner turns the registry's typed error into a panic naming
        // the scenario; the message must carry the capability mismatch.
        let result = std::panic::catch_unwind(|| {
            run_one(&Scenario {
                name: "badcaps".into(),
                family: Family::Path,
                sizes: vec![8],
                seeds: vec![0],
                protocol: Protocol::TrivialBfsCd,
                stack: StackSpec::physical(false),
            })
        });
        let err = result.expect_err("must refuse to run");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("collision detection"), "panic said: {msg}");
        assert!(msg.contains("badcaps"), "panic said: {msg}");
    }

    #[test]
    fn eseries_families_reweight_identical_slot_schedules() {
        // The E-series contract: per seed, the three weight ratios run the
        // exact same slots; only the energy column changes, and the 4:1
        // listen-heavy model dominates on listen-bound wavefronts.
        let run = |model: EnergyModel| {
            run_one(&Scenario {
                name: "es".into(),
                family: Family::Grid,
                sizes: vec![49],
                seeds: (0..2).collect(),
                protocol: Protocol::TrivialBfs,
                stack: StackSpec::Physical { cd: false, model },
            })
        };
        let uniform = run(EnergyModel::Uniform);
        let tx_heavy = run(EnergyModel::Weighted {
            listen: 1,
            transmit: 4,
        });
        let rx_heavy = run(EnergyModel::Weighted {
            listen: 4,
            transmit: 1,
        });
        for ((u, t), r) in uniform.iter().zip(&tx_heavy).zip(&rx_heavy) {
            assert_eq!(u.physical_slots, t.physical_slots);
            assert_eq!(u.physical_slots, r.physical_slots);
            assert_eq!(t.energy_model, "w1l4t");
            assert_eq!(r.energy_model, "w4l1t");
            assert!(t.max_physical_energy.unwrap() > u.max_physical_energy.unwrap());
            assert!(r.max_physical_energy.unwrap() > u.max_physical_energy.unwrap());
            // Wavefront receivers listen far more than they transmit, so
            // the listen-heavy ratio is the most expensive of the three.
            assert!(
                r.max_physical_energy.unwrap() > t.max_physical_energy.unwrap(),
                "seed {}: listen-heavy {} ≤ transmit-heavy {}",
                u.seed,
                r.max_physical_energy.unwrap(),
                t.max_physical_energy.unwrap()
            );
        }
    }

    #[test]
    fn abstract_cd_twins_agree_on_labels_and_accounting() {
        // The PR-6 sweep coordinate: the CD wavefront on the abstract-CD
        // stack is the per-seed twin of the plain wavefront on the plain
        // abstract stack. Same distance labels, no physical columns, and
        // the backend column reads `abstract_cd`.
        let run = |cd: bool| {
            run_one(&Scenario {
                name: "acd".into(),
                family: Family::Grid,
                sizes: vec![64],
                seeds: (0..3).collect(),
                protocol: if cd {
                    Protocol::TrivialBfsCd
                } else {
                    Protocol::TrivialBfs
                },
                stack: if cd {
                    StackSpec::AbstractCd
                } else {
                    StackSpec::Abstract
                },
            })
        };
        for (plain, cd) in run(false).iter().zip(run(true)) {
            assert_eq!(plain.seed, cd.seed);
            assert_eq!(cd.backend, "abstract_cd");
            assert_eq!(cd.energy_model, "uniform");
            assert_eq!(plain.outcome, cd.outcome, "labels must agree");
            assert!(cd.max_physical_energy.is_none(), "abstract has no slots");
            // The CD wavefront halts on the first all-Silence round instead
            // of waiting for an unproductive sweep, so it never takes longer.
            assert!(cd.lb_calls <= plain.lb_calls);
        }
    }

    #[test]
    fn default_sweep_appends_the_new_families_at_the_end() {
        // Order is part of the byte-stable JSON contract: each PR's
        // additions sit strictly after every pre-existing family. The PR-6
        // abstract-CD twins are followed by the PR-10 block — nine diameter
        // cells (3 families × 3 methods) and the tuned E-series twin last.
        let scenarios = default_scenarios();
        let k = scenarios.len();
        assert_eq!(scenarios[k - 12].name, "grid64-trivial-abstract");
        assert_eq!(scenarios[k - 12].stack, StackSpec::Abstract);
        assert_eq!(scenarios[k - 11].name, "grid64-trivial-abstract-cd");
        assert_eq!(scenarios[k - 11].stack, StackSpec::AbstractCd);
        let diam: Vec<&Scenario> = scenarios[k - 10..k - 1].iter().collect();
        assert_eq!(diam.len(), 9);
        for s in &diam {
            assert!(s.name.starts_with("diam-"), "{}", s.name);
            assert!(s.protocol.spec().starts_with("diameter:"), "{}", s.name);
        }
        assert_eq!(diam[0].name, "diam-grid16-hyperball");
        assert_eq!(diam[0].protocol.spec(), "diameter:hyperball:p=6");
        assert_eq!(scenarios[k - 1].name, "eseries-decay-w4l1t-tuned");
        assert_eq!(
            scenarios[k - 1].stack,
            StackSpec::PhysicalTuned {
                cd: false,
                model: EnergyModel::Weighted {
                    listen: 4,
                    transmit: 1,
                },
            }
        );
    }

    #[test]
    fn runner_config_default_uses_available_parallelism() {
        let cfg = RunnerConfig::default();
        assert!(cfg.threads >= 1);
        assert!(!cfg.quiet);
        assert_eq!(RunnerConfig::serial().threads, 1);
    }

    #[test]
    fn weighted_stack_dimension_reweights_without_changing_slots() {
        // Same seeds, same protocol, same backend — only the energy model
        // differs. Slot *counts* are untouched (the model is applied at
        // read time), so physical_slots agree while the weighted energy
        // column grows.
        let sweep = |model: EnergyModel| {
            run_one(&Scenario {
                name: "w".into(),
                family: Family::Path,
                sizes: vec![48],
                seeds: (0..3).collect(),
                protocol: Protocol::LbSweep { rounds: 4 },
                stack: StackSpec::Physical { cd: false, model },
            })
        };
        let uniform = sweep(EnergyModel::Uniform);
        let weighted = sweep(EnergyModel::Weighted {
            listen: 1,
            transmit: 4,
        });
        for (u, w) in uniform.iter().zip(&weighted) {
            assert_eq!(u.energy_model, "uniform");
            assert_eq!(w.energy_model, "w1l4t");
            assert_eq!(u.physical_slots, w.physical_slots, "seed {}", u.seed);
            assert_eq!(u.lb_calls, w.lb_calls);
            assert!(
                w.max_physical_energy.unwrap() > u.max_physical_energy.unwrap(),
                "transmit-heavy model must charge more than uniform"
            );
        }
    }

    #[test]
    fn family_and_stack_labels_round_trip_through_parse() {
        // The serve mode's request fields are these labels; parse must be
        // the exact inverse of label for every family and stack the sweeps
        // use.
        let families = [
            Family::Path,
            Family::Cycle,
            Family::Grid,
            Family::GridHilbert,
            Family::Tree { arity: 3 },
            Family::Tree { arity: 7 },
            Family::Star,
            Family::Lollipop,
            Family::Complete,
            Family::CompleteMinusEdge,
            Family::Disjointness { intersecting: true },
            Family::Disjointness {
                intersecting: false,
            },
        ];
        for f in families {
            assert_eq!(Family::parse(&f.label()), Some(f.clone()), "{}", f.label());
        }
        assert_eq!(Family::parse("tree1"), None, "arity < 2 must be rejected");
        assert_eq!(Family::parse("treex"), None);
        assert_eq!(Family::parse("torus"), None);
        let stacks = [
            StackSpec::Abstract,
            StackSpec::AbstractCd,
            StackSpec::physical(false),
            StackSpec::physical(true),
            StackSpec::Physical {
                cd: false,
                model: EnergyModel::Weighted {
                    listen: 1,
                    transmit: 4,
                },
            },
            StackSpec::Physical {
                cd: true,
                model: EnergyModel::Weighted {
                    listen: 4,
                    transmit: 1,
                },
            },
            StackSpec::PhysicalTuned {
                cd: false,
                model: EnergyModel::Uniform,
            },
            StackSpec::PhysicalTuned {
                cd: true,
                model: EnergyModel::Weighted {
                    listen: 4,
                    transmit: 1,
                },
            },
        ];
        for s in stacks {
            assert_eq!(StackSpec::parse(&s.label()), Some(s), "{}", s.label());
        }
        assert_eq!(StackSpec::parse("physical:w1l4"), None);
        assert_eq!(StackSpec::parse("quantum"), None);
        assert_eq!(StackSpec::parse("abstract:tuned"), None);
        assert_eq!(StackSpec::parse("physical:tuned:tuned"), None);
        assert_eq!(
            StackSpec::PhysicalTuned {
                cd: false,
                model: EnergyModel::Weighted {
                    listen: 4,
                    transmit: 1,
                },
            }
            .label(),
            "physical:w4l1t:tuned"
        );
    }

    #[test]
    fn diameter_cells_carry_estimate_exact_and_agreement_columns() {
        let registry = energy_bfs::protocol::registry();
        let run = |spec: &str| {
            run_one(&Scenario {
                name: "diam".into(),
                family: Family::Grid,
                sizes: vec![64],
                seeds: vec![0, 1],
                protocol: Protocol::from_spec(spec, &registry).unwrap(),
                stack: StackSpec::Abstract,
            })
        };
        // Grid 8×8: exact diameter 14.
        for spec in [
            "diameter:hyperball:p=6",
            "diameter:two_approx",
            "diameter:three_halves_approx",
        ] {
            for r in run(spec) {
                assert_eq!(r.exact, Some(14), "{spec} seed {}", r.seed);
                let est = r.estimate.expect("diameter cell has an estimate");
                assert_eq!(r.outcome, est, "outcome doubles as the estimate");
                assert_eq!(
                    r.agrees,
                    Some(true),
                    "{spec} seed {}: estimate {est} outside the envelope",
                    r.seed
                );
            }
        }
        // Non-diameter protocols keep all three columns absent.
        let plain = run_one(&Scenario {
            name: "plain".into(),
            family: Family::Grid,
            sizes: vec![64],
            seeds: vec![0],
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        });
        assert_eq!(
            (plain[0].estimate, plain[0].exact, plain[0].agrees),
            (None, None, None)
        );
    }

    #[test]
    fn diameter_agreement_envelopes_match_the_method_guarantees() {
        // Theorem 5.3: [⌈D/2⌉, D].
        assert!(diameter_agreement("diameter_two_approx", 7, 14));
        assert!(diameter_agreement("diameter_two_approx", 14, 14));
        assert!(!diameter_agreement("diameter_two_approx", 6, 14));
        assert!(!diameter_agreement("diameter_two_approx", 15, 14));
        // Theorem 5.4: [⌊2D/3⌋, D].
        assert!(diameter_agreement("diameter_three_halves_approx", 9, 14));
        assert!(!diameter_agreement("diameter_three_halves_approx", 8, 14));
        assert!(!diameter_agreement("diameter_three_halves_approx", 15, 14));
        // HyperBall at p=6: tol = 1.04/8 = 0.13, so ±⌈0.13·62⌉ = ±9 at
        // D=62 and ±1 minimum at tiny diameters; both label shapes parse.
        assert!(diameter_agreement("diameter_hyperball_p6", 53, 62));
        assert!(!diameter_agreement("diameter_hyperball_p6", 52, 62));
        assert!(diameter_agreement("hyperball_p6", 3, 4));
        assert!(diameter_agreement("diameter_hyperball_p4_r12", 50, 62));
        // Unknown labels degrade to exact equality.
        assert!(diameter_agreement("something_else", 5, 5));
        assert!(!diameter_agreement("something_else", 4, 5));
    }

    #[test]
    fn tuned_decay_params_cut_weighted_energy_on_the_eseries_twin() {
        // The satellite-2 pin at sweep scale: the listen-heavy (w4l1t)
        // Decay wavefront on the tuned stack must charge strictly less max
        // physical energy than the identical workload on the ratio-blind
        // default, seed by seed, while still labelling the whole grid.
        let listen_heavy = EnergyModel::Weighted {
            listen: 4,
            transmit: 1,
        };
        let run = |stack: StackSpec| {
            run_one(&Scenario {
                name: "tuned".into(),
                family: Family::Grid,
                sizes: vec![256],
                seeds: (0..3).collect(),
                protocol: Protocol::DecayBfs,
                stack,
            })
        };
        let blind = run(StackSpec::Physical {
            cd: false,
            model: listen_heavy,
        });
        let tuned = run(StackSpec::PhysicalTuned {
            cd: false,
            model: listen_heavy,
        });
        for (b, t) in blind.iter().zip(&tuned) {
            assert_eq!(b.seed, t.seed);
            assert_eq!(t.backend, "physical");
            assert_eq!(t.energy_model, "w4l1t");
            assert_eq!(t.outcome, 256, "seed {}: tuned run lost vertices", t.seed);
            assert!(
                t.max_physical_energy.unwrap() < b.max_physical_energy.unwrap(),
                "seed {}: tuned {} not below ratio-blind {}",
                t.seed,
                t.max_physical_energy.unwrap(),
                b.max_physical_energy.unwrap()
            );
            assert!(t.physical_slots.unwrap() < b.physical_slots.unwrap());
        }
    }

    #[test]
    fn custom_protocol_resolves_through_the_registry_and_runs() {
        let registry = energy_bfs::protocol::registry();
        let p = Protocol::from_spec("clustering:b=3", &registry).expect("valid spec");
        assert_eq!(p.spec(), "clustering:b=3");
        assert_eq!(p.label(), "clustering_b3");
        // An unknown spec is the registry's typed error, not a panic.
        assert!(Protocol::from_spec("warp_drive", &registry).is_err());
        // A Custom-protocol scenario runs identically to the enum variant
        // it aliases — spec equality means registry equality means record
        // equality.
        let run = |protocol: Protocol| {
            run_one(&Scenario {
                name: "custom".into(),
                family: Family::Grid,
                sizes: vec![49],
                seeds: (0..3).collect(),
                protocol,
                stack: StackSpec::Abstract,
            })
        };
        let direct = run(Protocol::Clustering { inv_beta: 3 });
        let custom = run(Protocol::from_spec("clustering:b=3", &registry).unwrap());
        assert_eq!(direct, custom);
    }

    #[test]
    fn result_store_makes_warm_sweeps_byte_identical_and_probe_only() {
        // The incremental-sweep contract at unit scale: cold run computes
        // and writes back, warm run answers every cell from artifacts, and
        // the JSON is byte-identical across uncached/cold/warm at both the
        // serial path and a parallel config.
        let dir = std::env::temp_dir().join(format!(
            "radio-bench-results-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let sweep = small_sweep();
        let uncached = records_to_json(&run_serial(&sweep));
        let store = ResultStore::new(&dir);
        let cfg = RunnerConfig::serial();
        let cold = records_to_json(&run_scenarios_with_stores(&sweep, &cfg, None, Some(&store)));
        assert_eq!(store.hits(), 0, "cold run must miss every cell");
        assert_eq!(store.misses(), 12);
        let warm = records_to_json(&run_scenarios_with_stores(&sweep, &cfg, None, Some(&store)));
        assert_eq!(store.hits(), 12, "warm run must hit every cell");
        assert_eq!(store.misses(), 12, "warm run must not miss");
        let warm4 = records_to_json(&run_scenarios_with_stores(
            &sweep,
            &RunnerConfig::with_threads(4),
            None,
            Some(&store),
        ));
        assert_eq!(uncached, cold);
        assert_eq!(uncached, warm);
        assert_eq!(uncached, warm4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restricted_active_sets_change_records_and_result_keys() {
        // The active-set satellite end to end: a restricted active set
        // reaches the protocol (the wavefront halts at the boundary) and
        // separates the cell's result key, so cached full-set records can
        // never answer a restricted request.
        let scenario = Scenario {
            name: "act".into(),
            family: Family::Path,
            sizes: vec![24],
            seeds: vec![0],
            protocol: Protocol::TrivialBfs,
            stack: StackSpec::Abstract,
        };
        let dir = std::env::temp_dir().join(format!(
            "radio-bench-active-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let store = ResultStore::new(&dir);
        let run = |active: Option<&[usize]>| {
            let item = BatchItem {
                scenario: scenario.clone(),
                active: active.map(<[usize]>::to_vec),
            };
            let cfg = RunnerConfig::serial();
            run_batch_with_stores(&[item], &cfg, None, Some(&store), None)
                .remove(0)
                .records
        };
        let full = run(None);
        let prefix: Vec<usize> = (0..12).collect();
        let restricted = run(Some(&prefix));
        assert_eq!(full[0].outcome, 24, "full set labels the whole path");
        assert_eq!(
            restricted[0].outcome, 12,
            "the wavefront must stop at the active-set boundary"
        );
        // Two cells, two keys: the restricted run missed (computed), it did
        // not reuse the full-set artifact.
        assert_eq!(store.misses(), 2);
        assert_eq!(store.hits(), 0);
        assert_ne!(
            scenario.result_key(24, 0, None).content_hash(),
            scenario.result_key(24, 0, Some(&prefix)).content_hash()
        );
        // And both warm up independently.
        run(Some(&prefix));
        run(None);
        assert_eq!(store.hits(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cd_sweep_beats_no_cd_on_sparse_neighbourhoods() {
        // The acceptance comparison for the CD-aware decay: identical
        // LbSweep scenarios on path(64), physical backend, CD on vs off.
        // With CD, hopeless receivers resolve after one iteration and
        // senders retire via the echo slot, so both the max per-node energy
        // and the elapsed slots drop.
        let run = |cd: bool| {
            run_one(&Scenario {
                name: "cdcmp".into(),
                family: Family::Path,
                sizes: vec![64],
                seeds: (0..3).collect(),
                protocol: Protocol::LbSweep { rounds: 4 },
                stack: StackSpec::physical(cd),
            })
        };
        for (no_cd, with_cd) in run(false).iter().zip(run(true)) {
            assert_eq!(no_cd.seed, with_cd.seed);
            // Same LB-unit accounting (the unit of analysis is unchanged)...
            assert_eq!(no_cd.lb_calls, with_cd.lb_calls);
            assert_eq!(no_cd.max_lb_energy, with_cd.max_lb_energy);
            // ...but strictly cheaper physical execution.
            assert!(
                with_cd.max_physical_energy.unwrap() < no_cd.max_physical_energy.unwrap(),
                "seed {}: CD {} ≥ no-CD {}",
                no_cd.seed,
                with_cd.max_physical_energy.unwrap(),
                no_cd.max_physical_energy.unwrap()
            );
            assert!(
                with_cd.physical_slots.unwrap() < no_cd.physical_slots.unwrap(),
                "seed {}: CD used as many slots",
                no_cd.seed
            );
        }
    }
}
