//! The BFS drivers as first-class [`Protocol`]s, plus the full
//! [`registry`] every runner should use.
//!
//! `radio-protocols` defines the trait, the registry machinery, and the
//! protocols of its own layer (`clustering`, `lb_sweep`); this module wraps
//! the BFS family of Section 4 on top and assembles the complete registry:
//!
//! | spec | protocol | requires |
//! |------|----------|----------|
//! | `trivial_bfs[:depth=D]` | Section 4.3 wavefront, depth `D` (default `n`) | — |
//! | `trivial_bfs_cd[:depth=D]` | the wavefront + CD verdicts ([`crate::baseline::trivial_bfs_cd`]) | receiver CD |
//! | `decay_bfs` | unbounded wavefront, stops when a sweep settles nothing | — |
//! | `recursive[:b=B,eps=E,d=L]` | recursive BFS, `1/β = B` (default `⌈√D⌉` per `eps = 0.5`) | — |
//! | `diameter:two_approx` | Theorem 5.3 2-approximation ([`crate::diameter::two_approx_diameter`]) | — |
//! | `diameter:three_halves_approx` | Theorem 5.4 nearly-3/2 approximation | — |
//! | `diameter:hyperball[:p=P][,rounds=R]` | HyperBall sketch estimate (error `1.04/√2^p`) | — |
//! | `clustering:b=B` | distributed MPX clustering (from `radio-protocols`) | — |
//! | `lb_sweep:r=R` | Local-Broadcast stress loop (from `radio-protocols`) | — |
//! | `hyperball[:p=P][,rounds=R]` | full HyperBall output: NF + eccentricities (from `radio-protocols`) | — |
//!
//! Every wrapper reproduces the historical free-function call exactly
//! (sources, depth defaults, seed derivation), so registry-dispatched runs
//! are byte-identical to direct calls — the property the scenario runner's
//! JSON stability rests on, pinned by `crates/bench/tests/properties.rs`.

use radio_protocols::protocol::base_registry;
use radio_protocols::sketch::{HyperballProtocol, MAX_PRECISION, MIN_PRECISION};
use radio_protocols::{
    CollisionDetection, LbFrame, Protocol, ProtocolId, ProtocolInput, ProtocolOutput,
    ProtocolRegistry, RadioStack,
};

use crate::baseline::{all_vertices, wavefront_bfs};
use crate::config::RecursiveBfsConfig;
use crate::diameter::{three_halves_approx_diameter, two_approx_diameter};
use crate::recursive_bfs::{build_hierarchy, recursive_bfs_with_hierarchy};

/// The full protocol registry: the Local-Broadcast-layer protocols of
/// `radio-protocols` plus the BFS drivers of this crate. Build one per
/// runner (construction is a handful of pushes) and resolve specs with
/// [`ProtocolRegistry::get`].
pub fn registry() -> ProtocolRegistry {
    let mut r = base_registry();
    r.register(
        "trivial_bfs",
        "Section 4.3 wavefront BFS from node 0; depth=D bounds the horizon (default n)",
        |params| {
            params.ensure_known_keys(&["depth"])?;
            let depth = params.get_opt_u64("depth")?;
            if depth == Some(0) {
                return Err(params.invalid("parameter depth must be ≥ 1"));
            }
            Ok(Box::new(TrivialBfsProtocol { depth, cd: false }))
        },
    );
    r.register(
        "trivial_bfs_cd",
        "the wavefront + collision-detection verdicts (noise settles, all-silence halts)",
        |params| {
            params.ensure_known_keys(&["depth"])?;
            let depth = params.get_opt_u64("depth")?;
            if depth == Some(0) {
                return Err(params.invalid("parameter depth must be ≥ 1"));
            }
            Ok(Box::new(TrivialBfsProtocol { depth, cd: true }))
        },
    );
    r.register(
        "decay_bfs",
        "unbounded wavefront BFS; advances until a sweep settles nothing new",
        |params| {
            params.ensure_known_keys(&[])?;
            Ok(Box::new(DecayBfsProtocol))
        },
    );
    r.register(
        "recursive",
        "recursive sub-polynomial-energy BFS (Section 4); b=1/β override, eps=β exponent \
         (default 0.5 ⇒ 1/β ≈ √D), d=hierarchy depth (default 1)",
        |params| {
            params.ensure_known_keys(&["b", "eps", "d"])?;
            let inv_beta = params.get_opt_u64("b")?;
            if inv_beta == Some(0) {
                return Err(params.invalid("parameter b must be ≥ 1"));
            }
            let eps = params.get_f64("eps", 0.5)?;
            if !(0.0..=1.0).contains(&eps) {
                return Err(params.invalid("parameter eps must be in [0, 1]"));
            }
            let max_depth = params.get_u64("d", 1)?;
            if max_depth == 0 {
                return Err(params.invalid("parameter d must be ≥ 1"));
            }
            Ok(Box::new(RecursiveBfsProtocol {
                inv_beta,
                eps,
                max_depth: max_depth as usize,
            }))
        },
    );
    r.register(
        "diameter",
        "diameter estimation family: exactly one of two_approx | three_halves_approx | \
         hyperball[:p=P][,rounds=R]",
        |params| {
            params.ensure_known_keys(&[
                "two_approx",
                "three_halves_approx",
                "hyperball",
                "hyperball:p",
                "rounds",
            ])?;
            let two = params.flag("two_approx")?;
            let three = params.flag("three_halves_approx")?;
            let hyper_p = params.get_opt_u64("hyperball:p")?;
            let hyper = params.flag("hyperball")? || hyper_p.is_some();
            let rounds = params.get_opt_u64("rounds")?;
            if usize::from(two) + usize::from(three) + usize::from(hyper) != 1 {
                return Err(params.invalid(
                    "pick exactly one method: two_approx, three_halves_approx, or \
                     hyperball[:p=P]",
                ));
            }
            if rounds.is_some() && !hyper {
                return Err(params.invalid("parameter rounds only applies to hyperball"));
            }
            if rounds == Some(0) {
                return Err(params.invalid("parameter rounds must be ≥ 1"));
            }
            let method = if two {
                DiameterMethod::TwoApprox
            } else if three {
                DiameterMethod::ThreeHalvesApprox
            } else {
                let p = hyper_p.unwrap_or(6);
                if !(u64::from(MIN_PRECISION)..=u64::from(MAX_PRECISION)).contains(&p) {
                    return Err(params.invalid(format!(
                        "parameter hyperball:p={p} outside {MIN_PRECISION}..={MAX_PRECISION}"
                    )));
                }
                DiameterMethod::Hyperball(HyperballProtocol {
                    p: p as u32,
                    rounds,
                })
            };
            Ok(Box::new(DiameterProtocol { method }))
        },
    );
    r
}

/// The trivial wavefront BFS (Section 4.3) as a [`Protocol`]; with `cd` it
/// runs the collision-detection variant and requires a CD-capable stack.
///
/// Depth defaults to `n` (the historical scenario-runner horizon: on a
/// connected graph the wavefront halts by eccentricity anyway). Sources,
/// seed, and the active set come from the [`ProtocolInput`]: with
/// `input.active = None` the whole vertex set participates (the exact
/// historical behaviour), while a restricted set runs the recursion's
/// base-case workload: the wavefront over [`ProtocolInput::active_set`],
/// the set the free functions build from their `active: &[bool]` mask.
#[derive(Clone, Debug)]
pub struct TrivialBfsProtocol {
    /// Explicit depth bound; `None` defers to the input/default.
    pub depth: Option<u64>,
    /// Run the CD-exploiting variant ([`crate::baseline::trivial_bfs_cd`]).
    pub cd: bool,
}

impl Protocol for TrivialBfsProtocol {
    fn name(&self) -> ProtocolId {
        let base = if self.cd {
            "trivial_bfs_cd"
        } else {
            "trivial_bfs"
        };
        match self.depth {
            None => ProtocolId::new(base),
            Some(d) => ProtocolId::new(format!("{base}_d{d}")),
        }
    }

    fn requires(&self) -> radio_protocols::Capabilities {
        let mut req = radio_protocols::Capabilities::baseline();
        if self.cd {
            req.collision_detection = CollisionDetection::Receiver;
        }
        req
    }

    fn execute(
        &self,
        net: &mut dyn RadioStack,
        input: &ProtocolInput,
        frame: &mut LbFrame,
    ) -> ProtocolOutput {
        let n = net.num_nodes();
        let depth = self.depth.or(input.depth).unwrap_or(n as u64);
        let active = input.active_set(n);
        let sources = input.sources.iter().copied();
        let result = wavefront_bfs(net, frame, sources, &active, Some(depth), self.cd);
        ProtocolOutput::Distances(result.dist)
    }
}

/// The unbounded Decay-style wavefront BFS as a [`Protocol`]. Single-source
/// (the first input source). `ProtocolInput::depth` is deliberately
/// ignored: the decay wavefront is by definition bound-free (it stops when
/// a sweep settles nothing new) — for a depth-bounded run use
/// `trivial_bfs:depth=D`, which is the same wavefront with a horizon.
#[derive(Clone, Debug)]
pub struct DecayBfsProtocol;

impl Protocol for DecayBfsProtocol {
    fn name(&self) -> ProtocolId {
        ProtocolId::new("decay_bfs")
    }

    fn execute(
        &self,
        net: &mut dyn RadioStack,
        input: &ProtocolInput,
        frame: &mut LbFrame,
    ) -> ProtocolOutput {
        let source = input.sources.first().copied().unwrap_or(0);
        let active = all_vertices(net.num_nodes());
        let result = wavefront_bfs(net, frame, [source], &active, None, false);
        ProtocolOutput::Distances(result.dist)
    }
}

/// The recursive BFS of Section 4 as a [`Protocol`]: builds the cluster
/// hierarchy (seeded from the input seed) and runs one query to the depth
/// bound, with `1/β` tuned to the depth as the paper prescribes.
#[derive(Clone, Debug)]
pub struct RecursiveBfsProtocol {
    /// Explicit `1/β`; `None` derives it from the depth via `eps`.
    pub inv_beta: Option<u64>,
    /// Exponent of the depth-derived tuning: `1/β ≈ D^eps`, rounded to a
    /// power of two, at least 4. The default `0.5` is the paper's `√D`.
    pub eps: f64,
    /// Hierarchy depth (recursion levels).
    pub max_depth: usize,
}

impl RecursiveBfsProtocol {
    fn config_for(&self, depth: u64, seed: u64) -> RecursiveBfsConfig {
        let tuned = RecursiveBfsConfig::for_depth(depth, self.eps, seed);
        let inv_beta = self.inv_beta.unwrap_or(tuned.inv_beta);
        RecursiveBfsConfig {
            inv_beta,
            max_depth: self.max_depth,
            ..tuned
        }
    }
}

impl Protocol for RecursiveBfsProtocol {
    fn name(&self) -> ProtocolId {
        let mut label = String::from("recursive_bfs");
        if let Some(b) = self.inv_beta {
            label.push_str(&format!("_b{b}"));
        } else if self.eps != 0.5 {
            label.push_str(&format!("_eps{}", self.eps));
        }
        if self.max_depth != 1 {
            label.push_str(&format!("_d{}", self.max_depth));
        }
        ProtocolId::new(label)
    }

    fn execute(
        &self,
        net: &mut dyn RadioStack,
        input: &ProtocolInput,
        frame: &mut LbFrame,
    ) -> ProtocolOutput {
        let _ = frame; // the recursion owns one frame per level
        let n = net.num_nodes();
        let depth = input.depth.unwrap_or((n as u64).saturating_sub(1));
        let config = self.config_for(depth, input.seed);
        let hierarchy = build_hierarchy(net, &config);
        let result =
            recursive_bfs_with_hierarchy(net, &hierarchy, &input.sources, depth, &config, &[]);
        ProtocolOutput::Distances(result.dist)
    }
}

/// Which estimator a [`DiameterProtocol`] runs.
#[derive(Clone, Debug)]
pub enum DiameterMethod {
    /// Theorem 5.3: one full BFS from an elected leader, estimate ∈
    /// `[diam/2, diam]`.
    TwoApprox,
    /// Theorem 5.4: the hitting-set construction, `Õ(√n)` BFS runs,
    /// estimate ∈ `[⌊2·diam/3⌋, diam]`.
    ThreeHalvesApprox,
    /// The HyperBall sketch: no BFS at all, estimate = last round that
    /// changed a register (within `1.04/√2^p` of the diameter, up to hash
    /// collisions — and capped by `rounds` when bounded).
    Hyperball(HyperballProtocol),
}

/// The Section 5 diameter estimators as one registry family
/// (`diameter:two_approx`, `diameter:three_halves_approx`,
/// `diameter:hyperball:p=…`), each reporting
/// [`ProtocolOutput::Diameter`] — {estimate, BFS count} plus the usual
/// energy diff — so exact-vs-sketch tradeoffs are one spec swap apart.
///
/// The exact estimators derive their [`RecursiveBfsConfig`] from the
/// depth exactly as the `recursive` wrapper does (`1/β = √D` rounded to a
/// power of two, seeded from the input), so a registry-dispatched run is
/// byte-identical to the historical direct calls of E12/E13.
#[derive(Clone, Debug)]
pub struct DiameterProtocol {
    /// The selected estimator.
    pub method: DiameterMethod,
}

impl Protocol for DiameterProtocol {
    fn name(&self) -> ProtocolId {
        match &self.method {
            DiameterMethod::TwoApprox => ProtocolId::new("diameter_two_approx"),
            DiameterMethod::ThreeHalvesApprox => ProtocolId::new("diameter_three_halves_approx"),
            DiameterMethod::Hyperball(h) => ProtocolId::new(format!("diameter_{}", h.name())),
        }
    }

    fn execute(
        &self,
        net: &mut dyn RadioStack,
        input: &ProtocolInput,
        frame: &mut LbFrame,
    ) -> ProtocolOutput {
        match &self.method {
            DiameterMethod::TwoApprox => {
                let config = diameter_config(net, input);
                let est = two_approx_diameter(net, &config);
                ProtocolOutput::Diameter {
                    estimate: est.estimate,
                    bfs_count: est.bfs_count,
                }
            }
            DiameterMethod::ThreeHalvesApprox => {
                let config = diameter_config(net, input);
                let est = three_halves_approx_diameter(net, &config, input.seed);
                ProtocolOutput::Diameter {
                    estimate: est.estimate,
                    bfs_count: est.bfs_count,
                }
            }
            DiameterMethod::Hyperball(h) => {
                let summary = match h.execute(net, input, frame) {
                    ProtocolOutput::Sketch(s) => s,
                    other => unreachable!("hyperball produced {other:?}"),
                };
                ProtocolOutput::Diameter {
                    estimate: summary.diameter_estimate,
                    bfs_count: 0,
                }
            }
        }
    }
}

/// The depth-tuned [`RecursiveBfsConfig`] the exact diameter estimators
/// run with: [`RecursiveBfsConfig::for_depth`] at the `recursive` wrapper's
/// default `√D`.
fn diameter_config(net: &dyn RadioStack, input: &ProtocolInput) -> RecursiveBfsConfig {
    let depth = input
        .depth
        .unwrap_or((net.num_nodes() as u64).saturating_sub(1));
    RecursiveBfsConfig::for_depth(depth, 0.5, input.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generators;
    use radio_protocols::{ProtocolError, StackBuilder};
    use radio_sim::EnergyModel;

    #[test]
    fn registry_knows_all_eight_protocol_families() {
        let r = registry();
        assert_eq!(
            r.known(),
            vec![
                "clustering",
                "lb_sweep",
                "hyperball",
                "trivial_bfs",
                "trivial_bfs_cd",
                "decay_bfs",
                "recursive",
                "diameter"
            ]
        );
        assert_eq!(r.get("trivial_bfs").unwrap().name(), "trivial_bfs");
        assert_eq!(r.get("trivial_bfs_cd").unwrap().name(), "trivial_bfs_cd");
        assert_eq!(r.get("decay_bfs").unwrap().name(), "decay_bfs");
        assert_eq!(r.get("recursive").unwrap().name(), "recursive_bfs");
        assert_eq!(r.get("recursive:b=8").unwrap().name(), "recursive_bfs_b8");
        assert_eq!(
            r.get("trivial_bfs:depth=5").unwrap().name(),
            "trivial_bfs_d5"
        );
        assert_eq!(r.get("hyperball:p=6").unwrap().name(), "hyperball_p6");
    }

    #[test]
    fn diameter_family_resolves_each_method_and_rejects_ambiguity() {
        let r = registry();
        assert_eq!(
            r.get("diameter:two_approx").unwrap().name(),
            "diameter_two_approx"
        );
        assert_eq!(
            r.get("diameter:three_halves_approx").unwrap().name(),
            "diameter_three_halves_approx"
        );
        assert_eq!(
            r.get("diameter:hyperball").unwrap().name(),
            "diameter_hyperball_p6"
        );
        assert_eq!(
            r.get("diameter:hyperball:p=8").unwrap().name(),
            "diameter_hyperball_p8"
        );
        assert_eq!(
            r.get("diameter:hyperball:p=6,rounds=12").unwrap().name(),
            "diameter_hyperball_p6_r12"
        );
        for spec in [
            "diameter",                                // no method picked
            "diameter:two_approx,three_halves_approx", // two methods
            "diameter:two_approx,rounds=4",            // rounds without hyperball
            "diameter:hyperball:p=3",                  // p below the floor
            "diameter:hyperball:p=6,rounds=0",         // zero bound
            "diameter:two_approx=1",                   // selector given a value
            "diameter:warp",                           // unknown method
        ] {
            assert!(
                matches!(r.get(spec), Err(ProtocolError::InvalidSpec { .. })),
                "{spec} must be rejected"
            );
        }
        // The unknown-spec listing includes the new families (the CLI's
        // exit-2 contract).
        let Err(err) = r.get("warp_drive") else {
            panic!("warp_drive resolved");
        };
        let msg = err.to_string();
        assert!(
            msg.contains("diameter") && msg.contains("hyperball"),
            "{msg}"
        );
    }

    #[test]
    fn diameter_two_approx_wrapper_matches_the_direct_call() {
        let g = generators::grid(8, 8);
        let seed = 12u64;
        let report = {
            let mut net = StackBuilder::new(g.clone()).with_seed(seed).build();
            registry()
                .get("diameter:two_approx")
                .unwrap()
                .run(&mut net, &ProtocolInput::from_seed(seed))
                .unwrap()
        };
        let mut net = StackBuilder::new(g.clone()).with_seed(seed).build();
        let depth = (g.num_nodes() as u64) - 1;
        let config = RecursiveBfsConfig::for_depth(depth, 0.5, seed);
        let direct = crate::diameter::two_approx_diameter(&mut net, &config);
        assert_eq!(report.outcome(), direct.estimate);
        assert_eq!(report.output.diameter_estimate(), Some(direct.estimate));
        assert_eq!(report.energy, net.energy_view());
        // Theorem 5.3 guarantee against the known grid diameter (14).
        let diam = 14u64;
        assert!(direct.estimate <= diam && 2 * direct.estimate >= diam);
    }

    #[test]
    fn diameter_three_halves_wrapper_matches_the_direct_call() {
        let g = generators::grid(6, 6);
        let seed = 13u64;
        let report = {
            let mut net = StackBuilder::new(g.clone()).with_seed(seed).build();
            registry()
                .get("diameter:three_halves_approx")
                .unwrap()
                .run(&mut net, &ProtocolInput::from_seed(seed))
                .unwrap()
        };
        let mut net = StackBuilder::new(g.clone()).with_seed(seed).build();
        let depth = (g.num_nodes() as u64) - 1;
        let config = RecursiveBfsConfig::for_depth(depth, 0.5, seed);
        let direct = crate::diameter::three_halves_approx_diameter(&mut net, &config, seed);
        assert_eq!(report.outcome(), direct.estimate);
        assert_eq!(report.energy, net.energy_view());
        match report.output {
            ProtocolOutput::Diameter { bfs_count, .. } => {
                assert_eq!(bfs_count, direct.bfs_count);
                assert!(bfs_count > 1, "hitting-set method runs many BFS");
            }
            other => panic!("expected diameter output, got {other:?}"),
        }
    }

    #[test]
    fn diameter_hyperball_estimates_the_path_diameter_exactly() {
        // Loss-free stack, path(32): ball-exact flooding makes the last
        // changing round the true diameter — no envelope slack needed.
        let g = generators::path(32);
        let mut net = StackBuilder::new(g).build();
        let report = registry()
            .get("diameter:hyperball:p=6")
            .unwrap()
            .run(&mut net, &ProtocolInput::from_seed(4))
            .unwrap();
        assert_eq!(report.outcome(), 31);
        match report.output {
            ProtocolOutput::Diameter { bfs_count, .. } => assert_eq!(bfs_count, 0),
            other => panic!("expected diameter output, got {other:?}"),
        }
    }

    #[test]
    fn zero_valued_knobs_are_rejected_not_reinterpreted() {
        // 0 is not a sentinel: depth=0 must not mean "unbounded", d=0 must
        // not clamp to 1, b=0 must not mean "derive from depth".
        let r = registry();
        for spec in [
            "trivial_bfs:depth=0",
            "trivial_bfs_cd:depth=0",
            "recursive:b=0",
            "recursive:d=0",
        ] {
            assert!(
                matches!(r.get(spec), Err(ProtocolError::InvalidSpec { .. })),
                "{spec} must be rejected"
            );
        }
    }

    #[test]
    fn registry_dispatch_matches_direct_trivial_bfs() {
        let g = generators::grid(6, 6);
        let report = {
            let mut net = StackBuilder::new(g.clone()).with_seed(3).build();
            registry()
                .get("trivial_bfs")
                .unwrap()
                .run(&mut net, &ProtocolInput::from_seed(3))
                .unwrap()
        };
        let mut net = StackBuilder::new(g.clone()).with_seed(3).build();
        let active = vec![true; g.num_nodes()];
        let direct = crate::baseline::trivial_bfs(&mut net, &[0], &active, g.num_nodes() as u64);
        assert_eq!(report.output.distances().unwrap(), &direct.dist[..]);
        assert_eq!(report.energy, net.energy_view());
        assert_eq!(report.outcome(), g.num_nodes() as u64);
    }

    #[test]
    fn restricted_active_set_matches_the_direct_call_and_none_is_full() {
        // The ProtocolInput::active satellite: a registry-dispatched run
        // with a restricted active set must equal the free function called
        // with the equivalent boolean mask — and `active: None` must stay
        // byte-for-byte the historical full-set behaviour.
        let g = generators::path(24);
        let proto = registry().get("trivial_bfs").unwrap();
        let prefix: Vec<usize> = (0..12).collect();
        let report = {
            let mut net = StackBuilder::new(g.clone()).with_seed(7).build();
            proto
                .run(
                    &mut net,
                    &ProtocolInput::from_seed(7).with_active(prefix.clone()),
                )
                .unwrap()
        };
        // Only the 12-vertex prefix participates: the wavefront stops at
        // the boundary.
        assert_eq!(report.outcome(), 12);
        let mut net = StackBuilder::new(g.clone()).with_seed(7).build();
        let mut mask = vec![false; g.num_nodes()];
        for &v in &prefix {
            mask[v] = true;
        }
        let direct = crate::baseline::trivial_bfs(&mut net, &[0], &mask, g.num_nodes() as u64);
        assert_eq!(report.output.distances().unwrap(), &direct.dist[..]);
        assert_eq!(report.energy, net.energy_view());
        // None == all vertices: identical to an explicit full set.
        let run_with = |input: &ProtocolInput| {
            let mut net = StackBuilder::new(g.clone()).with_seed(7).build();
            proto.run(&mut net, input).unwrap()
        };
        let implicit = run_with(&ProtocolInput::from_seed(7));
        let explicit =
            run_with(&ProtocolInput::from_seed(7).with_active((0..g.num_nodes()).collect()));
        assert_eq!(implicit.outcome(), explicit.outcome());
        assert_eq!(implicit.energy, explicit.energy);
        // Out-of-range vertices in the set are ignored, not a panic.
        let oob = ProtocolInput::from_seed(7).with_active(vec![0, 1, 2, 999]);
        assert_eq!(oob.active_set(g.num_nodes()).len(), 3);
    }

    #[test]
    fn registry_dispatch_matches_direct_recursive_bfs() {
        let g = generators::path(96);
        let seed = 5u64;
        let report = {
            let mut net = StackBuilder::new(g.clone()).with_seed(seed).build();
            registry()
                .get("recursive")
                .unwrap()
                .run(&mut net, &ProtocolInput::from_seed(seed))
                .unwrap()
        };
        // The exact historical derivation the scenario runner used.
        let depth = 95u64;
        let config = RecursiveBfsConfig::for_depth(depth, 0.5, seed);
        let mut net = StackBuilder::new(g).with_seed(seed).build();
        let hierarchy = build_hierarchy(&mut net, &config);
        let direct = recursive_bfs_with_hierarchy(&mut net, &hierarchy, &[0], depth, &config, &[]);
        assert_eq!(report.output.distances().unwrap(), &direct.dist[..]);
        assert_eq!(report.energy, net.energy_view());
    }

    #[test]
    fn cd_protocol_rejects_stacks_without_cd_with_a_typed_error() {
        // The conformance contract: a `physical` stack lacking CD gets a
        // typed MissingCapability error — no panic, no Local-Broadcast.
        let g = generators::path(6);
        let proto = registry().get("trivial_bfs_cd").unwrap();
        for (label, mut stack) in [
            ("abstract", StackBuilder::new(g.clone()).build()),
            (
                "physical",
                StackBuilder::new(g.clone())
                    .physical(EnergyModel::Uniform)
                    .build(),
            ),
        ] {
            match proto.run(&mut stack, &ProtocolInput::default()) {
                Err(ProtocolError::MissingCapability {
                    protocol,
                    available,
                    ..
                }) => {
                    assert_eq!(protocol, "trivial_bfs_cd");
                    assert_eq!(available, label);
                }
                Ok(_) => panic!("{label}: ran without CD"),
                Err(e) => panic!("{label}: wrong error {e}"),
            }
            assert_eq!(stack.lb_time(), 0, "{label}: gate fired too late");
        }
        // And both CD-capable backends pass the gate.
        for mut stack in [
            StackBuilder::new(g.clone()).with_cd().build(),
            StackBuilder::new(g)
                .physical(EnergyModel::Uniform)
                .with_cd()
                .build(),
        ] {
            let report = proto.run(&mut stack, &ProtocolInput::default()).unwrap();
            assert_eq!(report.outcome(), 6);
        }
    }

    #[test]
    fn decay_bfs_protocol_labels_a_cycle_fully() {
        let g = generators::cycle(17);
        let mut net = StackBuilder::new(g).build();
        let report = registry()
            .get("decay_bfs")
            .unwrap()
            .run(&mut net, &ProtocolInput::default())
            .unwrap();
        assert_eq!(report.outcome(), 17);
        assert!(report.lb_calls() >= 8);
    }
}
