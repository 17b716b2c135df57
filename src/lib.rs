//! # radio-energy
//!
//! A from-scratch Rust reproduction of *The Energy Complexity of BFS in
//! Radio Networks* (Chang, Dani, Hayes, Pettie; PODC 2020).
//!
//! This umbrella crate re-exports the four layers of the workspace so that
//! examples and downstream users need a single dependency:
//!
//! * [`graph`] (`radio-graph`) — graphs, generators, centralized reference
//!   algorithms, MPX clustering, lower-bound constructions.
//! * [`sim`] (`radio-sim`) — the slot-accurate `RN[∞]` simulator (no bound
//!   on message size) with per-device energy metering and the Decay
//!   Local-Broadcast.
//! * [`protocols`] (`radio-protocols`) — the Local-Broadcast abstraction,
//!   distributed clustering, casts, virtual cluster networks, aggregation.
//! * [`bfs`] (`energy-bfs`) — the recursive sub-polynomial-energy BFS, the
//!   diameter approximations, baselines, and hardness experiments.
//!
//! See `README.md` for a quickstart and `DESIGN.md` / `EXPERIMENTS.md` for
//! the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use energy_bfs as bfs;
pub use radio_graph as graph;
pub use radio_protocols as protocols;
pub use radio_sim as sim;

/// Convenience prelude for examples and quick experiments.
pub mod prelude {
    pub use energy_bfs::baseline::{decay_bfs, trivial_bfs, trivial_bfs_cd};
    pub use energy_bfs::diameter::{three_halves_approx_diameter, two_approx_diameter};
    pub use energy_bfs::protocol::registry;
    pub use energy_bfs::{
        build_hierarchy, recursive_bfs, recursive_bfs_with_hierarchy, BfsOutcome,
        RecursiveBfsConfig,
    };
    pub use radio_graph::{generators, Graph, GraphBuilder};
    pub use radio_protocols::{
        Capabilities, EnergyView, Protocol, ProtocolError, ProtocolInput, ProtocolReport,
        RadioStack, Stack, StackBuilder, VirtualClusterNet,
    };
    pub use radio_sim::{CollisionDetection, EnergyMeter, EnergyModel, LbFeedback, RadioNetwork};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_re_exports_compile_and_link() {
        use crate::prelude::*;
        let g = generators::path(4);
        let mut net = StackBuilder::new(g).build();
        assert_eq!(net.num_nodes(), 4);
        assert!(!net.capabilities().collision_detection.is_receiver());
        let _ = RecursiveBfsConfig::default();
        // The protocol surface rides along: one registry dispatch end to end.
        let report = registry()
            .get("trivial_bfs")
            .expect("registered")
            .run(&mut net, &ProtocolInput::default())
            .expect("abstract stack satisfies everything");
        assert_eq!(report.outcome(), 4);
    }
}
