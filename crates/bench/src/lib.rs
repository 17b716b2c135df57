//! Shared helpers for the benchmark harness and the `experiments` binary.
//!
//! Every experiment in EXPERIMENTS.md (E1–E14) has a function in the
//! `experiments` binary; the Criterion benches under `benches/` reuse the
//! same building blocks to measure wall-clock scaling of the simulator
//! itself. This library only holds the small amount of code both need.
//!
//! Workload dispatch goes through the protocol registry ([`registry`],
//! re-exported from `energy-bfs`): the scenario runner resolves each
//! [`scenarios::Protocol`] variant's spec once per batch item, and
//! `experiments -- scenarios --protocol <spec>` validates CLI filters
//! through the same path.
//!
//! Sweeps are *incremental*: [`results`] is a content-addressed store of
//! per-cell [`scenarios::ScenarioRecord`] artifacts — fronted by a bounded
//! in-memory hot set — consulted by the runner before any cell is
//! dispatched. The runner has one entry point,
//! [`scenarios::run_batch_with_stores`], and one executor,
//! [`pool::WorkPool`]. [`server`] turns the whole pipeline into a
//! long-running concurrent service (`experiments -- serve`): an accept
//! pool of connection handlers over one listener, batched requests
//! scheduled as one work-item set on a shared pool, answered from the
//! store when warm ([`json`] is the dependency-free parser and escaper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod pool;
pub mod results;
pub mod scenarios;
pub mod server;

pub use energy_bfs::protocol::registry;

use energy_bfs::RecursiveBfsConfig;
use radio_graph::{generators, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A deterministic RNG for experiment `tag`.
pub fn rng(tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0xE4E5_0000 ^ tag)
}

/// The standard graph families used across experiments, with printable
/// names.
pub fn standard_families(seed: u64) -> Vec<(String, Graph)> {
    let mut r = rng(seed);
    let mut out = vec![
        ("path(256)".to_string(), generators::path(256)),
        ("cycle(200)".to_string(), generators::cycle(200)),
        ("grid(16x16)".to_string(), generators::grid(16, 16)),
        (
            "tree(k=3,levels=5)".to_string(),
            generators::complete_k_ary_tree(3, 5),
        ),
        ("lollipop(20,60)".to_string(), generators::lollipop(20, 60)),
    ];
    if let Some(g) = generators::connected_gnp(220, 0.03, 300, &mut r) {
        out.push(("gnp(220,0.03)".to_string(), g));
    }
    if let Some((g, _)) = generators::connected_unit_disc(260, 20.0, 2.2, 300, &mut r) {
        out.push(("unit-disc(260)".to_string(), g));
    }
    out
}

/// The recursive-BFS configuration used by the energy-scaling experiments:
/// `1/β ≈ √D` (the paper's tuning, up to constants) with one recursion
/// level, which is the profitable depth at simulator scale.
pub fn scaling_config(depth: u64, seed: u64) -> RecursiveBfsConfig {
    let inv_beta = ((depth as f64).sqrt().round() as u64)
        .next_power_of_two()
        .max(4);
    RecursiveBfsConfig {
        inv_beta,
        max_depth: 1,
        trivial_cutoff: inv_beta,
        seed,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_nonempty_and_connected() {
        let fams = standard_families(1);
        assert!(fams.len() >= 5);
        for (name, g) in fams {
            assert!(
                radio_graph::components::is_connected(&g),
                "{name} disconnected"
            );
        }
    }

    #[test]
    fn scaling_config_tracks_depth() {
        assert!(scaling_config(100, 0).inv_beta >= 8);
        assert!(scaling_config(4096, 0).inv_beta >= 64);
    }
}
