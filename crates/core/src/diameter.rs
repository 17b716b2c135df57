//! Energy-efficient diameter approximation (paper, Section 5.1).
//!
//! * [`two_approx_diameter`] — Theorem 5.3: elect a leader, BFS from it,
//!   Find-Maximum over the labels. The eccentricity of any vertex lies in
//!   `[diam/2, diam]`, so the returned estimate 2-approximates the diameter
//!   using one BFS worth of energy (`n^{o(1)}`).
//! * [`three_halves_approx_diameter`] — Theorem 5.4, following Holzer et
//!   al. / Roditty–Williams [19, 38]: sample a hitting set `S` of expected
//!   size `√n·log n`, BFS from every vertex of `S`, find the vertex `v*`
//!   farthest from `S`, BFS from the `√n` vertices closest to `v*`, and
//!   return the maximum BFS label seen. The estimate `D'` satisfies
//!   `⌊2·diam/3⌋ ≤ D' ≤ diam` w.h.p. and costs `n^{1/2+o(1)}` energy.
//!
//! Section 5.1 elects the leader with the `Õ(1)`-energy leader election
//! of the Broadcast paper, cited as a black box. Both algorithms here
//! substitute a designated initiator, vertex 0 (`INITIATOR`) — the same
//! assumption the BFS problem makes about its source — and charge nothing
//! for the election.

use radio_protocols::aggregate::{find_max, find_min};
use radio_protocols::broadcast::Layers;
use radio_protocols::{EnergyView, RadioStack};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::RecursiveBfsConfig;
use crate::recursive_bfs::{build_hierarchy, recursive_bfs_full};

/// The designated initiator standing in for the elected leader.
const INITIATOR: usize = 0;

/// The output of a diameter-approximation run.
#[derive(Clone, Debug, PartialEq)]
pub struct DiameterEstimate {
    /// The estimate `D'`.
    pub estimate: u64,
    /// Number of BFS computations performed.
    pub bfs_count: u64,
    /// Energy/time counters after the run (setup + queries).
    pub energy: EnergyView,
    /// Energy/time counters once the cluster hierarchy is built (its cost
    /// is amortizable across queries); `energy.diff(&setup_energy)` is the
    /// queries' share.
    pub setup_energy: EnergyView,
}

/// Theorem 5.3: a 2-approximation of the diameter (`D' ∈ [diam/2, diam]`)
/// using one BFS plus one Find-Maximum.
pub fn two_approx_diameter(
    net: &mut dyn RadioStack,
    config: &RecursiveBfsConfig,
) -> DiameterEstimate {
    let hierarchy = build_hierarchy(net, config);
    let setup_energy = net.energy_view();

    let labels = recursive_bfs_full(net, &hierarchy, &[INITIATOR], config).dist;
    let n = net.num_nodes();
    // Find-Maximum over the BFS labels, on the BFS tree they define, so that
    // every device knows the estimate.
    let found = find_max(net, &Layers::new(&labels), &labels, n as u64 + 1);

    DiameterEstimate {
        estimate: found.map_or(0, |r| r.key),
        bfs_count: 1,
        energy: net.energy_view(),
        setup_energy,
    }
}

/// Theorem 5.4: a nearly-3/2 approximation (`⌊2·diam/3⌋ ≤ D' ≤ diam`
/// w.h.p.) using `Õ(√n)` BFS computations and aggregations.
pub fn three_halves_approx_diameter(
    net: &mut dyn RadioStack,
    config: &RecursiveBfsConfig,
    seed: u64,
) -> DiameterEstimate {
    let n = net.num_nodes();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let hierarchy = build_hierarchy(net, config);
    let setup_energy = net.energy_view();
    let mut bfs_count = 0u64;

    // BFS from the initiator: gives the aggregation tree and one
    // eccentricity.
    let initiator_labels = recursive_bfs_full(net, &hierarchy, &[INITIATOR], config).dist;
    bfs_count += 1;
    let tree = Layers::new(&initiator_labels);
    let mut best = max_finite(&initiator_labels);

    // Sample S: each vertex joins independently with probability
    // min(1, log n / √n).
    let p = ((n.max(2) as f64).ln() / (n.max(2) as f64).sqrt()).min(1.0);
    let mut s_set: Vec<usize> = (0..n).filter(|_| rng.gen_bool(p)).collect();
    if s_set.is_empty() {
        s_set.push(INITIATOR);
    }

    // Everyone learns the members of S via |S| Find-Minimum iterations over
    // the initiator's BFS tree (the paper's accounting for this phase).
    let _ = announce_set(net, &tree, &s_set, n);

    // dist(·, S) and the max label over the BFS from each s ∈ S.
    let mut dist_to_s: Vec<Option<u64>> = vec![None; n];
    for &s in &s_set {
        let labels = recursive_bfs_full(net, &hierarchy, &[s], config).dist;
        bfs_count += 1;
        best = best.max(max_finite(&labels));
        for (to_s, d) in dist_to_s.iter_mut().zip(labels) {
            *to_s = to_s.iter().copied().chain(d).min();
        }
    }

    // v*: the vertex farthest from S (elected with one Find-Maximum).
    let v_star = find_max(net, &tree, &dist_to_s, n as u64 + 1)
        .map(|r| r.node)
        .unwrap_or(INITIATOR);

    // BFS from v*; everyone learns its distance to v*.
    let star_labels = recursive_bfs_full(net, &hierarchy, &[v_star], config).dist;
    bfs_count += 1;
    best = best.max(max_finite(&star_labels));

    // R: the √n vertices closest to v*, selected by √n Find-Minimum
    // iterations over (distance-to-v*, id); a selected vertex drops its key.
    let r_size = ((n as f64).sqrt().ceil() as usize).min(n);
    let ids = n as u64 + 1;
    let mut keys: Vec<Option<u64>> = (0..n)
        .map(|v| star_labels[v].map(|d| d * ids + v as u64))
        .collect();
    let mut r_set: Vec<usize> = Vec::with_capacity(r_size);
    for _ in 0..r_size {
        let Some(result) = find_min(net, &tree, &keys, ids * ids) else {
            break;
        };
        let v = (result.key % ids) as usize;
        keys[v] = None;
        r_set.push(v);
    }

    // BFS from every vertex of R.
    for &r in &r_set {
        let labels = recursive_bfs_full(net, &hierarchy, &[r], config).dist;
        bfs_count += 1;
        best = best.max(max_finite(&labels));
    }

    // Final Find-Maximum so the whole network knows D' (the centralized
    // `best` is what we report).
    let _ = find_max(net, &tree, &vec![Some(best); n], best + 2);

    DiameterEstimate {
        estimate: best,
        bfs_count,
        energy: net.energy_view(),
        setup_energy,
    }
}

/// Announces the members of `set` to the whole network, one Find-Minimum per
/// member, over the BFS tree `tree`. Returns the number of aggregation
/// rounds used.
fn announce_set(net: &mut dyn RadioStack, tree: &Layers, set: &[usize], n: usize) -> u64 {
    let mut pending: Vec<Option<u64>> = vec![None; n];
    for &v in set {
        pending[v] = Some(v as u64);
    }
    let mut rounds = 0u64;
    while let Some(result) = find_min(net, tree, &pending, n as u64 + 1) {
        pending[result.key as usize] = None;
        rounds += 1;
    }
    rounds
}

fn max_finite(dist: &[Option<u64>]) -> u64 {
    dist.iter().flatten().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::diameter::{exact_diameter, satisfies_theorem_5_4_bound};
    use radio_graph::generators;
    use radio_protocols::StackBuilder;

    fn config() -> RecursiveBfsConfig {
        RecursiveBfsConfig {
            inv_beta: 4,
            max_depth: 1,
            seed: 1,
        }
    }

    #[test]
    fn two_approx_is_within_factor_two_on_families() {
        let graphs = vec![
            generators::path(60),
            generators::cycle(50),
            generators::grid(8, 8),
            generators::star(40),
            generators::caterpillar(20, 2),
        ];
        for g in graphs {
            let diam = exact_diameter(&g).unwrap() as u64;
            let mut net = StackBuilder::new(g.clone()).build();
            let est = two_approx_diameter(&mut net, &config());
            assert!(
                est.estimate <= diam,
                "estimate {} > diam {}",
                est.estimate,
                diam
            );
            assert!(
                2 * est.estimate >= diam,
                "estimate {} not a 2-approx of {} ({:?})",
                est.estimate,
                diam,
                g
            );
            assert_eq!(est.bfs_count, 1);
        }
    }

    #[test]
    fn two_approx_reports_setup_and_query_energy_separately() {
        let n = 200;
        let g = generators::path(n);
        let mut net = StackBuilder::new(g).build();
        let cfg = RecursiveBfsConfig {
            inv_beta: 16,
            max_depth: 1,
            seed: 2,
        };
        let est = two_approx_diameter(&mut net, &cfg);
        assert!(est.estimate >= (n as u64 - 1) / 2);
        assert!(est.estimate < n as u64);
        // Setup (hierarchy construction) happened and is included in the
        // total, so the query delta is strictly smaller than the total.
        assert!(est.setup_energy.max_lb_energy() > 0);
        assert!(est.setup_energy.max_lb_energy() <= est.energy.max_lb_energy());
        let query = est.energy.diff(&est.setup_energy);
        assert!(query.lb_time() > 0);
    }

    #[test]
    fn estimate_snapshots_are_prefixes_of_the_stacks_own_view() {
        // `energy` is the stack's final view and `setup_energy` an earlier
        // one, so every counter of the setup is bounded node by node, and
        // a physical stack's slot counters travel with both.
        for mut net in [
            StackBuilder::new(generators::path(24)).build(),
            StackBuilder::new(generators::path(24))
                .physical(radio_protocols::EnergyModel::Uniform)
                .with_seed(4)
                .build(),
        ] {
            let est = two_approx_diameter(&mut net, &config());
            assert_eq!(est.energy, net.energy_view());
            let physical = net.capabilities().physical;
            assert_eq!(est.energy.has_physical(), physical);
            assert_eq!(est.setup_energy.has_physical(), physical);
            for v in 0..net.num_nodes() {
                assert!(est.setup_energy.lb_energy(v) <= est.energy.lb_energy(v));
            }
            let query = est.energy.diff(&est.setup_energy);
            assert_eq!(
                query.lb_time() + est.setup_energy.lb_time(),
                est.energy.lb_time()
            );
            if physical {
                assert!(query.physical_slots().unwrap() > 0);
                assert!(est.setup_energy.physical_slots() <= est.energy.physical_slots());
            }
        }
    }

    #[test]
    fn three_halves_approx_meets_its_guarantee() {
        let graphs = vec![
            generators::path(40),
            generators::cycle(36),
            generators::grid(6, 7),
            generators::lollipop(8, 12),
            generators::barbell(6, 10),
        ];
        for g in graphs {
            let diam = exact_diameter(&g).unwrap();
            let mut net = StackBuilder::new(g.clone()).build();
            let est = three_halves_approx_diameter(&mut net, &config(), 42);
            assert!(
                satisfies_theorem_5_4_bound(diam, est.estimate as u32),
                "estimate {} violates the Theorem 5.4 bound for diameter {} on {:?}",
                est.estimate,
                diam,
                g
            );
        }
    }

    #[test]
    fn three_halves_uses_about_sqrt_n_bfs_computations() {
        let g = generators::grid(7, 7);
        let n = g.num_nodes();
        let mut net = StackBuilder::new(g).build();
        let est = three_halves_approx_diameter(&mut net, &config(), 7);
        let sqrt_n = (n as f64).sqrt();
        // |S| ≈ √n·log n plus √n from R plus 2: allow a wide but meaningful
        // band that rules out Θ(n) BFS computations.
        assert!(est.bfs_count as f64 >= sqrt_n);
        assert!(
            (est.bfs_count as f64) <= 4.0 * sqrt_n * (n as f64).ln(),
            "bfs_count {} too large",
            est.bfs_count
        );
    }

    #[test]
    fn three_halves_beats_factor_two_on_a_cycle() {
        // On an n-cycle the BFS eccentricity from any vertex equals the
        // diameter, so both estimators are exact; the point is that the
        // 3/2-approx also reaches it despite its more elaborate schedule.
        let g = generators::cycle(30);
        let diam = exact_diameter(&g).unwrap() as u64;
        let mut net = StackBuilder::new(g).build();
        let est = three_halves_approx_diameter(&mut net, &config(), 3);
        assert_eq!(est.estimate, diam);
    }

    #[test]
    fn announce_set_counts_every_member_once() {
        let g = generators::path(20);
        let tree = Layers::new(&(0..20).map(Some).collect::<Vec<_>>());
        let mut net = StackBuilder::new(g).build();
        let rounds = announce_set(&mut net, &tree, &[3, 7, 15], 20);
        assert_eq!(rounds, 3);
    }
}
