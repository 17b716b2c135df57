//! Configuration of the recursive BFS.
//!
//! The paper sets `β = 2^{−√(log D₀ · log log n)}` and recursion depth
//! `L = √(log D₀ / log log n)`, and leaves the constants `w = Θ(log n)` and
//! the clustering constants unspecified. The configuration makes the
//! parameters explicit and fixes the constants below;
//! [`RecursiveBfsConfig::auto`] reproduces the paper's asymptotic choices
//! for a given `(n, D₀)`.

use radio_protocols::ClusteringConfig;

/// Multiplier `c_w` in `w = c_w · ln n`; the paper needs a "sufficiently
/// large multiple of log n".
const W_FACTOR: f64 = 2.0;

/// Constant multiplying `C·ln n` in the cast index-set length `ℓ`.
///
/// Smaller than `ClusteringConfig::new`'s 4.0: the recursive BFS only uses
/// casts to move distance estimates, and the w-slack of Invariant 4.1
/// absorbs the rare missed delivery, so it can run with the leaner (faster,
/// lower-energy) index sets. The standalone cast API keeps the stronger
/// constant because it promises Lemma 3.1 delivery on its own.
const ELL_FACTOR: f64 = 2.0;

/// Tunable parameters of [`crate::recursive_bfs::recursive_bfs`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecursiveBfsConfig {
    /// `1/β` (an integer, as the paper requires).
    pub inv_beta: u64,
    /// Maximum recursion depth `L`; depth `L` reverts to the trivial BFS,
    /// as does any call whose depth bound is at most `1/β` (one stage).
    pub max_depth: usize,
    /// RNG seed for all randomized components (clustering shifts, tags,
    /// tie-breaking).
    pub seed: u64,
}

impl Default for RecursiveBfsConfig {
    fn default() -> Self {
        RecursiveBfsConfig {
            inv_beta: 8,
            max_depth: 1,
            seed: 0,
        }
    }
}

impl RecursiveBfsConfig {
    /// The paper's asymptotic parameter choices for a network of size `n`
    /// and distance threshold `d0`:
    /// `β = 2^{−√(log d0 · log log n)}` (rounded to a power of two so that
    /// `1/β` is an integer) and `L = ⌈√(log d0 / log log n)⌉`.
    pub fn auto(n: usize, d0: u64) -> Self {
        let n = n.max(4) as f64;
        let d0f = (d0.max(2)) as f64;
        let log_d = d0f.log2();
        let loglog_n = n.log2().log2().max(1.0);
        let exponent = (log_d * loglog_n).sqrt();
        let inv_beta = 2f64.powf(exponent).round().max(2.0) as u64;
        let inv_beta = inv_beta.next_power_of_two().max(2);
        let depth = (log_d / loglog_n).sqrt().ceil().max(1.0) as usize;
        RecursiveBfsConfig {
            inv_beta,
            max_depth: depth,
            ..Default::default()
        }
    }

    /// The depth-tuned configuration the experiments, the `recursive` spec
    /// and the diameter estimators run with: `1/β = D^eps` rounded to the
    /// nearest integer, then up to a power of two, and at least 4 — the
    /// paper's `1/β ≈ √D` (up to constants) at `eps = 0.5` — with one
    /// recursion level and `seed`.
    pub fn for_depth(depth: u64, eps: f64, seed: u64) -> Self {
        // `sqrt`, not `powf(0.5)`: the two can differ in the last ulp, which
        // would flip `round` and change the pinned sweep records.
        let base = if eps == 0.5 {
            (depth as f64).sqrt()
        } else {
            (depth as f64).powf(eps)
        };
        let inv_beta = (base.round() as u64).next_power_of_two().max(4);
        RecursiveBfsConfig {
            inv_beta,
            max_depth: 1,
            seed,
        }
    }

    /// β as a float.
    pub fn beta(&self) -> f64 {
        1.0 / self.inv_beta as f64
    }

    /// `w = c_w · ln n` (at least 2).
    pub fn w(&self, global_n: usize) -> f64 {
        (W_FACTOR * (global_n.max(2) as f64).ln()).max(2.0)
    }

    /// The clustering configuration induced by these parameters.
    pub fn clustering(&self) -> ClusteringConfig {
        ClusteringConfig {
            beta: self.beta(),
            ell_factor: ELL_FACTOR,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = RecursiveBfsConfig::default();
        assert!(c.beta() > 0.0 && c.beta() <= 0.5);
        assert!(c.w(1000) >= 2.0);
        assert_eq!(c.clustering().inverse_beta(), 8);
    }

    #[test]
    fn auto_scales_with_depth_and_n() {
        let small = RecursiveBfsConfig::auto(1000, 16);
        let large = RecursiveBfsConfig::auto(1000, 1 << 20);
        assert!(large.inv_beta > small.inv_beta);
        assert!(large.max_depth >= small.max_depth);
        assert!(small.inv_beta.is_power_of_two());
    }

    #[test]
    fn for_depth_rounds_the_root_up_to_a_power_of_two() {
        // (depth, eps, 1/β): √95 ≈ 9.7 rounds to 10, then up to 16; √4095
        // rounds to 64 exactly; small depths hit the floor of 4.
        for (depth, eps, inv_beta) in [
            (0, 0.5, 4),
            (15, 0.5, 4),
            (63, 0.5, 8),
            (95, 0.5, 16),
            (127, 0.5, 16),
            (511, 0.5, 32),
            (4095, 0.5, 64),
            (4096, 0.25, 8),
            (4096, 1.0, 4096),
        ] {
            let c = RecursiveBfsConfig::for_depth(depth, eps, 7);
            assert_eq!(c.inv_beta, inv_beta, "depth {depth}, eps {eps}");
            assert_eq!(c.max_depth, 1);
            assert_eq!(c.seed, 7);
        }
    }

    #[test]
    fn w_is_twice_ln_n_and_at_least_two() {
        let c = RecursiveBfsConfig::default();
        assert_eq!(c.w(0), 2.0);
        assert_eq!(c.w(2), 2.0);
        assert!((c.w(1000) - 2.0 * 1000f64.ln()).abs() < 1e-12);
        assert!(c.w(1 << 20) > c.w(1000));
    }

    #[test]
    fn clustering_carries_beta_and_the_lean_ell_factor() {
        let c = RecursiveBfsConfig::for_depth(255, 0.5, 3);
        let clustering = c.clustering();
        assert_eq!(clustering.inverse_beta(), c.inv_beta);
        assert_eq!(clustering.beta, c.beta());
        // Leaner index sets than the standalone cast API's default.
        let standalone = ClusteringConfig::new(c.inv_beta);
        assert_eq!(clustering.ell_factor, 2.0);
        assert!(clustering.ell_factor < standalone.ell_factor);
        assert!(clustering.ell(1000) < standalone.ell(1000));
    }

    #[test]
    fn auto_clamps_degenerate_inputs() {
        // n is clamped to 4 and D₀ to 2, which gives the smallest legal
        // parameters: 1/β = 2 and one level of recursion.
        let c = RecursiveBfsConfig::auto(0, 0);
        assert_eq!(c, RecursiveBfsConfig::auto(4, 2));
        assert_eq!((c.inv_beta, c.max_depth), (2, 1));
        assert_eq!(c.seed, RecursiveBfsConfig::default().seed);
    }

    #[test]
    fn with_seed_overrides_only_the_seed() {
        let base = RecursiveBfsConfig::auto(1000, 1 << 10);
        let mut c = base.with_seed(9);
        assert_eq!(c.seed, 9);
        c.seed = base.seed;
        assert_eq!(c, base);
    }
}
