//! Per-cluster distance-estimate intervals `[L_i(C), U_i(C)]` (paper,
//! Invariant 4.1) and their update rules.
//!
//! Before stage `i`, every vertex `u` knows an interval containing
//! `dist_G(W_i, Cl(u)) = dist_G(S, Cl(u)) − i·β⁻¹`, where `W_i` is the
//! current wavefront. Two kinds of updates maintain the invariant:
//!
//! * **Automatic** (free): the wavefront advanced by exactly `β⁻¹`, so both
//!   endpoints shrink by `β⁻¹`.
//! * **Special** (costs a recursive BFS on the cluster graph): the interval
//!   is refreshed from the exact distance `x = dist_{G*_i}(W*_i, C)` using
//!   the Lemma 2.2/4.1 translation between cluster-graph distances and
//!   original distances.
//!
//! The module also records estimate histories for Figure 3 (experiment E8).

/// The interval `[L_i(C), U_i(C)]` for one cluster, plus bookkeeping about
/// how it was last set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceEstimate {
    /// Lower bound `L_i(C)` (may be `f64::INFINITY` for deactivated
    /// clusters).
    pub lower: f64,
    /// Upper bound `U_i(C)`.
    pub upper: f64,
}

impl DistanceEstimate {
    /// The initialization of Step 1 of Recursive-BFS from the depth-`D*`
    /// distance `x` on the cluster graph (`None` = unreached within `D*`).
    ///
    /// `L₀(C) = x/(βw)`, `U₀(C) = max{w/β, w²·L₀(C)}`; unreached clusters
    /// get `L₀ = ∞` and are deactivated by the caller.
    pub fn initialize(x: Option<u64>, beta: f64, w: f64) -> Self {
        match x {
            None => DistanceEstimate {
                lower: f64::INFINITY,
                upper: f64::INFINITY,
            },
            Some(x) => {
                let lower = x as f64 / (beta * w);
                let upper = (w / beta).max(w * w * lower);
                DistanceEstimate { lower, upper }
            }
        }
    }

    /// An Automatic Update: the wavefront advanced by `β⁻¹`.
    pub fn automatic(self, beta: f64) -> Self {
        DistanceEstimate {
            lower: self.lower - 1.0 / beta,
            upper: self.upper - 1.0 / beta,
        }
    }

    /// A Special Update from the recursive BFS result `x =
    /// dist_{G*_{i+1}}(W*_{i+1}, C)` (with `None` meaning "not reached
    /// within radius `z`"), per Step 7 of Recursive-BFS:
    ///
    /// `L_{i+1}(C) = min{z·β⁻¹ + 1, x·β⁻¹/w}`,
    /// `U_{i+1}(C) = min{U_i(C) − β⁻¹, max{x, 1}·β⁻¹·w}`.
    pub fn special(self, x: Option<u64>, z: u64, beta: f64, w: f64) -> Self {
        let inv_beta = 1.0 / beta;
        let cap = z as f64 * inv_beta + 1.0;
        let (lower, upper_from_x) = match x {
            None => (cap, f64::INFINITY),
            Some(x) => (
                cap.min(x as f64 * inv_beta / w),
                (x.max(1)) as f64 * inv_beta * w,
            ),
        };
        DistanceEstimate {
            lower,
            upper: (self.upper - inv_beta).min(upper_from_x),
        }
    }

    /// Whether the cluster must join the next Special Update set `Υ`
    /// (Step 7): `L_i(C) ≤ (Z[i+1] + 1)·β⁻¹`.
    pub fn joins_special_update(&self, z_next: u64, beta: f64) -> bool {
        self.lower <= (z_next as f64 + 1.0) / beta
    }

    /// Whether vertices of this cluster must join the wavefront set `X_i`
    /// (Step 4): `L_i(C) ≤ β⁻¹`.
    pub fn joins_wavefront(&self, beta: f64) -> bool {
        self.lower <= 1.0 / beta
    }

    /// Whether the interval contains `value` (used by the invariant checks
    /// in tests and experiments).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower - 1e-9 && value <= self.upper + 1e-9
    }

    /// Whether the cluster has been ruled out entirely (`L₀ = ∞`).
    pub fn is_unreachable(&self) -> bool {
        self.lower.is_infinite()
    }
}

/// Which update produced an estimate (for traces / Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateKind {
    /// Step 1 of Recursive-BFS.
    Initialize,
    /// Step 7: refreshed from a recursive BFS on the cluster graph.
    Special,
    /// Step 8: both endpoints decremented by `β⁻¹`.
    Automatic,
}

/// One point in the time evolution of a traced cluster's estimate
/// (regenerates Figure 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimateTracePoint {
    /// Stage index `i`.
    pub stage: u64,
    /// The kind of update that produced this point.
    pub kind: UpdateKind,
    /// `L_i(C)`.
    pub lower: f64,
    /// `U_i(C)`.
    pub upper: f64,
    /// The true `dist_G(W_i, C)` at this stage, when the experiment computes
    /// it for comparison (`None` when not evaluated).
    pub true_distance: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const BETA: f64 = 0.125; // 1/β = 8
    const W: f64 = 10.0;

    #[test]
    fn initialize_reached_and_unreached() {
        let e = DistanceEstimate::initialize(Some(5), BETA, W);
        assert!((e.lower - 5.0 / (BETA * W)).abs() < 1e-9);
        assert!(e.upper >= e.lower);
        assert!(!e.is_unreachable());

        let e = DistanceEstimate::initialize(None, BETA, W);
        assert!(e.is_unreachable());
    }

    #[test]
    fn initialize_zero_distance_uses_floor_upper_bound() {
        let e = DistanceEstimate::initialize(Some(0), BETA, W);
        assert_eq!(e.lower, 0.0);
        assert!((e.upper - W / BETA).abs() < 1e-9);
    }

    #[test]
    fn automatic_update_shifts_both_bounds() {
        let e = DistanceEstimate {
            lower: 100.0,
            upper: 200.0,
        };
        let e2 = e.automatic(BETA);
        assert!((e2.lower - 92.0).abs() < 1e-9);
        assert!((e2.upper - 192.0).abs() < 1e-9);
    }

    #[test]
    fn special_update_reached_cluster() {
        let e = DistanceEstimate {
            lower: 50.0,
            upper: 1000.0,
        };
        let z = 16;
        let e2 = e.special(Some(3), z, BETA, W);
        // lower = min(16·8 + 1, 3·8/10) = 2.4
        assert!((e2.lower - 2.4).abs() < 1e-9);
        // upper = min(1000 - 8, 3·8·10) = 240
        assert!((e2.upper - 240.0).abs() < 1e-9);
    }

    #[test]
    fn special_update_unreached_cluster_caps_lower_bound() {
        let e = DistanceEstimate {
            lower: 50.0,
            upper: 1000.0,
        };
        let z = 8;
        let e2 = e.special(None, z, BETA, W);
        assert!((e2.lower - (8.0 * 8.0 + 1.0)).abs() < 1e-9);
        assert!((e2.upper - 992.0).abs() < 1e-9);
    }

    #[test]
    fn special_update_with_zero_distance_keeps_positive_upper() {
        let e = DistanceEstimate {
            lower: 5.0,
            upper: 100.0,
        };
        let e2 = e.special(Some(0), 4, BETA, W);
        assert_eq!(e2.lower, 0.0);
        // max{x, 1} = 1 → upper candidate is β⁻¹·w = 80; min(100 − 8, 80) = 80.
        assert!((e2.upper - 80.0).abs() < 1e-9);
    }

    #[test]
    fn membership_predicates() {
        let near = DistanceEstimate {
            lower: 4.0,
            upper: 20.0,
        };
        let far = DistanceEstimate {
            lower: 1000.0,
            upper: 2000.0,
        };
        assert!(near.joins_wavefront(BETA));
        assert!(!far.joins_wavefront(BETA));
        assert!(near.joins_special_update(4, BETA));
        assert!(!far.joins_special_update(4, BETA));
        assert!(far.joins_special_update(200, BETA));
    }

    #[test]
    fn contains_is_inclusive() {
        let e = DistanceEstimate {
            lower: 3.0,
            upper: 9.0,
        };
        assert!(e.contains(3.0));
        assert!(e.contains(9.0));
        assert!(e.contains(5.5));
        assert!(!e.contains(2.9));
        assert!(!e.contains(9.2));
    }

    #[test]
    fn upper_bound_is_monotone_under_both_updates() {
        let mut e = DistanceEstimate::initialize(Some(4), BETA, W);
        let mut prev_upper = e.upper;
        for i in 0..20u64 {
            e = if i % 3 == 0 {
                e.special(Some((i % 5) + 1), 8, BETA, W)
            } else {
                e.automatic(BETA)
            };
            assert!(
                e.upper <= prev_upper + 1e-9,
                "upper bound increased at step {i}: {} -> {}",
                prev_upper,
                e.upper
            );
            prev_upper = e.upper;
        }
    }
}
