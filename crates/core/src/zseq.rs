//! The `Z`-sequence guiding Special Updates (paper, Section 4.1).
//!
//! With `Y[i] = max{2^j : 2^j divides i}` (the ruler sequence), the paper
//! defines
//!
//! ```text
//! Z[0] = D*,     Z[i] = min{D*, α·Y[i]}  for i ≥ 1,     α = 4,
//! D*   = min{α·2^j : α·2^j ≥ wβD}.
//! ```
//!
//! `Z[i]` is the radius of the recursive BFS performed on the cluster graph
//! after stage `i`. Lemma 4.2's periodicity properties are what bound how
//! often any cluster participates in a Special Update (Claim 2), and are
//! verified exhaustively by the tests and experiment E9.

/// The paper's constant α.
pub const ALPHA: u64 = 4;

/// `Y[i]`: the largest power of two dividing `i` (`i ≥ 1`).
pub fn ruler(i: u64) -> u64 {
    assert!(i >= 1, "Y[i] is defined for i ≥ 1");
    1u64 << i.trailing_zeros()
}

/// The `Z`-sequence for a given truncation value `D*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZSequence {
    /// The truncation value `D*` (also `Z[0]`).
    pub d_star: u64,
}

impl ZSequence {
    /// Builds the sequence for a recursive call of depth `D` on a graph with
    /// `w = w_value` and rate β: `D* = min{α·2^j ≥ w·β·D}`.
    pub fn for_depth(w_value: f64, beta: f64, depth: u64) -> Self {
        let target = (w_value * beta * depth as f64).max(1.0);
        let mut d_star = ALPHA;
        while (d_star as f64) < target {
            d_star *= 2;
        }
        ZSequence { d_star }
    }

    /// Builds the sequence directly from `D*` (must be `α` times a power of
    /// two).
    pub fn from_d_star(d_star: u64) -> Self {
        assert!(d_star >= ALPHA, "D* must be at least α = {ALPHA}");
        assert!(
            (d_star / ALPHA).is_power_of_two() && d_star.is_multiple_of(ALPHA),
            "D* must be α times a power of two, got {d_star}"
        );
        ZSequence { d_star }
    }

    /// `Z[i]`.
    pub fn z(&self, i: u64) -> u64 {
        if i == 0 {
            self.d_star
        } else {
            self.d_star.min(ALPHA * ruler(i))
        }
    }

    /// The values the sequence can take: `{α, 2α, 4α, …, D*}`.
    pub fn value_set(&self) -> Vec<u64> {
        let mut v = Vec::new();
        let mut x = ALPHA;
        while x <= self.d_star {
            v.push(x);
            x *= 2;
        }
        v
    }

    /// Lemma 4.2(1): for `b ≥ α`, the smallest `j > i` with `Z[j] ≥ b`
    /// satisfies `j − i ≤ b/α`. If moreover `b` is in the value set and
    /// `b < Z[i]` (the regime in which Lemma 4.3 applies it), then
    /// `Z[j] = b` and `j − i = b/α` exactly.
    pub fn next_at_least(&self, i: u64, b: u64) -> u64 {
        assert!(b >= ALPHA);
        let mut j = i + 1;
        while self.z(j) < b.min(self.d_star) {
            j += 1;
        }
        j
    }

    /// Lemma 4.2(2): the smallest `j > i` such that `Z[j] > Z[i]` or
    /// `Z[j] = D*`.
    pub fn next_strictly_larger_or_max(&self, i: u64) -> u64 {
        let zi = self.z(i);
        let mut j = i + 1;
        while !(self.z(j) > zi || self.z(j) == self.d_star) {
            j += 1;
        }
        j
    }

    /// How many indices in `[1, horizon]` have `Z[i] ≥ b` (used by the time
    /// analysis of Theorem 4.1: each value `b` appears with period `b/α`).
    pub fn count_at_least(&self, horizon: u64, b: u64) -> u64 {
        (1..=horizon).filter(|&i| self.z(i) >= b).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ruler_matches_paper_prefix() {
        // Y = (1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 16, ...)
        let expected = [1u64, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 16];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(ruler(i as u64 + 1), e, "Y[{}]", i + 1);
        }
    }

    #[test]
    fn z_sequence_truncates_at_d_star() {
        let z = ZSequence::from_d_star(16);
        assert_eq!(z.z(0), 16);
        let expected = [4u64, 8, 4, 16, 4, 8, 4, 16, 4, 8, 4, 16];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(z.z(i as u64 + 1), e, "Z[{}]", i + 1);
        }
    }

    #[test]
    fn for_depth_picks_smallest_valid_d_star() {
        // target = w·β·D
        let z = ZSequence::for_depth(10.0, 0.125, 100); // target 125 → D* = 128
        assert_eq!(z.d_star, 128);
        let z = ZSequence::for_depth(10.0, 0.125, 1); // target 1.25 → D* = α = 4
        assert_eq!(z.d_star, 4);
        let z = ZSequence::for_depth(4.0, 0.25, 4); // target 4 → D* = 4
        assert_eq!(z.d_star, 4);
    }

    #[test]
    #[should_panic]
    fn from_d_star_rejects_non_power_multiples() {
        let _ = ZSequence::from_d_star(12);
    }

    #[test]
    fn lemma_4_2_part_1_exhaustive() {
        let z = ZSequence::from_d_star(64);
        for i in 0..200u64 {
            for &b in &z.value_set() {
                let j = z.next_at_least(i, b);
                assert!(j - i <= b / ALPHA, "i={i}, b={b}, j={j}");
                if b < z.z(i) {
                    // Second half of the lemma, in the regime Lemma 4.3
                    // invokes it (b strictly below Z[i]): Z[j] = b and
                    // j − i = Z[j]/α.
                    assert_eq!(z.z(j), b, "i={i}, b={b}, j={j}");
                    assert_eq!(j - i, z.z(j) / ALPHA, "i={i}, b={b}, j={j}");
                }
            }
        }
    }

    #[test]
    fn lemma_4_2_part_2_exhaustive() {
        let z = ZSequence::from_d_star(64);
        for i in 1..200u64 {
            let j = z.next_strictly_larger_or_max(i);
            assert_eq!(j - i, z.z(i) / ALPHA, "i={i}, j={j}, Z[i]={}", z.z(i));
            for k in i + 1..j {
                assert!(z.z(k) <= z.z(i) / 2, "i={i}, k={k}");
            }
        }
    }

    #[test]
    fn values_at_least_b_appear_with_period_b_over_alpha() {
        let z = ZSequence::from_d_star(128);
        let horizon = 1024;
        for &b in &z.value_set() {
            let count = z.count_at_least(horizon, b);
            let period = b / ALPHA;
            let expected = horizon / period;
            assert!(
                count >= expected.saturating_sub(1) && count <= expected + 1,
                "b={b}: count {count}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn value_set_is_doubling() {
        let z = ZSequence::from_d_star(32);
        assert_eq!(z.value_set(), vec![4, 8, 16, 32]);
    }
}
