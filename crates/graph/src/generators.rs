//! Graph families used by the paper, its experiments, and the test suite.
//!
//! The paper's motivation is a field of sensors (a random unit-disc graph);
//! its lower bounds use `K_n`, `K_n − e`, and the sparse set-disjointness
//! construction (see [`crate::lower_bound`]); its upper-bound analysis is
//! parameterized by the diameter `D`, which the deterministic families below
//! (paths, cycles, grids, trees, …) let us control exactly.

use rand::Rng;

use crate::graph::{Graph, GraphBuilder, NodeId};

/// A path `0 − 1 − ⋯ − (n−1)`; diameter `n − 1`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v - 1, v);
    }
    b.build()
}

/// A cycle on `n ≥ 3` vertices; diameter `⌊n/2⌋`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v, (v + 1) % n);
    }
    b.build()
}

/// A star with one center (vertex 0) and `n − 1` leaves; diameter 2.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(0, v);
    }
    b.build()
}

/// The complete graph `K_n`; diameter 1 (for `n ≥ 2`).
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// `K_n` with the single edge `{u, v}` removed; diameter 2.
///
/// This is the hard pair of Theorem 5.1: distinguishing `K_n` from
/// `K_n − e` requires `Ω(n)` energy.
pub fn complete_minus_edge(n: usize, u: NodeId, v: NodeId) -> Graph {
    assert!(u != v && u < n && v < n);
    let mut b = GraphBuilder::new(n);
    for a in 0..n {
        for c in (a + 1)..n {
            if (a, c) != (u.min(v), u.max(v)) {
                b.add_edge(a, c);
            }
        }
    }
    b.build()
}

/// An `rows × cols` grid; diameter `rows + cols − 2`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(n);
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c));
            }
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1));
            }
        }
    }
    b.build()
}

/// A complete `k`-ary tree with `levels` levels (a single root for
/// `levels == 1`); diameter `2 (levels − 1)`.
pub fn complete_k_ary_tree(k: usize, levels: usize) -> Graph {
    assert!(k >= 1 && levels >= 1);
    // Total vertices: 1 + k + k^2 + ... + k^(levels-1).
    let mut n = 0usize;
    let mut layer = 1usize;
    for _ in 0..levels {
        n += layer;
        layer *= k;
    }
    let mut b = GraphBuilder::new(n);
    // Children of vertex v (0-indexed, BFS order) are k*v+1 .. k*v+k.
    for v in 0..n {
        for c in 1..=k {
            let child = k * v + c;
            if child < n {
                b.add_edge(v, child);
            }
        }
    }
    b.build()
}

/// A "barbell": two cliques of size `k` joined by a path of `bridge` edges.
///
/// Useful for diameter experiments: diameter is `bridge + 2` for `k ≥ 2`.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    assert!(k >= 1);
    let n = 2 * k + bridge.saturating_sub(1);
    let mut b = GraphBuilder::new(n.max(2 * k));
    // Left clique: 0..k. Right clique: last k vertices.
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u, v);
        }
    }
    let right_start = b.num_nodes() - k;
    for u in right_start..b.num_nodes() {
        for v in (u + 1)..b.num_nodes() {
            b.add_edge(u, v);
        }
    }
    // Path from vertex k-1 (in the left clique) to right_start.
    let mut prev = k - 1;
    for p in k..right_start {
        b.add_edge(prev, p);
        prev = p;
    }
    b.add_edge(prev, right_start);
    b.build()
}

/// A caterpillar: a spine path of length `spine` where every spine vertex
/// has `legs` pendant leaves. Diameter `spine + 1` for `legs ≥ 1`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine >= 1);
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for v in 1..spine {
        b.add_edge(v - 1, v);
    }
    let mut next = spine;
    for v in 0..spine {
        for _ in 0..legs {
            b.add_edge(v, next);
            next += 1;
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`: every pair is an edge independently with
/// probability `p`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Erdős–Rényi graph conditioned on connectivity: resamples (up to
/// `attempts` times) until the graph is connected, then returns it.
///
/// Returns `None` if no connected sample was found.
pub fn connected_gnp<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    attempts: usize,
    rng: &mut R,
) -> Option<Graph> {
    for _ in 0..attempts {
        let g = gnp(n, p, rng);
        if crate::components::is_connected(&g) {
            return Some(g);
        }
    }
    None
}

/// A random geometric (unit-disc) graph: `n` points uniform in the square
/// `[0, side]²`, an edge between any two points at Euclidean distance at
/// most `radius`.
///
/// This is the paper's motivating topology (sensors scattered throughout a
/// National Park). The returned positions allow examples to reason about
/// geometry (e.g. latency across the field).
pub fn unit_disc<R: Rng + ?Sized>(
    n: usize,
    side: f64,
    radius: f64,
    rng: &mut R,
) -> (Graph, Vec<(f64, f64)>) {
    assert!(side > 0.0 && radius > 0.0);
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    // Grid-bucket the points so construction is ~linear for sparse fields.
    let cell = radius.max(1e-9);
    let cells_per_side = (side / cell).ceil() as i64 + 1;
    let key = |x: f64, y: f64| ((x / cell) as i64, (y / cell) as i64);
    let mut buckets: std::collections::HashMap<(i64, i64), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &(x, y)) in positions.iter().enumerate() {
        buckets.entry(key(x, y)).or_default().push(i);
    }
    for (i, &(x, y)) in positions.iter().enumerate() {
        let (cx, cy) = key(x, y);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let nx = cx + dx;
                let ny = cy + dy;
                if nx < 0 || ny < 0 || nx > cells_per_side || ny > cells_per_side {
                    continue;
                }
                if let Some(others) = buckets.get(&(nx, ny)) {
                    for &j in others {
                        if j <= i {
                            continue;
                        }
                        let (ox, oy) = positions[j];
                        let d2 = (x - ox) * (x - ox) + (y - oy) * (y - oy);
                        if d2 <= r2 {
                            b.add_edge(i, j);
                        }
                    }
                }
            }
        }
    }
    (b.build(), positions)
}

/// A connected random unit-disc graph: resamples until connected.
///
/// Returns `None` after `attempts` failures.
pub fn connected_unit_disc<R: Rng + ?Sized>(
    n: usize,
    side: f64,
    radius: f64,
    attempts: usize,
    rng: &mut R,
) -> Option<(Graph, Vec<(f64, f64)>)> {
    for _ in 0..attempts {
        let (g, pos) = unit_disc(n, side, radius, rng);
        if crate::components::is_connected(&g) {
            return Some((g, pos));
        }
    }
    None
}

/// A uniformly random labelled tree on `n` vertices (via a random Prüfer
/// sequence); diameter varies, expected `Θ(√n)`.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    if n <= 1 {
        return GraphBuilder::new(n).build();
    }
    if n == 2 {
        return Graph::from_edges(2, &[(0, 1)]);
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &x in &prufer {
        degree[x] += 1;
    }
    let mut b = GraphBuilder::new(n);
    // Standard Prüfer decoding with a sorted set of leaves.
    let mut leaves: std::collections::BTreeSet<usize> =
        (0..n).filter(|&v| degree[v] == 1).collect();
    for &x in &prufer {
        let leaf = *leaves.iter().next().expect("a leaf always exists");
        leaves.remove(&leaf);
        b.add_edge(leaf, x);
        degree[x] -= 1;
        if degree[x] == 1 {
            leaves.insert(x);
        }
    }
    let remaining: Vec<usize> = leaves.into_iter().collect();
    b.add_edge(remaining[0], remaining[1]);
    b.build()
}

/// A "lollipop": a clique of size `k` with a path of length `tail` attached.
/// Diameter `tail + 1` for `k ≥ 2`.
pub fn lollipop(k: usize, tail: usize) -> Graph {
    assert!(k >= 1);
    let n = k + tail;
    let mut b = GraphBuilder::new(n);
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u, v);
        }
    }
    let mut prev = k - 1;
    for p in k..n {
        b.add_edge(prev, p);
        prev = p;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::is_connected;
    use crate::diameter::exact_diameter;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn path_has_expected_shape() {
        let g = path(10);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(exact_diameter(&g), Some(9));
    }

    #[test]
    fn cycle_has_expected_diameter() {
        let g = cycle(8);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(exact_diameter(&g), Some(4));
        let g = cycle(9);
        assert_eq!(exact_diameter(&g), Some(4));
    }

    #[test]
    fn star_diameter_is_two() {
        let g = star(12);
        assert_eq!(g.num_edges(), 11);
        assert_eq!(exact_diameter(&g), Some(2));
        assert_eq!(g.degree(0), 11);
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(7);
        assert_eq!(g.num_edges(), 21);
        assert_eq!(exact_diameter(&g), Some(1));
    }

    #[test]
    fn complete_minus_edge_has_diameter_two() {
        let g = complete_minus_edge(6, 1, 4);
        assert_eq!(g.num_edges(), 14);
        assert!(!g.has_edge(1, 4));
        assert_eq!(exact_diameter(&g), Some(2));
    }

    #[test]
    fn grid_dimensions_and_diameter() {
        let g = grid(4, 6);
        assert_eq!(g.num_nodes(), 24);
        assert_eq!(g.num_edges(), 4 * 5 + 6 * 3);
        assert_eq!(exact_diameter(&g), Some(8));
    }

    #[test]
    fn k_ary_tree_shape() {
        let g = complete_k_ary_tree(2, 4); // 1 + 2 + 4 + 8 = 15 vertices
        assert_eq!(g.num_nodes(), 15);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(exact_diameter(&g), Some(6));
    }

    #[test]
    fn barbell_diameter() {
        let g = barbell(5, 4);
        assert!(is_connected(&g));
        assert_eq!(exact_diameter(&g), Some(6));
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(5, 2);
        assert_eq!(g.num_nodes(), 15);
        assert_eq!(g.num_edges(), 14);
        assert!(is_connected(&g));
        assert_eq!(exact_diameter(&g), Some(6));
    }

    #[test]
    fn lollipop_diameter() {
        let g = lollipop(6, 5);
        assert_eq!(exact_diameter(&g), Some(6));
    }

    #[test]
    fn gnp_edge_count_is_plausible() {
        let mut r = rng(1);
        let g = gnp(200, 0.1, &mut r);
        let expected = 0.1 * (200.0 * 199.0 / 2.0);
        let m = g.num_edges() as f64;
        assert!(
            m > expected * 0.7 && m < expected * 1.3,
            "m = {m}, expected ≈ {expected}"
        );
    }

    #[test]
    fn gnp_extremes() {
        let mut r = rng(2);
        assert_eq!(gnp(20, 0.0, &mut r).num_edges(), 0);
        assert_eq!(gnp(20, 1.0, &mut r).num_edges(), 190);
    }

    #[test]
    fn connected_gnp_is_connected() {
        let mut r = rng(3);
        let g = connected_gnp(60, 0.1, 100, &mut r).expect("should find a connected sample");
        assert!(is_connected(&g));
    }

    #[test]
    fn unit_disc_radius_respected() {
        let mut r = rng(4);
        let (g, pos) = unit_disc(150, 10.0, 1.5, &mut r);
        for (u, v) in g.edges() {
            let (x1, y1) = pos[u];
            let (x2, y2) = pos[v];
            let d = ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt();
            assert!(d <= 1.5 + 1e-9);
        }
        // Spot-check some non-edges are actually far apart or at least valid.
        assert_eq!(pos.len(), 150);
    }

    #[test]
    fn unit_disc_matches_bruteforce() {
        let mut r = rng(5);
        let (g, pos) = unit_disc(80, 6.0, 1.2, &mut r);
        let mut expected = 0usize;
        for i in 0..80 {
            for j in (i + 1)..80 {
                let (x1, y1) = pos[i];
                let (x2, y2) = pos[j];
                let d2 = (x1 - x2).powi(2) + (y1 - y2).powi(2);
                if d2 <= 1.2f64.powi(2) {
                    expected += 1;
                    assert!(g.has_edge(i, j), "missing edge ({i},{j})");
                }
            }
        }
        assert_eq!(g.num_edges(), expected);
    }

    #[test]
    fn connected_unit_disc_is_connected() {
        let mut r = rng(6);
        let (g, _) =
            connected_unit_disc(100, 5.0, 1.5, 200, &mut r).expect("connected field expected");
        assert!(is_connected(&g));
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut r = rng(7);
        for n in [1usize, 2, 3, 10, 57, 200] {
            let g = random_tree(n, &mut r);
            assert_eq!(g.num_nodes(), n);
            if n > 0 {
                assert_eq!(g.num_edges(), n - 1);
                assert!(is_connected(&g));
            }
        }
    }
}
