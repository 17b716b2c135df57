//! Find-Minimum / Find-Maximum over a BFS tree (paper, Section 5.1).
//!
//! Setting: a leader `v₀` has been elected and every vertex knows its BFS
//! label `dist(v₀, ·)`. Every vertex `u` holds an integer key `k_u ∈ [0, K)`
//! and a message `m_u`. Find-Minimum elects one vertex `u*` with the
//! minimum key and makes `m_{u*}` (and the key) known to everybody;
//! Find-Maximum is symmetric.
//!
//! The implementation follows the paper: binary search over the key range.
//! For each candidate interval the leader floods the query down the BFS
//! layers (a down sweep) and the "does anyone's key fall in the interval?"
//! bit is aggregated back up (an up sweep); each vertex participates in
//! `O(1)` Local-Broadcasts per sweep, so a full Find-Minimum costs
//! `O(log K)` energy and `O(D log K)` time — the `Õ(1)`-energy primitive the
//! diameter algorithms rely on.

use radio_sim::NodeSlots;

use crate::broadcast::{layered_broadcast, up_sweep, Layers};
use crate::message::Msg;
use crate::stack::RadioStack;

/// The winner of an aggregation: its key and its id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateResult {
    /// The extremal key value.
    pub key: u64,
    /// One vertex holding it: the id the winners sent up the tree.
    pub node: usize,
}

/// Whether to search for the minimum or the maximum key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    Min,
    Max,
}

/// Finds the minimum key among vertices with `Some` key, and returns it
/// together with one vertex holding it. Returns `None` if no vertex holds a
/// key.
///
/// `layers` is the BFS tree rooted at the leader (layer 0); `key_bound` is
/// the exclusive upper bound `K` on key values.
pub fn find_min(
    net: &mut dyn RadioStack,
    layers: &Layers,
    keys: &[Option<u64>],
    key_bound: u64,
) -> Option<AggregateResult> {
    find_extremum(net, layers, keys, key_bound, Direction::Min)
}

/// Finds the maximum key among vertices with `Some` key (see [`find_min`]).
pub fn find_max(
    net: &mut dyn RadioStack,
    layers: &Layers,
    keys: &[Option<u64>],
    key_bound: u64,
) -> Option<AggregateResult> {
    find_extremum(net, layers, keys, key_bound, Direction::Max)
}

/// One "existence query": the leader learns whether any vertex's key lies in
/// `[lo, hi]`. Implemented as a query down sweep followed by an OR up sweep;
/// a vertex answers only if the query reached it.
fn exists_in_range(
    net: &mut dyn RadioStack,
    layers: &Layers,
    keys: &[Option<u64>],
    lo: u64,
    hi: u64,
) -> bool {
    let reached = layered_broadcast(net, layers, &Msg::words(&[lo, hi]));
    let mut holders: NodeSlots<Msg> = NodeSlots::new(keys.len());
    for (v, key) in keys.iter().enumerate() {
        if reached[v].is_some() && key.is_some_and(|k| k >= lo && k <= hi) {
            holders.insert(v, Msg::words(&[1]));
        }
    }
    !up_sweep(net, layers, &holders).is_empty()
}

fn find_extremum(
    net: &mut dyn RadioStack,
    layers: &Layers,
    keys: &[Option<u64>],
    key_bound: u64,
    direction: Direction,
) -> Option<AggregateResult> {
    assert_eq!(net.num_nodes(), keys.len());
    if key_bound == 0 {
        return None;
    }
    // Binary search for the extremal value. The first query spans every
    // key, so a network where nobody holds one pays exactly that query.
    let (mut lo, mut hi) = (0u64, key_bound - 1);
    if !exists_in_range(net, layers, keys, lo, hi) {
        return None;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let in_upper_half = match direction {
            Direction::Min => !exists_in_range(net, layers, keys, lo, mid),
            Direction::Max => exists_in_range(net, layers, keys, mid + 1, hi),
        };
        if in_upper_half {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let key = lo;

    // One more pair of sweeps: the leader announces the winning value, the
    // winners send their ids up, the first to arrive wins. A winner whose
    // message was lost is read centrally from the holders.
    let _ = layered_broadcast(net, layers, &Msg::words(&[key]));
    let mut holders: NodeSlots<Msg> = NodeSlots::new(keys.len());
    for (v, &k) in keys.iter().enumerate() {
        if k == Some(key) {
            holders.insert(v, Msg::words(&[v as u64]));
        }
    }
    let at_root = up_sweep(net, layers, &holders);
    let node = at_root
        .iter()
        .next()
        .or_else(|| holders.iter().next())
        .map(|(_, m)| m.word(0) as usize)?;

    // Final dissemination of the winner to everyone (the diameter algorithms
    // need all vertices to know the result).
    let _ = layered_broadcast(net, layers, &Msg::words(&[key, node as u64]));

    Some(AggregateResult { key, node })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{RadioStack, StackBuilder};
    use radio_graph::bfs::bfs_distances;
    use radio_graph::{generators, Graph};

    fn keys_from(values: &[u64]) -> Vec<Option<u64>> {
        values.iter().map(|&v| Some(v)).collect()
    }

    /// The layers of the BFS from vertex 0 of a connected graph.
    fn layers_from_0(g: &Graph) -> Layers {
        let labels: Vec<Option<u64>> = bfs_distances(g, 0)
            .into_iter()
            .map(|d| Some(u64::from(d)))
            .collect();
        Layers::new(&labels)
    }

    #[test]
    fn find_min_on_a_grid() {
        let g = generators::grid(6, 6);
        let layers = layers_from_0(&g);
        let n = g.num_nodes();
        let values: Vec<u64> = (0..n as u64).map(|v| (v * 7 + 3) % 101).collect();
        let mut net = StackBuilder::new(g).build();
        let result =
            find_min(&mut net, &layers, &keys_from(&values), 101).expect("a minimum exists");
        let true_min = *values.iter().min().unwrap();
        assert_eq!(result.key, true_min);
        assert_eq!(values[result.node], true_min);
    }

    #[test]
    fn find_max_on_a_path() {
        let g = generators::path(20);
        let layers = layers_from_0(&g);
        let values: Vec<u64> = (0..20).map(|v| (v * 13) % 50).collect();
        let mut net = StackBuilder::new(g).build();
        let result =
            find_max(&mut net, &layers, &keys_from(&values), 50).expect("a maximum exists");
        assert_eq!(result.key, *values.iter().max().unwrap());
    }

    #[test]
    fn vertices_without_keys_are_ignored() {
        let g = generators::path(10);
        let layers = layers_from_0(&g);
        let mut keys = vec![None; 10];
        keys[7] = Some(42);
        keys[3] = Some(17);
        let mut net = StackBuilder::new(g).build();
        let result = find_min(&mut net, &layers, &keys, 1000).unwrap();
        assert_eq!((result.key, result.node), (17, 3));
        let result = find_max(&mut net, &layers, &keys, 1000).unwrap();
        assert_eq!((result.key, result.node), (42, 7));
    }

    #[test]
    fn no_keys_returns_none() {
        let g = generators::path(5);
        let layers = layers_from_0(&g);
        let mut net = StackBuilder::new(g).build();
        assert!(find_min(&mut net, &layers, &[None; 5], 10).is_none());
    }

    #[test]
    fn energy_is_logarithmic_in_key_bound() {
        // Each vertex should participate in O(log K) Local-Broadcasts.
        let g = generators::grid(8, 8);
        let layers = layers_from_0(&g);
        let n = g.num_nodes();
        let values: Vec<u64> = (0..n as u64).map(|v| v % 997).collect();
        let key_bound = 1u64 << 20;
        let mut net = StackBuilder::new(g).build();
        let _ = find_min(&mut net, &layers, &keys_from(&values), key_bound);
        let log_k = (key_bound as f64).log2().ceil() as u64;
        // ~4 participations per existence query (two sweeps, send+receive),
        // plus the final dissemination rounds.
        assert!(
            net.max_lb_energy() <= 6 * (log_k + 3),
            "energy {} too high for log K = {log_k}",
            net.max_lb_energy()
        );
    }

    #[test]
    fn ties_resolve_to_some_witness() {
        let g = generators::cycle(12);
        let layers = layers_from_0(&g);
        let values = vec![5u64; 12];
        let mut net = StackBuilder::new(g).build();
        let result = find_min(&mut net, &layers, &keys_from(&values), 10).unwrap();
        assert_eq!(result.key, 5);
        assert!(result.node < 12);
    }
}
