//! Layered broadcast over a BFS labelling.
//!
//! Once a BFS labelling is known (the output of the paper's main
//! algorithm), disseminating a message from the source costs each device
//! `O(1)` Local-Broadcast participations: devices at layer `i` listen only
//! during call `i` and transmit only during call `i + 1`. This is exactly
//! the "efficient dissemination via up-casts and down-casts" the paper's
//! introduction motivates, and the primitive the diameter algorithms of
//! Section 5.1 use for their layer-by-layer sweeps.
//!
//! A labelling enters both sweeps as one [`Layers`] value, built once per
//! BFS tree, so a sweep's call for layer `i` touches layers `i − 1` and `i`
//! only. Both sweeps drive all of their layer calls through one internally
//! reused [`LbFrame`], so a sweep performs no per-layer allocation.

use radio_sim::NodeSlots;

use crate::lb::LbFrame;
use crate::message::Msg;
use crate::stack::RadioStack;

/// A BFS labelling grouped by layer: for every label `i` up to the largest,
/// the vertices labelled `i` in ascending order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layers {
    /// Every labelled vertex, layer by layer, each layer ascending.
    order: Vec<usize>,
    /// Layer `i` is `order[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
}

impl Layers {
    /// Groups `labels` (one per vertex, `None` for an unreached vertex) by
    /// layer. The labels are BFS distances, so none exceeds the vertex
    /// count.
    pub fn new(labels: &[Option<u64>]) -> Self {
        let mut by_layer: Vec<(u64, usize)> = (0..labels.len())
            .filter_map(|v| labels[v].map(|d| (d, v)))
            .collect();
        by_layer.sort_unstable();
        let depth = by_layer.last().map_or(0, |&(d, _)| d + 1);
        Layers {
            starts: (0..=depth)
                .map(|i| by_layer.partition_point(|&(d, _)| d < i))
                .collect(),
            order: by_layer.into_iter().map(|(_, v)| v).collect(),
        }
    }

    /// The number of layers: the largest label plus one, or 0 if no vertex
    /// is labelled.
    pub fn depth(&self) -> usize {
        self.starts.len() - 1
    }

    /// The vertices labelled `i`, ascending; empty past the last layer.
    pub fn layer(&self, i: usize) -> &[usize] {
        self.starts
            .get(i..i + 2)
            .map_or(&[], |ends| &self.order[ends[0]..ends[1]])
    }
}

/// Broadcasts `message` from the vertices of layer 0 down the BFS layers.
/// Returns, for every vertex, the message it holds at the end: `message`
/// itself on layer 0, what it received elsewhere, and `None` for unlabelled
/// vertices and on Local-Broadcast delivery failure.
///
/// Each vertex participates in at most two Local-Broadcast calls.
pub fn layered_broadcast(
    net: &mut dyn RadioStack,
    layers: &Layers,
    message: &Msg,
) -> Vec<Option<Msg>> {
    let mut holding: Vec<Option<Msg>> = vec![None; net.num_nodes()];
    for &v in layers.layer(0) {
        holding[v] = Some(message.clone());
    }
    let mut frame = net.new_frame();
    for i in 1..layers.depth() {
        relay(net, &mut frame, &mut holding, layers, i - 1, i);
    }
    holding
}

/// Up sweep: some vertices hold messages (`holders`, keyed by node over the
/// network's universe); messages travel up the BFS layers towards layer 0,
/// each vertex forwarding the first message it hears (or its own). Returns
/// the message each layer-0 vertex ended up with, keyed by node.
pub fn up_sweep(
    net: &mut dyn RadioStack,
    layers: &Layers,
    holders: &NodeSlots<Msg>,
) -> NodeSlots<Msg> {
    let n = net.num_nodes();
    let mut holding: Vec<Option<Msg>> = vec![None; n];
    for (v, m) in holders.iter() {
        holding[v] = Some(m.clone());
    }
    let mut frame = net.new_frame();
    for i in (1..layers.depth()).rev() {
        // A layer none of whose vertices holds a message makes no call,
        // although its receivers one layer up could not know that in the
        // real protocol.
        if layers.layer(i).iter().any(|&v| holding[v].is_some()) {
            relay(net, &mut frame, &mut holding, layers, i, i - 1);
        }
    }
    let mut out = NodeSlots::new(n);
    for &v in layers.layer(0) {
        if let Some(m) = &holding[v] {
            out.insert(v, m.clone());
        }
    }
    out
}

/// One layer's call: the vertices of layer `from` send what they hold to
/// those of layer `to`, and a receiver that holds nothing keeps what it
/// hears. No call if layer `to` is empty.
fn relay(
    net: &mut dyn RadioStack,
    frame: &mut LbFrame,
    holding: &mut [Option<Msg>],
    layers: &Layers,
    from: usize,
    to: usize,
) {
    let to = layers.layer(to);
    if to.is_empty() {
        return;
    }
    frame.clear();
    for &v in layers.layer(from) {
        if let Some(m) = &holding[v] {
            frame.add_sender(v, m.clone());
        }
    }
    for &v in to {
        frame.add_receiver(v);
    }
    net.local_broadcast(frame);
    for (v, m) in frame.delivered().iter() {
        if holding[v].is_none() {
            holding[v] = Some(m.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{RadioStack, StackBuilder};
    use radio_graph::bfs::multi_source_bfs;
    use radio_graph::{generators, Graph, INFINITY};

    /// The layers of the BFS from `sources`.
    fn bfs_layers(g: &Graph, sources: &[usize]) -> Layers {
        let labels: Vec<Option<u64>> = multi_source_bfs(g, sources)
            .into_iter()
            .map(|d| (d != INFINITY).then_some(u64::from(d)))
            .collect();
        Layers::new(&labels)
    }

    #[test]
    fn layers_group_labels_ascending_and_skip_unlabelled_vertices() {
        let layers = Layers::new(&[Some(1), None, Some(0), Some(2), Some(1), Some(0)]);
        assert_eq!(layers.depth(), 3);
        assert_eq!(layers.layer(0), &[2, 5]);
        assert_eq!(layers.layer(1), &[0, 4]);
        assert_eq!(layers.layer(2), &[3]);
        assert!(layers.layer(3).is_empty());
        assert_eq!(Layers::new(&[None, None]).depth(), 0);
    }

    #[test]
    fn broadcast_reaches_every_vertex_on_a_grid() {
        let g = generators::grid(8, 8);
        let layers = bfs_layers(&g, &[0]);
        let mut net = StackBuilder::new(g.clone()).build();
        let out = layered_broadcast(&mut net, &layers, &Msg::words(&[123]));
        for v in g.nodes() {
            assert_eq!(out[v].as_ref().map(|m| m.word(0)), Some(123), "vertex {v}");
        }
        // Each vertex participates in at most 2 calls.
        assert!(net.max_lb_energy() <= 2);
    }

    #[test]
    fn broadcast_skips_unreachable_vertices() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let layers = bfs_layers(&g, &[0]);
        let mut net = StackBuilder::new(g).build();
        let out = layered_broadcast(&mut net, &layers, &Msg::words(&[9]));
        assert!(out[2].is_some());
        assert!(out[3].is_none());
        assert!(out[4].is_none());
    }

    #[test]
    fn up_sweep_delivers_a_deep_message_to_the_root() {
        let g = generators::path(10);
        let layers = bfs_layers(&g, &[0]);
        let mut net = StackBuilder::new(g).build();
        let mut holders = NodeSlots::new(10);
        holders.insert(9, Msg::words(&[55]));
        let at_root = up_sweep(&mut net, &layers, &holders);
        assert_eq!(at_root.get(0).map(|m| m.word(0)), Some(55));
        // Relays pay O(1): two calls each (receive once, send once).
        assert!(net.max_lb_energy() <= 2);
    }

    #[test]
    fn up_sweep_with_no_holders_returns_nothing() {
        let g = generators::path(5);
        let layers = bfs_layers(&g, &[0]);
        let mut net = StackBuilder::new(g).build();
        let at_root = up_sweep(&mut net, &layers, &NodeSlots::new(5));
        assert!(at_root.is_empty());
    }

    #[test]
    fn down_sweep_merges_multiple_sources() {
        // Both ends of the path are on layer 0, so the broadcast meets in
        // the middle and every vertex hears it from the nearer end.
        let g = generators::path(9);
        let layers = bfs_layers(&g, &[0, 8]);
        assert_eq!(layers.layer(0), &[0, 8]);
        let mut net = StackBuilder::new(g.clone()).build();
        let out = layered_broadcast(&mut net, &layers, &Msg::words(&[7]));
        for v in g.nodes() {
            assert_eq!(out[v].as_ref().map(|m| m.word(0)), Some(7), "vertex {v}");
        }
        assert_eq!(net.lb_time(), 4);
    }
}
