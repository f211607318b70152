//! Multicast capacity bounds: coded vs routing-only.
//!
//! With network coding, a multicast session from `s` to receivers
//! `{d_1..d_K}` achieves exactly `min_k maxflow(s → d_k)` (the network
//! coding theorem; the paper computes this with Ford–Fulkerson and labels
//! it the "theoretical maximal throughput", 69.9 Mbps on its butterfly).
//! Without coding, throughput is bounded by fractional Steiner-tree
//! packing, which is strictly smaller on coding-friendly topologies
//! (4/3 gap on the butterfly).

use std::collections::BTreeSet;

use ncvnf_simplex::{LinearProgram, Relation, SolveError};

use crate::maxflow::dinic;
use crate::{EdgeId, Graph, NodeId};

/// Coded multicast capacity: `min_k maxflow(source → receiver_k)`.
///
/// Returns 0.0 when `receivers` is empty.
///
/// # Panics
///
/// Panics if any node id is out of range.
pub fn coded_capacity(graph: &Graph, source: NodeId, receivers: &[NodeId]) -> f64 {
    receivers
        .iter()
        .map(|&r| dinic(graph, source, r).value)
        .fold(f64::INFINITY, f64::min)
        .min(if receivers.is_empty() {
            0.0
        } else {
            f64::INFINITY
        })
}

/// A directed Steiner tree (arborescence rooted at the source, reaching
/// every receiver).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SteinerTree {
    /// Edge set of the tree, sorted.
    pub edges: Vec<EdgeId>,
}

impl SteinerTree {
    /// The minimum capacity along the tree.
    pub fn bottleneck(&self, graph: &Graph) -> f64 {
        self.edges
            .iter()
            .map(|&e| graph.edge(e).capacity)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Enumerates directed Steiner trees from `source` covering all
/// `receivers`, up to `max_trees`. Intended for small topologies (the
/// evaluation graphs have 5–20 nodes); enumeration is pruned by marking
/// visited expansion states.
///
/// Trees are *minimal*: every leaf is a receiver.
///
/// # Panics
///
/// Panics if any node id is out of range.
fn enumerate_steiner_trees(
    graph: &Graph,
    source: NodeId,
    receivers: &[NodeId],
    max_trees: usize,
) -> Vec<SteinerTree> {
    assert!(source.0 < graph.node_count());
    for r in receivers {
        assert!(r.0 < graph.node_count());
    }
    if receivers.is_empty() {
        return Vec::new();
    }
    let mut results: BTreeSet<Vec<EdgeId>> = BTreeSet::new();
    let mut in_tree = vec![false; graph.node_count()];
    in_tree[source.0] = true;
    let mut edges: Vec<EdgeId> = Vec::new();
    grow(
        graph,
        receivers,
        &mut in_tree,
        &mut edges,
        &mut results,
        max_trees,
    );
    results
        .into_iter()
        .map(|edges| SteinerTree { edges })
        .collect()
}

fn grow(
    graph: &Graph,
    receivers: &[NodeId],
    in_tree: &mut Vec<bool>,
    edges: &mut Vec<EdgeId>,
    results: &mut BTreeSet<Vec<EdgeId>>,
    max_trees: usize,
) {
    if results.len() >= max_trees {
        return;
    }
    if receivers.iter().all(|r| in_tree[r.0]) {
        let pruned = prune(graph, edges, receivers);
        results.insert(pruned);
        return;
    }
    // Frontier edges: from a tree node to a non-tree node. Deduplicate by
    // candidate edge; recursion explores each extension.
    let mut candidates = Vec::new();
    for (n, &inside) in in_tree.iter().enumerate() {
        if !inside {
            continue;
        }
        for e in graph.out_edges(NodeId(n)) {
            if !in_tree[e.to.0] && e.capacity > 0.0 {
                candidates.push(e);
            }
        }
    }
    for e in candidates {
        if in_tree[e.to.0] {
            continue;
        }
        in_tree[e.to.0] = true;
        edges.push(e.id);
        grow(graph, receivers, in_tree, edges, results, max_trees);
        edges.pop();
        in_tree[e.to.0] = false;
        if results.len() >= max_trees {
            return;
        }
    }
}

/// Removes branches that do not lead to any receiver.
fn prune(graph: &Graph, edges: &[EdgeId], receivers: &[NodeId]) -> Vec<EdgeId> {
    let mut kept: Vec<EdgeId> = edges.to_vec();
    loop {
        // A leaf is the head of an edge with no outgoing kept edge.
        let heads: BTreeSet<usize> = kept.iter().map(|&e| graph.edge(e).to.0).collect();
        let tails: BTreeSet<usize> = kept.iter().map(|&e| graph.edge(e).from.0).collect();
        let before = kept.len();
        kept.retain(|&e| {
            let head = graph.edge(e).to;
            tails.contains(&head.0) || receivers.contains(&head) || !heads.contains(&head.0)
            // defensive; head is in heads by construction
        });
        if kept.len() == before {
            break;
        }
    }
    kept.sort();
    kept
}

/// Optimal fractional Steiner-tree packing over an explicit tree set:
/// `max Σ_T x_T` subject to `Σ_{T ∋ e} x_T ≤ capacity(e)`.
///
/// This is the routing-only (non-NC) multicast throughput bound when
/// `trees` contains all minimal Steiner trees.
///
/// # Errors
///
/// Propagates LP solver failures.
fn tree_packing_rate(graph: &Graph, trees: &[SteinerTree]) -> Result<f64, SolveError> {
    if trees.is_empty() {
        return Ok(0.0);
    }
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = trees.iter().map(|_| lp.add_var("tree", 1.0)).collect();
    for e in graph.edges() {
        let terms: Vec<_> = trees
            .iter()
            .enumerate()
            .filter(|(_, t)| t.edges.contains(&e.id))
            .map(|(i, _)| (vars[i], 1.0))
            .collect();
        if !terms.is_empty() {
            lp.add_constraint(&terms, Relation::Le, e.capacity);
        }
    }
    Ok(lp.solve()?.objective)
}

/// Routing-only multicast bound on small graphs: enumerate minimal Steiner
/// trees and pack them optimally.
///
/// # Errors
///
/// Propagates LP solver failures.
pub fn routing_capacity(
    graph: &Graph,
    source: NodeId,
    receivers: &[NodeId],
    max_trees: usize,
) -> Result<f64, SolveError> {
    let trees = enumerate_steiner_trees(graph, source, receivers, max_trees);
    tree_packing_rate(graph, &trees)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn butterfly(cap: f64) -> (Graph, NodeId, Vec<NodeId>) {
        let mut g = Graph::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let m = g.add_node("m");
        let w = g.add_node("w");
        let t1 = g.add_node("t1");
        let t2 = g.add_node("t2");
        for (u, v) in [
            (s, a),
            (s, b),
            (a, t1),
            (b, t2),
            (a, m),
            (b, m),
            (m, w),
            (w, t1),
            (w, t2),
        ] {
            g.add_edge(u, v, cap, 1.0).unwrap();
        }
        (g, s, vec![t1, t2])
    }

    #[test]
    fn butterfly_coded_capacity_is_twice_the_link() {
        let (g, s, rx) = butterfly(1.0);
        assert!((coded_capacity(&g, s, &rx) - 2.0).abs() < 1e-9);
        let (g, s, rx) = butterfly(34.95);
        assert!((coded_capacity(&g, s, &rx) - 69.9).abs() < 1e-9);
    }

    #[test]
    fn butterfly_routing_capacity_is_1_5() {
        // The classic network-coding gap: routing packs 1.5, coding gets 2.
        let (g, s, rx) = butterfly(1.0);
        let rate = routing_capacity(&g, s, &rx, 512).unwrap();
        assert!((rate - 1.5).abs() < 1e-6, "routing rate {rate}");
    }

    #[test]
    fn steiner_trees_cover_receivers_and_are_minimal() {
        let (g, s, rx) = butterfly(1.0);
        let trees = enumerate_steiner_trees(&g, s, &rx, 512);
        assert!(!trees.is_empty());
        for t in &trees {
            // Every receiver reachable from s using tree edges.
            let mut reach = vec![false; g.node_count()];
            reach[s.0] = true;
            let mut changed = true;
            while changed {
                changed = false;
                for &e in &t.edges {
                    let e = g.edge(e);
                    if reach[e.from.0] && !reach[e.to.0] {
                        reach[e.to.0] = true;
                        changed = true;
                    }
                }
            }
            for r in &rx {
                assert!(reach[r.0], "receiver not covered by {t:?}");
            }
            // Minimality: every sink-side leaf is a receiver.
            let tails: BTreeSet<usize> = t.edges.iter().map(|&e| g.edge(e).from.0).collect();
            for &e in &t.edges {
                let head = g.edge(e).to;
                assert!(
                    tails.contains(&head.0) || rx.contains(&head),
                    "dangling branch at {head}"
                );
            }
        }
    }

    #[test]
    fn empty_receivers() {
        let (g, s, _) = butterfly(1.0);
        assert_eq!(coded_capacity(&g, s, &[]), 0.0);
        assert!(enumerate_steiner_trees(&g, s, &[], 10).is_empty());
        assert_eq!(routing_capacity(&g, s, &[], 10).unwrap(), 0.0);
    }

    #[test]
    fn single_receiver_equals_maxflow() {
        let (g, s, rx) = butterfly(1.0);
        let one = [rx[0]];
        assert!((coded_capacity(&g, s, &one) - 2.0).abs() < 1e-9);
        // With one receiver routing = max flow too (path packing).
        let rate = routing_capacity(&g, s, &one, 512).unwrap();
        assert!((rate - 2.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn unreachable_receiver_gives_zero() {
        let mut g = Graph::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        let iso = g.add_node("iso");
        g.add_edge(s, t, 1.0, 1.0).unwrap();
        assert_eq!(coded_capacity(&g, s, &[t, iso]), 0.0);
        assert_eq!(routing_capacity(&g, s, &[t, iso], 10).unwrap(), 0.0);
    }
}
