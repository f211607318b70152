//! Delay-bounded simple-path enumeration (the paper's "modified DFS").
//!
//! Sec. IV-A: "we can decide all feasible paths (whose end-to-end delay is
//! no larger than L^max_m) between the source and each destination in a
//! multicast session m, by running a modified depth-first-search: the DFS
//! continues to search for paths ... as long as the path currently obtained
//! has a delay smaller than L^max_m and has no cycles. In practice, the
//! number of candidate data centers is usually small, around 5 ~ 20."

use crate::{EdgeId, Graph, NodeId};

/// A path through the graph as a sequence of edges.
#[derive(Debug, Clone, PartialEq)]
pub struct PathRoute {
    /// Edges in order from source to destination.
    pub edges: Vec<EdgeId>,
    /// Total delay along the path.
    pub delay: f64,
    /// Minimum capacity along the path (the bottleneck).
    pub bottleneck: f64,
}

impl PathRoute {
    /// Node sequence of this path (source first).
    pub fn nodes(&self, graph: &Graph) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.edges.len() + 1);
        if let Some(&first) = self.edges.first() {
            out.push(graph.edge(first).from);
        }
        for &e in &self.edges {
            out.push(graph.edge(e).to);
        }
        out
    }
}

/// Limits on the path enumeration, to keep the LP small on large graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLimits {
    /// Maximum end-to-end delay (the session's `L^max`).
    pub max_delay: f64,
    /// Maximum number of edges per path.
    pub max_hops: usize,
    /// Maximum number of paths to return (lowest-delay first).
    pub max_paths: usize,
}

impl Default for PathLimits {
    fn default() -> Self {
        PathLimits {
            max_delay: f64::INFINITY,
            max_hops: 8,
            max_paths: 64,
        }
    }
}

impl PathLimits {
    /// Limits with only a delay bound (hops/count at defaults).
    pub fn delay_bound(max_delay: f64) -> Self {
        PathLimits {
            max_delay,
            ..Default::default()
        }
    }
}

/// Enumerates all simple paths from `from` to `to` whose total delay is at
/// most `limits.max_delay`, sorted by increasing delay and truncated to
/// `limits.max_paths`.
///
/// Zero-capacity edges are skipped — they cannot carry traffic and would
/// only inflate the path set.
///
/// # Panics
///
/// Panics if `from` or `to` is out of range.
pub fn feasible_paths(
    graph: &Graph,
    from: NodeId,
    to: NodeId,
    limits: &PathLimits,
) -> Vec<PathRoute> {
    assert!(from.0 < graph.node_count() && to.0 < graph.node_count());
    let mut out = Vec::new();
    let mut on_path = vec![false; graph.node_count()];
    on_path[from.0] = true;
    let mut stack = Vec::new();
    dfs(
        graph,
        from,
        to,
        limits,
        &mut on_path,
        &mut stack,
        0.0,
        &mut out,
    );
    out.sort_by(|a, b| a.delay.partial_cmp(&b.delay).expect("delays are finite"));
    out.truncate(limits.max_paths);
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    graph: &Graph,
    node: NodeId,
    to: NodeId,
    limits: &PathLimits,
    on_path: &mut [bool],
    stack: &mut Vec<crate::EdgeId>,
    delay: f64,
    out: &mut Vec<PathRoute>,
) {
    if node == to {
        if !stack.is_empty() {
            let bottleneck = stack
                .iter()
                .map(|&e| graph.edge(e).capacity)
                .fold(f64::INFINITY, f64::min);
            out.push(PathRoute {
                edges: stack.clone(),
                delay,
                bottleneck,
            });
        }
        return;
    }
    if stack.len() == limits.max_hops {
        return;
    }
    for e in graph.out_edges(node) {
        if on_path[e.to.0] || e.capacity <= 0.0 {
            continue;
        }
        let nd = delay + e.delay;
        if nd > limits.max_delay {
            continue;
        }
        on_path[e.to.0] = true;
        stack.push(e.id);
        dfs(graph, e.to, to, limits, on_path, stack, nd, out);
        stack.pop();
        on_path[e.to.0] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> (Graph, NodeId, NodeId) {
        // s -> {a, b} -> t plus direct s -> t
        let mut g = Graph::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_edge(s, t, 5.0, 100.0).unwrap();
        g.add_edge(s, a, 5.0, 10.0).unwrap();
        g.add_edge(a, t, 5.0, 10.0).unwrap();
        g.add_edge(s, b, 5.0, 30.0).unwrap();
        g.add_edge(b, t, 5.0, 30.0).unwrap();
        g.add_edge(a, b, 5.0, 5.0).unwrap();
        (g, s, t)
    }

    #[test]
    fn finds_all_paths_within_bound() {
        let (g, s, t) = grid();
        let paths = feasible_paths(&g, s, t, &PathLimits::delay_bound(200.0));
        // s-t, s-a-t, s-b-t, s-a-b-t
        assert_eq!(paths.len(), 4);
        // Sorted by delay: 20, 45, 60, 100
        let delays: Vec<f64> = paths.iter().map(|p| p.delay).collect();
        assert_eq!(delays, vec![20.0, 45.0, 60.0, 100.0]);
    }

    #[test]
    fn delay_bound_prunes() {
        let (g, s, t) = grid();
        let paths = feasible_paths(&g, s, t, &PathLimits::delay_bound(50.0));
        assert_eq!(paths.len(), 2); // 20 and 45
        assert!(paths.iter().all(|p| p.delay <= 50.0));
    }

    #[test]
    fn includes_direct_path_when_within_bound() {
        // "The set includes the direct path from the source to the
        // destination, if the delay on the direct link is below L^max."
        let (g, s, t) = grid();
        let paths = feasible_paths(&g, s, t, &PathLimits::delay_bound(100.0));
        assert!(paths.iter().any(|p| p.edges.len() == 1));
        let paths = feasible_paths(&g, s, t, &PathLimits::delay_bound(99.0));
        assert!(!paths.iter().any(|p| p.edges.len() == 1));
    }

    #[test]
    fn paths_are_simple() {
        let (g, s, t) = grid();
        for p in feasible_paths(&g, s, t, &PathLimits::delay_bound(1e9)) {
            let nodes = p.nodes(&g);
            let mut seen = std::collections::HashSet::new();
            assert!(nodes.iter().all(|n| seen.insert(*n)), "cycle in {nodes:?}");
        }
    }

    #[test]
    fn hop_limit_prunes() {
        let (g, s, t) = grid();
        let limits = PathLimits {
            max_delay: 1e9,
            max_hops: 2,
            max_paths: 64,
        };
        let paths = feasible_paths(&g, s, t, &limits);
        assert_eq!(paths.len(), 3); // the 3-hop s-a-b-t is pruned
    }

    #[test]
    fn max_paths_truncates_keeping_lowest_delay() {
        let (g, s, t) = grid();
        let limits = PathLimits {
            max_delay: 1e9,
            max_hops: 8,
            max_paths: 2,
        };
        let paths = feasible_paths(&g, s, t, &limits);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].delay, 20.0);
        assert_eq!(paths[1].delay, 45.0);
    }

    #[test]
    fn zero_capacity_edges_excluded() {
        let mut g = Graph::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        g.add_edge(s, t, 0.0, 1.0).unwrap();
        assert!(feasible_paths(&g, s, t, &PathLimits::default()).is_empty());
    }

    #[test]
    fn source_equals_destination_yields_no_paths() {
        let (g, s, _) = grid();
        assert!(feasible_paths(&g, s, s, &PathLimits::default()).is_empty());
    }
}
