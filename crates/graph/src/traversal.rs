//! Breadth-first traversal utilities: hop distances, k-hop neighborhoods,
//! and connected components.
//!
//! Neither the sensitivity analysis (the Lemma 2 tests) nor the
//! edge-inference attacks call these; only [`crate::stats`] and the tests
//! do.

use crate::Graph;

/// Hop distance from `source` to every node (`u32::MAX` for unreachable).
pub fn bfs_distances(graph: &Graph, source: u32) -> Vec<u32> {
    let n = graph.num_nodes();
    assert!((source as usize) < n, "bfs source {source} out of range (n={n})");
    let mut dist = vec![u32::MAX; n];
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut next = Vec::new();
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        for &u in &frontier {
            for &v in graph.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = d;
                    next.push(v);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    dist
}

/// All nodes within `k` hops of `source` (including `source` itself),
/// sorted ascending.
pub fn k_hop_neighborhood(graph: &Graph, source: u32, k: u32) -> Vec<u32> {
    let dist = bfs_distances(graph, source);
    let mut out: Vec<u32> =
        (0..graph.num_nodes() as u32).filter(|&v| dist[v as usize] <= k).collect();
    out.sort_unstable();
    out
}

/// Connected-component labeling. Returns `(labels, count)` where labels are
/// consecutive integers starting at 0, assigned in order of lowest member id.
pub fn connected_components(graph: &Graph) -> (Vec<u32>, usize) {
    let n = graph.num_nodes();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0usize;
    let mut stack = Vec::new();
    for s in 0..n as u32 {
        if labels[s as usize] != u32::MAX {
            continue;
        }
        let label = count as u32;
        count += 1;
        labels[s as usize] = label;
        stack.push(s);
        while let Some(u) = stack.pop() {
            for &v in graph.neighbors(u) {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = label;
                    stack.push(v);
                }
            }
        }
    }
    (labels, count)
}

/// True when every node is reachable from every other node.
pub fn is_connected(graph: &Graph) -> bool {
    if graph.num_nodes() == 0 {
        return true;
    }
    connected_components(graph).1 == 1
}

/// Eccentricity-free diameter estimate: the longest shortest path found by
/// running BFS from `samples` deterministic seeds (exact when `samples ≥ n`).
/// Returns `None` for a disconnected or empty graph.
pub fn diameter_lower_bound(graph: &Graph, samples: usize) -> Option<u32> {
    let n = graph.num_nodes();
    if n == 0 || !is_connected(graph) {
        return None;
    }
    let stride = (n / samples.max(1)).max(1);
    let mut best = 0u32;
    for s in (0..n).step_by(stride) {
        let dist = bfs_distances(graph, s as u32);
        let far = dist.iter().copied().max().unwrap();
        best = best.max(far);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path_counts_hops() {
        let g = generators::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_marks_unreachable_nodes() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], u32::MAX);
        assert_eq!(d[3], u32::MAX);
    }

    #[test]
    fn bfs_on_cycle_wraps_both_ways() {
        let g = generators::cycle(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_rejects_bad_source() {
        bfs_distances(&generators::path(3), 7);
    }

    #[test]
    fn k_hop_zero_is_just_source() {
        let g = generators::path(5);
        assert_eq!(k_hop_neighborhood(&g, 2, 0), vec![2]);
    }

    #[test]
    fn k_hop_grows_monotonically() {
        let g = generators::path(7);
        let mut prev = 0;
        for k in 0..7 {
            let hood = k_hop_neighborhood(&g, 3, k);
            assert!(hood.len() >= prev);
            prev = hood.len();
        }
        assert_eq!(prev, 7);
    }

    #[test]
    fn k_hop_on_star_center_reaches_all_in_one() {
        let g = generators::star(6);
        assert_eq!(k_hop_neighborhood(&g, 0, 1).len(), 6);
    }

    #[test]
    fn components_of_disjoint_edges() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 4); // {0,1}, {2,3}, {4}, {5}
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[5]);
    }

    #[test]
    fn components_labels_are_consecutive_from_zero() {
        let g = Graph::from_edges(5, &[(1, 2), (3, 4)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        let mut seen: Vec<u32> = labels.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn connected_detects_connectivity() {
        assert!(is_connected(&generators::cycle(5)));
        assert!(!is_connected(&Graph::from_edges(3, &[(0, 1)])));
        assert!(is_connected(&Graph::empty(0)));
        assert!(is_connected(&Graph::empty(1)));
    }

    #[test]
    fn diameter_of_path_is_length() {
        let g = generators::path(9);
        assert_eq!(diameter_lower_bound(&g, 9), Some(8));
    }

    #[test]
    fn diameter_of_complete_graph_is_one() {
        let g = generators::complete(5);
        assert_eq!(diameter_lower_bound(&g, 5), Some(1));
    }

    #[test]
    fn diameter_none_for_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        assert_eq!(diameter_lower_bound(&g, 4), None);
    }
}
