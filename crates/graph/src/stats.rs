//! Structural graph statistics: components, degree distribution, clustering.
//!
//! No pipeline, harness or dataset code calls this module. Its own tests
//! confirm the synthetic stand-ins have citation-like structure
//! (heavy-tailed degrees, a dominant connected component, non-trivial
//! clustering).

use crate::{traversal, Graph};

/// Connected components; returns `(component id per node, count)`.
/// Thin adapter over [`traversal::connected_components`] (the canonical
/// implementation) with `usize` component ids.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let (labels, count) = traversal::connected_components(graph);
    (labels.into_iter().map(|l| l as usize).collect(), count)
}

/// Size of the largest connected component.
pub fn largest_component_size(graph: &Graph) -> usize {
    let (comp, count) = connected_components(graph);
    if count == 0 {
        return 0;
    }
    let mut sizes = vec![0usize; count];
    for &c in &comp {
        sizes[c] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

/// Degree histogram: `hist[k]` = number of nodes with degree `k`.
pub fn degree_histogram(graph: &Graph) -> Vec<usize> {
    let mut hist = vec![0usize; graph.max_degree() + 1];
    for u in 0..graph.num_nodes() as u32 {
        hist[graph.degree(u)] += 1;
    }
    hist
}

/// Global clustering coefficient: `3 · #triangles / #wedges`
/// (0 when the graph has no wedges).
pub fn global_clustering_coefficient(graph: &Graph) -> f64 {
    let mut triangles = 0usize; // counted 3 times (once per vertex)
    let mut wedges = 0usize;
    for u in 0..graph.num_nodes() as u32 {
        let nbrs = graph.neighbors(u);
        let k = nbrs.len();
        wedges += k * k.saturating_sub(1) / 2;
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if graph.has_edge(a, b) {
                    triangles += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        triangles as f64 / wedges as f64
    }
}

/// BFS shortest-path distances from `source` (`usize::MAX` = unreachable).
/// Thin adapter over [`traversal::bfs_distances`] (the canonical
/// implementation) with `usize` distances.
pub fn bfs_distances(graph: &Graph, source: u32) -> Vec<usize> {
    traversal::bfs_distances(graph, source)
        .into_iter()
        .map(|d| if d == u32::MAX { usize::MAX } else { d as usize })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn components_of_disjoint_paths() {
        let mut g = generators::path(4); // 0-1-2-3
                                         // add an isolated pair 4-5 requires a larger graph:
        let mut g2 = Graph::empty(6);
        for (u, v) in g.edges() {
            g2.add_edge(u, v);
        }
        g2.add_edge(4, 5);
        g = g2;
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[3]);
        assert_eq!(comp[4], comp[5]);
        assert_ne!(comp[0], comp[4]);
        assert_eq!(largest_component_size(&g), 4);
    }

    #[test]
    fn degree_histogram_star() {
        let g = generators::star(5);
        let hist = degree_histogram(&g);
        assert_eq!(hist[1], 4); // leaves
        assert_eq!(hist[4], 1); // hub
    }

    #[test]
    fn clustering_triangle_vs_path() {
        let triangle = generators::complete(3);
        assert!((global_clustering_coefficient(&triangle) - 1.0).abs() < 1e-12);
        let path = generators::path(5);
        assert_eq!(global_clustering_coefficient(&path), 0.0);
    }

    #[test]
    fn clustering_of_k4() {
        // K4: every wedge closes.
        let g = generators::complete(4);
        assert!((global_clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bfs_distances_on_cycle() {
        let g = generators::cycle(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn bfs_unreachable_nodes() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], usize::MAX);
    }

    #[test]
    fn sbm_stand_ins_have_dominant_component() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let (g, _) = generators::sbm_homophily(
            &generators::SbmConfig {
                n: 800,
                num_edges: 3200,
                num_classes: 4,
                homophily: 0.8,
                degree_exponent: 2.3,
            },
            &mut rng,
        );
        // Citation-like: one giant component holding most nodes.
        assert!(largest_component_size(&g) > 700);
    }
}
