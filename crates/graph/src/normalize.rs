//! Adjacency normalizations.
//!
//! GCON (Sec. IV-C2) uses the *row-stochastic* normalization with self-loops,
//! `Ã = D⁻¹(A + I)` (i.e. `r = 0` in `Ã = D^{r-1}ÂD^{-r}`), optionally with
//! the off-diagonal clip `p ≤ 1/2` of Lemma 1:
//!
//! ```text
//! Ã_ij = 0                      if i ≠ j and A_ij = 0
//! Ã_ij = min(1/(k_i+1), p)      if i ≠ j and A_ij = 1
//! Ã_ii = 1 − Σ_{u≠i} Ã_iu
//! ```
//!
//! With `p = 1/2` this reduces to the plain `D⁻¹(A+I)` (every node with at
//! least one neighbor has `1/(k_i+1) ≤ 1/2`). Lemma 1 guarantees for any power
//! `Ã^m` and any PPR/APPR combination `R_m`: non-negative entries, unit row
//! sums, and column sums bounded by `max((k_i+1)p, 1)` — properties the tests
//! below and the property suite check directly.
//!
//! The GCN baseline uses the *symmetric* normalization `D^{-1/2} Â D^{-1/2}`
//! of Kipf & Welling.

use crate::{Csr, Graph};

/// Row-stochastic normalization with self-loops and off-diagonal clip `p`
/// (Lemma 1). `p = 0.5` reproduces the unclipped `D⁻¹(A+I)` of Sec. IV-C2.
///
/// # Panics
/// Panics if `p` is not in `(0, 0.5]`.
pub fn row_stochastic(graph: &Graph, p: f64) -> Csr {
    assert!(p > 0.0 && p <= 0.5, "row_stochastic: clip p must lie in (0, 0.5], got {p}");
    let n = graph.num_nodes();
    // One pass over the sorted adjacency, straight into the CSR arrays.
    let mut a = Csr::with_capacity(n, n, 2 * graph.num_edges() + n);
    for u in 0..n as u32 {
        a.push_row(row_stochastic_entries(graph, u, p));
    }
    a
}

/// Row `u` of [`row_stochastic`] as `(column, value)` entries in column
/// order: `off = min(1/(k+1), p)` for each of the `k` neighbors, and the
/// self-loop `1 − off_sum` at its sorted position among them. `off_sum`
/// adds `off` once per neighbor; a single multiply `k · off` rounds
/// differently for some `k`. `delta` emits its patched rows from here too,
/// so a patched `Ã` is bitwise a rebuilt one.
pub(crate) fn row_stochastic_entries(
    graph: &Graph,
    u: u32,
    p: f64,
) -> impl Iterator<Item = (u32, f64)> + '_ {
    let nbrs = graph.neighbors(u);
    let off = (1.0 / (nbrs.len() as f64 + 1.0)).min(p);
    let off_sum = nbrs.iter().fold(0.0, |acc, _| acc + off);
    let (below, above) = nbrs.split_at(nbrs.partition_point(|&v| v < u));
    let entry = move |&v: &u32| (v, off);
    below
        .iter()
        .map(entry)
        .chain(std::iter::once((u, 1.0 - off_sum)))
        .chain(above.iter().map(entry))
}

/// The plain `Ã = D⁻¹(A + I)` of Sec. IV-C2 (clip `p = 1/2` is inactive).
pub fn row_stochastic_default(graph: &Graph) -> Csr {
    row_stochastic(graph, 0.5)
}

/// Symmetric GCN normalization `D^{-1/2} (A + I) D^{-1/2}` (Kipf & Welling),
/// used by the non-private GCN and DPGCN baselines.
pub fn symmetric(graph: &Graph) -> Csr {
    let n = graph.num_nodes();
    let inv_sqrt: Vec<f64> =
        (0..n as u32).map(|u| 1.0 / ((graph.degree(u) as f64 + 1.0).sqrt())).collect();
    let mut rows = Vec::with_capacity(n);
    for u in 0..n as u32 {
        let du = inv_sqrt[u as usize];
        let mut entries: Vec<(u32, f64)> =
            graph.neighbors(u).iter().map(|&v| (v, du * inv_sqrt[v as usize])).collect();
        entries.push((u, du * du));
        rows.push(entries);
    }
    Csr::from_row_entries(n, n, rows)
}

/// The general parametric normalization `Ã = D^{r−1} Â D^{−r}` of Sec. II-A,
/// `r ∈ [0, 1]`, where `Â = A + I` and `D` is the degree matrix of `Â`.
///
/// Special cases: `r = 0` is the row-stochastic `D⁻¹Â` GCON trains with,
/// `r = 1/2` is the symmetric Kipf–Welling `D^{-1/2}ÂD^{-1/2}`, and `r = 1`
/// is the column-stochastic `ÂD⁻¹`. The paper fixes `r = 0`, and no
/// harness calls this routine; its tests check the special cases and that
/// the Lemma 1 "row sums = 1" precondition holds *only* at `r = 0`.
///
/// # Panics
/// Panics if `r` is outside `[0, 1]`.
pub fn general_r(graph: &Graph, r: f64) -> Csr {
    assert!((0.0..=1.0).contains(&r), "general_r: r must lie in [0, 1], got {r}");
    let n = graph.num_nodes();
    // d̂_u = k_u + 1 (self-loop included).
    let dhat: Vec<f64> = (0..n as u32).map(|u| graph.degree(u) as f64 + 1.0).collect();
    let left: Vec<f64> = dhat.iter().map(|&d| d.powf(r - 1.0)).collect();
    let right: Vec<f64> = dhat.iter().map(|&d| d.powf(-r)).collect();
    let mut rows = Vec::with_capacity(n);
    for u in 0..n as u32 {
        let lu = left[u as usize];
        let mut entries: Vec<(u32, f64)> =
            graph.neighbors(u).iter().map(|&v| (v, lu * right[v as usize])).collect();
        entries.push((u, lu * right[u as usize]));
        rows.push(entries);
    }
    Csr::from_row_entries(n, n, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn row_stochastic_rows_sum_to_one() {
        let a = row_stochastic_default(&path3());
        for s in a.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn row_stochastic_values_path() {
        let a = row_stochastic_default(&path3());
        // node 0: degree 1 → off-diag 1/2, self 1/2
        assert!((a.get(0, 1) - 0.5).abs() < 1e-12);
        assert!((a.get(0, 0) - 0.5).abs() < 1e-12);
        // node 1: degree 2 → off-diag 1/3 each, self 1/3
        assert!((a.get(1, 0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.get(1, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.get(1, 1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clip_reduces_offdiag_and_keeps_row_sum() {
        let g = path3();
        let p = 0.25;
        let a = row_stochastic(&g, p);
        // node 0 has degree 1: unclipped entry would be 0.5, clipped to 0.25.
        assert!((a.get(0, 1) - 0.25).abs() < 1e-12);
        assert!((a.get(0, 0) - 0.75).abs() < 1e-12);
        for s in a.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lemma1_column_bound_holds() {
        // Lemma 1 third bullet: column i sum ≤ max((k_i + 1) p, 1).
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (2, 3)]);
        for &p in &[0.5, 0.3, 0.1] {
            let a = row_stochastic(&g, p);
            let cs = a.col_sums();
            for (i, &s) in cs.iter().enumerate() {
                let k = g.degree(i as u32) as f64;
                let bound = ((k + 1.0) * p).max(1.0);
                assert!(s <= bound + 1e-12, "col {i}: {s} > bound {bound} at p={p}");
            }
        }
    }

    /// The construction `row_stochastic` had before it built rows in one
    /// pass: a per-row entry list (neighbors, then the self-loop), sorted
    /// and summed by `from_row_entries`.
    fn row_stochastic_by_sorting(graph: &Graph, p: f64) -> Csr {
        let n = graph.num_nodes();
        let mut rows = Vec::with_capacity(n);
        for u in 0..n as u32 {
            let k = graph.degree(u);
            let off = (1.0 / (k as f64 + 1.0)).min(p);
            let mut entries: Vec<(u32, f64)> = Vec::with_capacity(k + 1);
            let mut off_sum = 0.0;
            for &v in graph.neighbors(u) {
                entries.push((v, off));
                off_sum += off;
            }
            entries.push((u, 1.0 - off_sum));
            rows.push(entries);
        }
        Csr::from_row_entries(n, n, rows)
    }

    /// The one-pass build is bitwise the sorted one: on isolated nodes, on
    /// nodes whose neighbors all lie below or all above them, on mixed
    /// ones, and on a random graph of degrees up to about 25, at the
    /// unclipped `p` and at one that clips every degree up to 3.
    #[test]
    fn one_pass_build_is_bitwise_the_sorted_build() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // 0: isolated; 1: neighbors all above; 9: all below; 5: both sides;
        // 10: isolated, last.
        let shaped = Graph::from_edges(
            11,
            &[(1, 2), (1, 4), (1, 7), (3, 9), (6, 9), (8, 9), (5, 2), (5, 8), (5, 3)],
        );
        let mut rng = StdRng::seed_from_u64(29);
        let edges: Vec<(u32, u32)> =
            (0..2000).map(|_| (rng.gen_range(0..300), rng.gen_range(0..300))).collect();
        let random = Graph::from_edges(300, &edges);
        assert!((0..300).any(|u| random.degree(u) >= 10));
        for g in [&shaped, &random] {
            for p in [0.5, 0.2] {
                let (fast, slow) = (row_stochastic(g, p), row_stochastic_by_sorting(g, p));
                assert_eq!(fast.nnz(), 2 * g.num_edges() + g.num_nodes());
                for u in 0..g.num_nodes() {
                    let ((fc, fv), (sc, sv)) = (fast.row(u), slow.row(u));
                    assert_eq!(fc, sc, "row {u} columns at p={p}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(fv), bits(sv), "row {u} values at p={p}");
                }
                assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn isolated_node_becomes_pure_self_loop() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let a = row_stochastic_default(&g);
        assert!((a.get(2, 2) - 1.0).abs() < 1e-12);
        assert_eq!(a.row(2).0.len(), 1);
    }

    #[test]
    fn symmetric_matches_manual_path() {
        let a = symmetric(&path3());
        // node 0 degree 1 → d̂ = 2; node 1 degree 2 → d̂ = 3.
        assert!((a.get(0, 1) - 1.0 / (2.0_f64.sqrt() * 3.0_f64.sqrt())).abs() < 1e-12);
        assert!((a.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((a.get(1, 1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn general_r_zero_matches_row_stochastic() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let a = general_r(&g, 0.0);
        let b = row_stochastic_default(&g);
        for i in 0..5 {
            for j in 0..5 {
                assert!((a.get(i, j) - b.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn general_r_half_matches_symmetric() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let a = general_r(&g, 0.5);
        let b = symmetric(&g);
        for i in 0..5 {
            for j in 0..5 {
                assert!((a.get(i, j) - b.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn general_r_one_is_column_stochastic() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let a = general_r(&g, 1.0);
        for s in a.col_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn general_r_row_sums_are_one_only_at_r_zero() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        // Star graph: degrees differ, so row sums deviate from 1 for r > 0.
        let a = general_r(&g, 0.5);
        let sums = a.row_sums();
        assert!(sums.iter().any(|s| (s - 1.0).abs() > 1e-6));
        let b = general_r(&g, 0.0);
        for s in b.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn general_r_rejects_out_of_range() {
        general_r(&path3(), 1.5);
    }

    #[test]
    fn symmetric_is_symmetric() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let a = symmetric(&g);
        for i in 0..5 {
            for j in 0..5 {
                assert!((a.get(i, j) - a.get(j, i)).abs() < 1e-12);
            }
        }
    }
}
