#![allow(clippy::needless_range_loop)] // index-parallel loops mirror the math
//! Property tests for the numerical-verification substrate added on top of
//! the base linear algebra: LU factorization, the Jacobi eigensolver, power
//! iteration, graph traversal, the parametric normalization and the DP
//! composition arithmetic.

use gcon::dp::composition;
use gcon::graph::normalize::{general_r, row_stochastic_default};
use gcon::graph::{traversal, Graph};
use gcon::linalg::eigen::{jacobi_eigen, power_iteration, singular_values};
use gcon::linalg::lu::Lu;
use gcon::linalg::{ops, Mat};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random connected-ish G(n, m) graph for traversal properties.
fn random_graph(seed: u64, n: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (2 * n).min(n * (n - 1) / 2);
    gcon::graph::generators::erdos_renyi_gnm(n, m, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LU solve then multiply-back recovers the right-hand side.
    #[test]
    fn lu_solve_roundtrip(seed in 0u64..500, n in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Mat::gaussian(n, n, 1.0, &mut rng);
        for i in 0..n {
            a.add_at(i, i, n as f64 + 2.0); // diagonally dominant → invertible
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let x = Lu::new(&a).solve(&b).unwrap();
        for i in 0..n {
            let ax: f64 = (0..n).map(|j| a.get(i, j) * x[j]).sum();
            prop_assert!((ax - b[i]).abs() < 1e-7, "row {i}: Ax = {ax}, b = {}", b[i]);
        }
    }

    /// det(AB) = det(A)·det(B).
    #[test]
    fn determinant_is_multiplicative(seed in 0u64..500, n in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Mat::gaussian(n, n, 0.7, &mut rng);
        let mut b = Mat::gaussian(n, n, 0.7, &mut rng);
        for i in 0..n {
            a.add_at(i, i, 2.0);
            b.add_at(i, i, 2.0);
        }
        let dab = Lu::new(&ops::matmul(&a, &b)).det();
        let da = Lu::new(&a).det();
        let db = Lu::new(&b).det();
        let scale = da.abs().max(db.abs()).max(1.0);
        prop_assert!((dab - da * db).abs() < 1e-6 * scale * scale,
            "det(AB)={dab} det(A)det(B)={}", da * db);
    }

    /// det(A) equals the product of the eigenvalues for symmetric A.
    #[test]
    fn det_equals_eigenvalue_product(seed in 0u64..500, n in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g: Mat = Mat::gaussian(n, n, 1.0, &mut rng);
        let a = Mat::from_fn(n, n, |i, j| 0.5 * (g.get(i, j) + g.get(j, i)));
        let det = Lu::new(&a).det();
        let prod: f64 = jacobi_eigen(&a, 1e-13).values.iter().product();
        prop_assert!((det - prod).abs() < 1e-6 * det.abs().max(1.0));
    }

    /// Eigenvalues of a symmetric matrix are invariant under orthogonal
    /// similarity (rotate by a Jacobi eigenbasis of another matrix).
    #[test]
    fn eigenvalues_invariant_under_rotation(seed in 0u64..300, n in 2usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g1: Mat = Mat::gaussian(n, n, 1.0, &mut rng);
        let a = Mat::from_fn(n, n, |i, j| 0.5 * (g1.get(i, j) + g1.get(j, i)));
        let g2: Mat = Mat::gaussian(n, n, 1.0, &mut rng);
        let s = Mat::from_fn(n, n, |i, j| 0.5 * (g2.get(i, j) + g2.get(j, i)));
        let q = jacobi_eigen(&s, 1e-13).vectors; // orthogonal
        // B = QᵀAQ.
        let b = ops::matmul(&ops::t_matmul(&q, &a), &q);
        let ea = jacobi_eigen(&a, 1e-13).values;
        let eb = jacobi_eigen(&b, 1e-13).values;
        for (x, y) in ea.iter().zip(&eb) {
            prop_assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
    }

    /// σ₁ bounds the spectral action: ‖Ax‖ ≤ σ₁‖x‖.
    #[test]
    fn largest_singular_value_bounds_operator_norm(seed in 0u64..300, n in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::gaussian(n, n, 1.0, &mut rng);
        let sv = singular_values(&a, 1e-13);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xn: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut ax = vec![0.0; n];
        for i in 0..n {
            ax[i] = x.iter().enumerate().map(|(j, &v)| a.get(i, j) * v).sum();
        }
        let axn: f64 = ax.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(axn <= sv[0] * xn + 1e-7, "‖Ax‖={axn} > σ₁‖x‖={}", sv[0] * xn);
    }

    /// Power iteration's eigenvalue never exceeds σ₁ and matches Jacobi's
    /// top |eigenvalue| on symmetric matrices.
    #[test]
    fn power_iteration_matches_jacobi(seed in 0u64..300, n in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g: Mat = Mat::gaussian(n, n, 1.0, &mut rng);
        let a = Mat::from_fn(n, n, |i, j| 0.5 * (g.get(i, j) + g.get(j, i)));
        let eig = jacobi_eigen(&a, 1e-13);
        let top = eig.values.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let r = power_iteration(&a, None, 5_000, 1e-13);
        // Power iteration can stall on near-ties; allow modest slack.
        prop_assert!(r.eigenvalue.abs() <= top + 1e-6);
        if r.converged {
            let gap = (eig.values[0].abs() - eig.values[n - 1].abs()).abs();
            if gap > 0.1 {
                prop_assert!((r.eigenvalue.abs() - top).abs() < 1e-3,
                    "power {} vs jacobi {top}", r.eigenvalue);
            }
        }
    }

    /// Every Ã (row-stochastic with self-loops) keeps spectral radius ≤ 1 —
    /// the engine of Lemma 3.
    #[test]
    fn row_stochastic_spectral_radius_at_most_one(seed in 0u64..300, n in 3usize..14) {
        let g = random_graph(seed, n);
        let a = row_stochastic_default(&g).to_dense();
        let sv = singular_values(&a, 1e-12);
        // Spectral radius ≤ largest singular value is not tight enough in
        // general, so check the eigen route: Ã is similar to a symmetric
        // matrix only for regular graphs, so use power iteration instead.
        let r = gcon::linalg::eigen::spectral_radius(&a, 5_000, 1e-12);
        prop_assert!(r <= 1.0 + 1e-8, "ρ(Ã) = {r}");
        prop_assert!(sv[0] >= r - 1e-8); // consistency between the two routes
    }

    /// BFS distances satisfy the triangle inequality along edges:
    /// |dist(u) − dist(v)| ≤ 1 for every edge {u,v}.
    #[test]
    fn bfs_distance_lipschitz_along_edges(seed in 0u64..300, n in 2usize..20) {
        let g = random_graph(seed, n);
        let dist = traversal::bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            let du = dist[u as usize];
            let dv = dist[v as usize];
            if du != u32::MAX && dv != u32::MAX {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
            } else {
                // One endpoint unreachable → both must be (same component).
                prop_assert!(du == dv);
            }
        }
    }

    /// Connected components partition the nodes and agree with BFS
    /// reachability from each component's first member.
    #[test]
    fn components_agree_with_bfs(seed in 0u64..300, n in 1usize..18) {
        let g = random_graph(seed, n.max(2));
        let (labels, count) = traversal::connected_components(&g);
        prop_assert!(count >= 1 && count <= g.num_nodes());
        let dist = traversal::bfs_distances(&g, 0);
        for v in 0..g.num_nodes() {
            let same_comp = labels[v] == labels[0];
            let reachable = dist[v] != u32::MAX;
            prop_assert_eq!(same_comp, reachable, "node {}", v);
        }
    }

    /// general_r interpolates: every entry is Â_ij scaled by positive degree
    /// powers, so supports match across r.
    #[test]
    fn general_r_support_is_r_invariant(seed in 0u64..300, n in 2usize..12, r in 0.0f64..1.0) {
        let g = random_graph(seed, n);
        let a0 = general_r(&g, 0.0);
        let ar = general_r(&g, r);
        prop_assert_eq!(a0.nnz(), ar.nnz());
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(a0.get(i, j) > 0.0, ar.get(i, j) > 0.0, "({},{})", i, j);
            }
        }
    }

    /// Advanced composition is monotone in k and never reports less total ε
    /// than a single release.
    #[test]
    fn advanced_composition_monotone(eps in 0.001f64..0.5, k in 1usize..2000) {
        let (e1, _) = composition::advanced_composition(eps, 0.0, k, 1e-6);
        let (e2, _) = composition::advanced_composition(eps, 0.0, k + 1, 1e-6);
        prop_assert!(e2 >= e1);
        // e1 ≥ ε·√(2k·ln 10⁶) > 5ε.
        prop_assert!(e1 >= eps, "advanced composition {e1} < single release {eps}");
    }

    /// The per-step inverse is consistent: allocating the answer back
    /// through the forward map stays within the budget.
    #[test]
    fn per_step_advanced_within_budget(total in 0.1f64..4.0, k in 2usize..5000) {
        let per = composition::per_step_epsilon_advanced(total, k, 1e-6);
        let (back, _) = composition::advanced_composition(per, 0.0, k, 1e-6);
        prop_assert!(back <= total + 1e-6, "forward({per}) = {back} > {total}");
    }
}
