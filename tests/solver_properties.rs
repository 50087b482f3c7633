//! Property tests for the PPR power solver: across random Erdős–Rényi
//! graphs and restart probabilities, the fixed point of the recursion must
//! match the exact dense limit `α (I − (1−α)Ã)⁻¹ X`, and propagating a
//! feature block must equal propagating each column on its own.

use gcon::core::propagation::{ppr_staleness_bound, propagate, propagate_multi, PropagationStep};
use gcon::graph::normalize::row_stochastic_default;
use gcon::linalg::lu::Lu;
use gcon::linalg::{ops, Mat};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_problem(seed: u64, n: usize, d: usize) -> (gcon::graph::Csr, Mat) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (3 * n).min(n * (n - 1) / 2);
    let g = gcon::graph::generators::erdos_renyi_gnm(n, m, &mut rng);
    let a = row_stochastic_default(&g);
    let mut x = Mat::uniform(n, d, 1.0, &mut rng);
    x.normalize_rows_l2();
    (a, x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `propagate(…, Infinite)` reaches the exact dense PPR limit (Eq. 5),
    /// solved by LU, to well within its certified tolerance.
    #[test]
    fn power_propagation_matches_dense_lu_reference(
        seed in 0u64..500,
        n in 10usize..50,
        alpha in 0.05f64..0.9,
    ) {
        let (a, x) = random_problem(seed, n, 3);
        let power = propagate(&a, &x, alpha, PropagationStep::Infinite);
        let mut system = Mat::eye(n);
        ops::add_scaled_assign(&mut system, -(1.0 - alpha), &a.to_dense());
        let exact = Lu::new(&system).solve_mat(&x).expect("Lemma 3: invertible");
        for (u, v) in power.as_slice().iter().zip(exact.as_slice()) {
            prop_assert!((u - alpha * v).abs() < 1e-8, "α={alpha}: {u} vs {}", alpha * v);
        }
    }

    /// Propagating a block of columns is column-for-column the propagation
    /// of each column alone: bitwise on the finite scale (the sparse kernel
    /// never mixes columns), and within the two certificates on the `∞`
    /// scale (the block stops on its worst column).
    #[test]
    fn block_propagation_matches_per_column_propagation(
        seed in 0u64..500,
        n in 10usize..60,
        d in 1usize..6,
        alpha in 0.05f64..0.9,
        m in 0usize..6,
    ) {
        let (a, x) = random_problem(seed, n, d);
        let steps = [PropagationStep::Finite(m), PropagationStep::Infinite];
        let block = propagate_multi(&a, &x, alpha, &steps);
        for j in 0..d {
            let col = Mat::from_fn(n, 1, |i, _| x.get(i, j));
            let alone = propagate_multi(&a, &col, alpha, &steps);
            for i in 0..n {
                prop_assert_eq!(
                    block.get(i, j).to_bits(),
                    alone.get(i, 0).to_bits(),
                    "finite scale, ({}, {})", i, j
                );
            }
            let z_block = Mat::from_fn(n, 1, |i, _| block.get(i, d + j));
            let z_alone = Mat::from_fn(n, 1, |i, _| alone.get(i, 1));
            let allowed = ppr_staleness_bound(&a, &col, alpha, &z_block)
                + ppr_staleness_bound(&a, &col, alpha, &z_alone);
            for i in 0..n {
                let gap = (z_block.get(i, 0) - z_alone.get(i, 0)).abs();
                prop_assert!(gap <= allowed, "∞ scale, ({i}, {j}): {gap} > {allowed}");
            }
        }
    }
}
