//! Property-based tests (proptest) for the paper's key invariants, run over
//! randomized graphs, budgets and hyperparameters.

#![allow(clippy::needless_range_loop)] // index-parallel loops mirror the math
use gcon::core::loss::{ConvexLoss, LossKind};
use gcon::core::params::{CalibrationInput, TheoremOneParams};
use gcon::core::propagation::{propagate, PropagationStep};
use gcon::core::sensitivity::{psi_z, psi_zm};
use gcon::dp::special::{reg_gamma_p, reg_gamma_p_inverse};
use gcon::graph::generators::erdos_renyi_gnm;
use gcon::graph::normalize::row_stochastic;
use gcon::linalg::Mat;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 1, bullets 1–2: every entry of Ã (and of the implied R_m via
    /// Z_m on constant input) is non-negative and rows sum to 1, for any
    /// clip p ∈ (0, 0.5].
    #[test]
    fn lemma1_row_stochasticity(
        seed in 0u64..1000,
        n in 5usize..40,
        p_clip in 0.05f64..0.5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_gnm(n, n * 2, &mut rng);
        let a = row_stochastic(&g, p_clip);
        for i in 0..n {
            let (_, vals) = a.row(i);
            for &v in vals {
                prop_assert!(v >= -1e-15, "negative entry {v}");
            }
        }
        for s in a.row_sums() {
            prop_assert!((s - 1.0).abs() < 1e-12, "row sum {s}");
        }
    }

    /// Lemma 1, bullet 3: the column sums of Ã^m stay ≤ max((k_i+1)p, 1)
    /// for every power m — checked by propagating indicator columns.
    #[test]
    fn lemma1_column_bound_for_powers(
        seed in 0u64..500,
        n in 4usize..20,
        m in 1usize..6,
        p_clip in 0.1f64..0.5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_gnm(n, n * 2, &mut rng);
        let a = row_stochastic(&g, p_clip);
        // Column sums of Ã^m = row vector 1ᵀ Ã^m; compute by repeated
        // vector products on the transpose action: 1ᵀÃ = col_sums(Ã).
        let mut col = a.col_sums();
        for _ in 1..m {
            // next_col[j] = Σ_i col[i]·Ã_ij
            let mut next = vec![0.0; n];
            for i in 0..n {
                let (cols, vals) = a.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    next[j as usize] += col[i] * v;
                }
            }
            col = next;
        }
        for (i, &s) in col.iter().enumerate() {
            let bound = ((g.degree(i as u32) as f64 + 1.0) * p_clip).max(1.0);
            prop_assert!(s <= bound + 1e-9, "col {i}: {s} > {bound}");
        }
    }

    /// Ψ(Z_m) is monotone in m, bounded by 2(1−α)/α, and Ψ(Z) is the mean.
    #[test]
    fn psi_shape(alpha in 0.05f64..1.0, m in 0usize..40) {
        let v = psi_zm(alpha, PropagationStep::Finite(m));
        let vnext = psi_zm(alpha, PropagationStep::Finite(m + 1));
        let vinf = psi_zm(alpha, PropagationStep::Infinite);
        prop_assert!(v >= 0.0);
        prop_assert!(vnext >= v - 1e-12);
        prop_assert!(v <= vinf + 1e-12);
        let steps = [PropagationStep::Finite(m), PropagationStep::Infinite];
        let avg = psi_z(alpha, &steps);
        prop_assert!((avg - (v + vinf) / 2.0).abs() < 1e-12);
    }

    /// The Theorem 1 chain always yields a valid calibration: β > 0,
    /// Λ′ ≥ 0, c_θ > 0, and c_sf solving the Gamma-CDF inequality.
    #[test]
    fn theorem1_chain_valid(
        eps in 0.1f64..8.0,
        delta_exp in 2u32..8,
        omega in 0.5f64..0.99,
        lambda in 0.001f64..5.0,
        n1 in 50usize..5000,
        c in 2usize..10,
        d in 4usize..128,
        psi in 0.01f64..8.0,
    ) {
        let delta = 10f64.powi(-(delta_exp as i32));
        let bounds = ConvexLoss::new(LossKind::MultiLabelSoftMargin, c).bounds();
        let input = CalibrationInput {
            eps, delta, omega, lambda, n1, num_classes: c, dim: d, bounds, psi,
        };
        let p = TheoremOneParams::compute(&input);
        prop_assert!(p.beta > 0.0 && p.beta.is_finite());
        prop_assert!(p.lambda_prime >= 0.0);
        prop_assert!(p.c_theta > 0.0 && p.c_theta.is_finite());
        prop_assert!(p.lambda_eff >= lambda);
        // Eq. 21: P(d, c_sf) ≥ 1 − δ/c, and it is (near-)minimal.
        let target = 1.0 - delta / c as f64;
        prop_assert!(reg_gamma_p(d as f64, p.csf) >= target - 1e-9);
        prop_assert!(reg_gamma_p(d as f64, p.csf * 0.999) < target);
    }

    /// Gamma quantile round-trip over a wide range.
    #[test]
    fn gamma_quantile_roundtrip(a in 1.0f64..400.0, t in 0.01f64..0.999_999) {
        let u = reg_gamma_p_inverse(a, t);
        prop_assert!((reg_gamma_p(a, u) - t).abs() < 1e-7);
    }

    /// Propagation preserves convex-combination structure: outputs stay
    /// within the [min, max] range of each input column (Lemma 1 rows sum
    /// to 1 with non-negative weights).
    #[test]
    fn propagation_respects_input_range(
        seed in 0u64..300,
        n in 5usize..30,
        m in 0usize..8,
        alpha in 0.1f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_gnm(n, n * 2, &mut rng);
        let a = gcon::graph::normalize::row_stochastic_default(&g);
        let x = Mat::uniform(n, 3, 1.0, &mut rng);
        let z = propagate(&a, &x, alpha, PropagationStep::Finite(m));
        for j in 0..3 {
            let xcol = x.col(j);
            let lo = xcol.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xcol.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for &v in &z.col(j) {
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo},{hi}]");
            }
        }
    }

    /// Micro-F1 is always in [0, 1] and 1 iff predictions match.
    #[test]
    fn micro_f1_bounds(pred in proptest::collection::vec(0usize..5, 1..50)) {
        let gold: Vec<usize> = pred.iter().map(|&p| (p + 1) % 5).collect();
        let f1_wrong = gcon::datasets::metrics::micro_f1(&pred, &gold);
        let f1_right = gcon::datasets::metrics::micro_f1(&pred, &pred);
        prop_assert!((0.0..=1.0).contains(&f1_wrong));
        prop_assert_eq!(f1_right, 1.0);
    }
}
