//! Failure-injection tests: every documented precondition across the public
//! API must reject bad input loudly (panic or `Err`), never silently produce
//! garbage — in a DP system a silent fallback is a privacy bug, not a
//! robustness feature.

use gcon::core::propagation::{propagate, PropagationStep};
use gcon::core::{GconConfig, LossKind};
use gcon::graph::normalize::{general_r, row_stochastic};
use gcon::graph::Graph;
use gcon::linalg::lu::Lu;
use gcon::linalg::Mat;

// ---------------------------------------------------------------- config

#[test]
fn config_rejects_zero_alpha() {
    let cfg = GconConfig { alpha: 0.0, ..GconConfig::default() };
    assert!(cfg.validate().unwrap_err().contains("restart probability"));
}

#[test]
fn config_rejects_alpha_above_one() {
    let cfg = GconConfig { alpha: 1.5, ..GconConfig::default() };
    assert!(cfg.validate().is_err());
}

#[test]
fn config_rejects_empty_steps() {
    let cfg = GconConfig { steps: vec![], ..GconConfig::default() };
    assert!(cfg.validate().unwrap_err().contains("propagation step"));
}

#[test]
fn config_rejects_non_positive_lambda() {
    for lambda in [0.0, -1.0, f64::NAN] {
        let cfg = GconConfig { lambda, ..GconConfig::default() };
        assert!(cfg.validate().is_err(), "Λ = {lambda} must be rejected");
    }
}

#[test]
fn config_rejects_omega_at_boundaries() {
    for omega in [0.0, 1.0, -0.1, 1.1] {
        let cfg = GconConfig { omega, ..GconConfig::default() };
        assert!(cfg.validate().is_err(), "ω = {omega} must be rejected");
    }
}

#[test]
fn config_rejects_degenerate_pseudo_huber() {
    // δ_l = ∞ zeroes the loss bounds Theorem 1's calibration divides by.
    for delta in [0.0, f64::INFINITY, f64::NAN] {
        let cfg = GconConfig { loss: LossKind::PseudoHuber { delta }, ..GconConfig::default() };
        assert!(cfg.validate().unwrap_err().contains("pseudo-Huber"), "δ_l = {delta}");
    }
}

#[test]
fn config_rejects_nan_omega_and_alpha() {
    assert!(GconConfig { omega: f64::NAN, ..GconConfig::default() }.validate().is_err());
    assert!(GconConfig { alpha: f64::NAN, ..GconConfig::default() }.validate().is_err());
}

#[test]
fn config_default_is_valid() {
    assert!(GconConfig::default().validate().is_ok());
}

// ------------------------------------------------------------ calibration

#[test]
#[should_panic(expected = "ε must be positive")]
fn calibration_rejects_zero_epsilon() {
    use gcon::core::loss::ConvexLoss;
    use gcon::core::params::{CalibrationInput, TheoremOneParams};
    let bounds = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3).bounds();
    let _ = TheoremOneParams::compute(&CalibrationInput {
        eps: 0.0,
        delta: 1e-4,
        omega: 0.9,
        lambda: 0.2,
        n1: 100,
        num_classes: 3,
        dim: 8,
        bounds,
        psi: 1.0,
    });
}

#[test]
#[should_panic(expected = "δ must lie in (0, 1)")]
fn calibration_rejects_delta_one() {
    use gcon::core::loss::ConvexLoss;
    use gcon::core::params::{CalibrationInput, TheoremOneParams};
    let bounds = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3).bounds();
    let _ = TheoremOneParams::compute(&CalibrationInput {
        eps: 1.0,
        delta: 1.0,
        omega: 0.9,
        lambda: 0.2,
        n1: 100,
        num_classes: 3,
        dim: 8,
        bounds,
        psi: 1.0,
    });
}

// ------------------------------------------------------------- propagation

#[test]
#[should_panic(expected = "restart probability")]
fn propagate_rejects_alpha_zero() {
    let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
    let a = gcon::graph::normalize::row_stochastic_default(&g);
    let x = Mat::zeros(3, 2);
    let _ = propagate(&a, &x, 0.0, PropagationStep::Finite(1));
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn propagate_rejects_mismatched_rows() {
    let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
    let a = gcon::graph::normalize::row_stochastic_default(&g);
    let x = Mat::zeros(5, 2); // 5 rows vs 3-node graph
    let _ = propagate(&a, &x, 0.5, PropagationStep::Finite(1));
}

// ------------------------------------------------------------- graph edits

#[test]
#[should_panic(expected = "not present")]
fn removing_missing_edge_panics() {
    let g = Graph::from_edges(3, &[(0, 1)]);
    let _ = g.with_edge_removed(1, 2);
}

#[test]
#[should_panic(expected = "already present")]
fn adding_duplicate_edge_panics() {
    let g = Graph::from_edges(3, &[(0, 1)]);
    let _ = g.with_edge_added(0, 1);
}

#[test]
fn self_loop_silently_ignored_keeps_graph_simple() {
    // The paper's Â = A + I adds self-loops in *normalization* only; the raw
    // edge set stays simple — add_edge refuses loops rather than storing one.
    let mut g = Graph::empty(3);
    assert!(!g.add_edge(1, 1));
    assert_eq!(g.num_edges(), 0);
    assert!(!g.has_edge(1, 1));
}

// ---------------------------------------------------------- normalization

#[test]
#[should_panic(expected = "clip p must lie in (0, 0.5]")]
fn clip_p_out_of_range_panics() {
    let g = Graph::from_edges(3, &[(0, 1)]);
    let _ = row_stochastic(&g, 0.7);
}

#[test]
#[should_panic(expected = "must lie in [0, 1]")]
fn general_r_negative_panics() {
    let g = Graph::from_edges(3, &[(0, 1)]);
    let _ = general_r(&g, -0.1);
}

// -------------------------------------------------------------- objective

#[test]
#[should_panic(expected = "Z/Y row mismatch")]
fn objective_rejects_mismatched_labels() {
    use gcon::core::loss::ConvexLoss;
    use gcon::core::objective::PerturbedObjective;
    let z = Mat::zeros(4, 3);
    let y = Mat::zeros(5, 2);
    let b = Mat::zeros(3, 2);
    let _ = PerturbedObjective::new(
        &z,
        &y,
        ConvexLoss::new(LossKind::MultiLabelSoftMargin, 2),
        0.5,
        &b,
    );
}

#[test]
#[should_panic(expected = "B rows must equal d")]
fn objective_rejects_wrong_noise_shape() {
    use gcon::core::loss::ConvexLoss;
    use gcon::core::objective::PerturbedObjective;
    let z = Mat::zeros(4, 3);
    let y = Mat::zeros(4, 2);
    let b = Mat::zeros(7, 2);
    let _ = PerturbedObjective::new(
        &z,
        &y,
        ConvexLoss::new(LossKind::MultiLabelSoftMargin, 2),
        0.5,
        &b,
    );
}

#[test]
#[should_panic(expected = "Λ̄+Λ′ must be positive")]
fn objective_rejects_zero_lambda() {
    use gcon::core::loss::ConvexLoss;
    use gcon::core::objective::PerturbedObjective;
    let z = Mat::zeros(4, 3);
    let y = Mat::zeros(4, 2);
    let b = Mat::zeros(3, 2);
    let _ = PerturbedObjective::new(
        &z,
        &y,
        ConvexLoss::new(LossKind::MultiLabelSoftMargin, 2),
        0.0,
        &b,
    );
}

// ------------------------------------------------------------------ noise

#[test]
#[should_panic(expected = "β must be positive")]
fn noise_sampling_rejects_zero_beta() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0);
    let _ = gcon::core::noise::sample_noise_matrix(4, 2, 0.0, &mut rng);
}

#[test]
#[should_panic(expected = "degenerate shape")]
fn noise_sampling_rejects_empty_shape() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0);
    let _ = gcon::core::noise::sample_noise_matrix(0, 2, 1.0, &mut rng);
}

// ----------------------------------------------------------------- linalg

#[test]
#[should_panic(expected = "square")]
fn lu_rejects_rectangular() {
    let _ = Lu::new(&Mat::zeros(3, 4));
}

#[test]
fn lu_reports_singularity_instead_of_garbage() {
    // A singular system must answer None, not a denormal-filled solution.
    let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
    assert!(Lu::new(&a).solve(&[1.0, 2.0]).is_none());
}

#[test]
#[should_panic]
fn mat_from_vec_wrong_len_panics() {
    let _ = Mat::from_vec(2, 3, vec![1.0; 5]);
}

#[test]
#[should_panic]
fn matmul_dimension_mismatch_panics() {
    let a: Mat = Mat::zeros(2, 3);
    let b: Mat = Mat::zeros(4, 2);
    let _ = gcon::linalg::ops::matmul(&a, &b);
}

// -------------------------------------------------------------- datasets

#[test]
fn nan_features_are_caught_by_is_finite_guard() {
    // The pipeline normalizes features; a NaN row would propagate. The Mat
    // API exposes the guard callers use before training.
    let mut x = Mat::zeros(3, 2);
    x.set(1, 1, f64::NAN);
    assert!(!x.is_finite());
    x.set(1, 1, 0.0);
    assert!(x.is_finite());
}

#[test]
fn zero_feature_rows_survive_l2_normalization() {
    // normalize_rows_l2 must not divide by zero on an all-zero row.
    let mut x: Mat = Mat::zeros(2, 3);
    x.set(0, 0, 3.0);
    x.normalize_rows_l2();
    assert!(x.is_finite());
    assert!((x.get(0, 0) - 1.0).abs() < 1e-12);
    for v in x.row(1) {
        assert_eq!(*v, 0.0);
    }
}
