//! Empirical privacy-machinery checks across crates: Lemma 2's closed-form
//! sensitivity dominates measured sensitivities on benchmark-like graphs,
//! and the end-to-end pipeline's intermediate quantities respect the bounds
//! the Theorem 1 proof relies on.

use gcon::core::propagation::{concat_features, PropagationStep};
use gcon::core::sensitivity::psi_z;
use gcon::graph::normalize::row_stochastic_default;
use gcon::linalg::reduce::{psi_row_distance, row_norms2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lemma 2 on a real benchmark stand-in: remove random edges from the
/// Cora-ML graph and verify ψ(Z) ≤ Ψ(Z) for the multi-scale features.
#[test]
fn lemma2_bound_on_cora_like_graph() {
    let dataset = gcon::datasets::cora_ml(0.08, 23);
    let mut x = dataset.features.to_dense();
    x.normalize_rows_l2();
    let steps = [PropagationStep::Finite(2), PropagationStep::Infinite];
    let alpha = 0.4;
    let a = row_stochastic_default(&dataset.graph);
    let z = concat_features(&a, &x, alpha, &steps);
    let bound = psi_z(alpha, &steps);
    let edges = dataset.graph.edges();
    let mut rng = StdRng::seed_from_u64(24);
    let mut max_psi: f64 = 0.0;
    for _ in 0..6 {
        let (u, v) = edges[rng.gen_range(0..edges.len())];
        let gp = dataset.graph.with_edge_removed(u, v);
        let zp = concat_features(&row_stochastic_default(&gp), &x, alpha, &steps);
        let psi = psi_row_distance(&z, &zp);
        max_psi = max_psi.max(psi);
        assert!(psi <= bound + 1e-8, "ψ {psi} > Ψ {bound}");
    }
    assert!(max_psi > 0.0, "edge removals should actually change Z");
}

/// The ‖z_i‖ ≤ 1 invariant the c_θ analysis (Lemma 9) relies on: rows of
/// the concatenated features keep unit-bounded norms after propagation.
#[test]
fn feature_rows_stay_unit_bounded_through_pipeline() {
    let dataset = gcon::datasets::citeseer(0.08, 25);
    let mut x = dataset.features.to_dense();
    x.normalize_rows_l2();
    let a = row_stochastic_default(&dataset.graph);
    for steps in [
        vec![PropagationStep::Finite(1)],
        vec![PropagationStep::Finite(5), PropagationStep::Infinite],
        vec![PropagationStep::Finite(0), PropagationStep::Finite(2), PropagationStep::Finite(10)],
    ] {
        let z = concat_features(&a, &x, 0.3, &steps);
        for n in row_norms2(&z) {
            assert!(n <= 1.0 + 1e-9, "row norm {n} > 1 for steps {steps:?}");
        }
    }
}

/// The ‖θ_j‖ ≤ c_θ high-probability bound (Lemma 9): trained parameter
/// columns should respect the calibrated c_θ (violation probability ≤ δ;
/// with δ = 1e-3 over a handful of runs a violation would be a red flag).
#[test]
fn trained_theta_columns_respect_c_theta() {
    use gcon::prelude::*;
    let dataset = gcon::datasets::two_moons_graph(27);
    let mut cfg = GconConfig::default();
    cfg.encoder.epochs = 40;
    cfg.optimizer.max_iters = 500;
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(700 + seed);
        let model = train_gcon(
            &cfg,
            &dataset.graph,
            &dataset.features,
            &dataset.labels,
            &dataset.split.train,
            dataset.num_classes,
            1.0,
            1e-3,
            &mut rng,
        );
        let c_theta = model.report.params.c_theta;
        for j in 0..dataset.num_classes {
            let col = model.theta.col(j);
            let norm = gcon::linalg::vecops::norm2(&col);
            assert!(
                norm <= c_theta + 1e-9,
                "‖θ_{j}‖ = {norm} exceeds c_θ = {c_theta} (seed {seed})"
            );
        }
    }
}

/// Erlang-radius noise: the fraction of columns whose β‖b‖ exceeds c_sf
/// should be ≤ δ/c by construction (Eq. 21) — checked by Monte Carlo.
#[test]
fn noise_radius_exceeds_csf_with_probability_at_most_delta_over_c() {
    use gcon::core::noise::sample_noise_matrix;
    use gcon::dp::special::reg_gamma_p_inverse;
    let (d, c) = (24usize, 4usize);
    let delta = 0.05; // large δ so the Monte Carlo estimate is meaningful
    let beta = 1.7;
    let csf = reg_gamma_p_inverse(d as f64, 1.0 - delta / c as f64);
    let mut rng = StdRng::seed_from_u64(29);
    let trials = 4000;
    let mut exceed = 0usize;
    for _ in 0..trials {
        let b = sample_noise_matrix(d, c, beta, &mut rng);
        for j in 0..c {
            let norm = gcon::linalg::vecops::norm2(&b.col(j));
            if beta * norm > csf {
                exceed += 1;
            }
        }
    }
    let rate = exceed as f64 / (trials * c) as f64;
    let target = delta / c as f64;
    assert!(rate <= target * 1.3 + 0.002, "exceed rate {rate} vs design target {target}");
}
