//! Workspace-level verification of the Theorem 1 proof machinery against
//! the *full* Algorithm 1 pipeline (encoder → propagation → calibration →
//! perturbation → optimization), not just against synthetic `Z` matrices.
//!
//! These tests construct genuine edge-level neighboring datasets `D`/`D'`
//! (Definition 2), push both through the real pipeline, and check the
//! Lemma 7 / Lemma 8 inequalities with the *calibrated* `c_θ` and
//! `Λ̄ + Λ′` of `TheoremOneParams` — i.e. exactly the quantities the
//! privacy proof manipulates.

use gcon::core::loss::ConvexLoss;
use gcon::core::propagation::{concat_features, propagate};
use gcon::core::verify::{
    exact_r_infinity, lemma7_check, lemma8_check, noise_from_theta, psi_observed,
};
use gcon::core::{GconConfig, PropagationStep, TheoremOneParams};
use gcon::graph::normalize::row_stochastic_default;
use gcon::graph::Graph;
use gcon::linalg::Mat;
use gcon::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small labeled problem with its aggregate features on `D` and on the
/// neighbor `D'` obtained by deleting one uniformly random edge.
struct NeighborPair {
    z: Mat,
    z_prime: Mat,
    y: Mat,
    alpha: f64,
    steps: Vec<PropagationStep>,
}

fn build_pair(seed: u64, alpha: f64, steps: Vec<PropagationStep>) -> NeighborPair {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 30;
    let g = gcon::graph::generators::erdos_renyi_gnm(n, 70, &mut rng);
    let edges = g.edges();
    let (u, v) = edges[rng.gen_range(0..edges.len())];
    let g_prime = g.with_edge_removed(u, v);

    let mut x = Mat::uniform(n, 6, 1.0, &mut rng);
    x.normalize_rows_l2();
    let c = 4;
    let mut y = Mat::zeros(n, c);
    for i in 0..n {
        y.set(i, i % c, 1.0);
    }

    let z = concat_features(&row_stochastic_default(&g), &x, alpha, &steps);
    let z_prime = concat_features(&row_stochastic_default(&g_prime), &x, alpha, &steps);
    NeighborPair { z, z_prime, y, alpha, steps }
}

fn calibrated(pair: &NeighborPair, eps: f64, lambda: f64) -> (TheoremOneParams, ConvexLoss) {
    let c = pair.y.cols();
    let loss = ConvexLoss::new(gcon::core::LossKind::MultiLabelSoftMargin, c);
    let psi = gcon::core::sensitivity::psi_z(pair.alpha, &pair.steps);
    let params = TheoremOneParams::compute(&gcon::core::params::CalibrationInput {
        eps,
        delta: 1e-4,
        omega: 0.9,
        lambda,
        n1: pair.z.rows(),
        num_classes: c,
        dim: pair.z.cols(),
        bounds: loss.bounds(),
        psi,
    });
    (params, loss)
}

#[test]
fn lemma7_holds_with_calibrated_parameters() {
    // Sample Θ with columns inside the calibrated c_θ ball (case (i) of the
    // proof) and check both Lemma 7 inequalities over several graphs.
    for seed in [1u64, 7, 42] {
        let pair = build_pair(seed, 0.5, vec![PropagationStep::Finite(2)]);
        let (params, loss) = calibrated(&pair, 1.0, 0.2);
        let d = pair.z.cols();
        let c = pair.y.cols();
        let mut rng = StdRng::seed_from_u64(seed + 999);
        // Scale columns to 90% of c_θ (the worst case the lemma covers).
        let mut theta: Mat = Mat::gaussian(d, c, 1.0, &mut rng);
        for j in 0..c {
            let norm: f64 = (0..d).map(|i| theta.get(i, j).powi(2)).sum::<f64>().sqrt();
            let target = 0.9 * params.c_theta.min(10.0);
            for i in 0..d {
                let v = theta.get(i, j) / norm * target;
                theta.set(i, j, v);
            }
        }
        for j in 0..c {
            let chk = lemma7_check(
                &pair.z,
                &pair.z_prime,
                &pair.y,
                &loss,
                params.lambda_total(),
                &theta,
                j,
            );
            assert!(
                chk.holds(1e-9),
                "seed {seed} class {j}: sv {} ≤ {}? lndet {} ≤ {}?",
                chk.sv_sum,
                chk.sv_bound,
                chk.ln_det_ratio,
                chk.ln_det_bound
            );
        }
    }
}

#[test]
fn lemma7_determinant_budget_covers_full_block_jacobian() {
    // The full Jacobian is block diagonal over classes (Eq. 46), so the
    // total log-determinant ratio is the sum over classes — and Theorem 1
    // reserves ε_Λ (Eq. 24) for it. Check measured total ≤ ε_Λ.
    let pair = build_pair(3, 0.6, vec![PropagationStep::Finite(2)]);
    let (params, loss) = calibrated(&pair, 1.0, 0.2);
    let d = pair.z.cols();
    let c = pair.y.cols();
    let mut rng = StdRng::seed_from_u64(77);
    let mut theta: Mat = Mat::gaussian(d, c, 0.1, &mut rng);
    // Keep ‖θ_j‖ well inside c_θ.
    let cap = params.c_theta.min(1.0);
    for j in 0..c {
        let norm: f64 = (0..d).map(|i| theta.get(i, j).powi(2)).sum::<f64>().sqrt();
        if norm > cap {
            for i in 0..d {
                let v = theta.get(i, j) / norm * cap;
                theta.set(i, j, v);
            }
        }
    }
    let mut total_ln_ratio = 0.0;
    for j in 0..c {
        let chk =
            lemma7_check(&pair.z, &pair.z_prime, &pair.y, &loss, params.lambda_total(), &theta, j);
        total_ln_ratio += chk.ln_det_ratio;
    }
    assert!(
        total_ln_ratio <= params.eps_lambda + 1e-9,
        "total log det ratio {total_ln_ratio} exceeds ε_Λ = {}",
        params.eps_lambda
    );
}

#[test]
fn lemma8_density_exponent_fits_remaining_budget() {
    // Lemma 8: μ(B|D)/μ(B'|D') ≤ exp(c(c₁+c₂c_θ)Ψβ) with the calibrated β —
    // and Eq. 18 sets β so that exponent ≤ max(ε−ε_Λ, ωε). Check that the
    // *measured* per-class noise shift times β stays within that budget.
    for seed in [11u64, 12, 13] {
        let pair = build_pair(seed, 0.5, vec![PropagationStep::Finite(3)]);
        let (params, loss) = calibrated(&pair, 2.0, 0.2);
        let d = pair.z.cols();
        let c = pair.y.cols();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut theta: Mat = Mat::gaussian(d, c, 0.05, &mut rng);
        let cap = params.c_theta.min(0.5);
        for j in 0..c {
            let norm: f64 = (0..d).map(|i| theta.get(i, j).powi(2)).sum::<f64>().sqrt();
            if norm > cap {
                for i in 0..d {
                    let v = theta.get(i, j) / norm * cap;
                    theta.set(i, j, v);
                }
            }
        }
        let mut total_shift = 0.0;
        for j in 0..c {
            let chk = lemma8_check(
                &pair.z,
                &pair.z_prime,
                &pair.y,
                &loss,
                params.lambda_total(),
                &theta,
                j,
            );
            assert!(chk.holds(1e-9), "seed {seed} class {j}");
            total_shift += chk.noise_shift;
        }
        // Σ_j β‖b′_j − b_j‖ bounds the log density ratio of the full B.
        let log_ratio_cap = params.beta * total_shift;
        let budget = (2.0 - params.eps_lambda).max(0.9 * 2.0);
        assert!(
            log_ratio_cap <= budget + 1e-9,
            "seed {seed}: β·Σshift = {log_ratio_cap} > budget {budget}"
        );
    }
}

#[test]
fn end_to_end_privacy_loss_bounded_by_epsilon() {
    // The headline DP inequality, measured: fix one noise draw B, train on
    // D; the same Θ_priv arises on D' under noise B' = noise_from_theta(Z').
    // The log ratio of the two noise densities plus the log Jacobian ratio
    // must not exceed ε (Eq. 41 + 45), for Θ within the c_θ ball.
    let eps = 2.0;
    let pair = build_pair(21, 0.5, vec![PropagationStep::Finite(2)]);
    let (params, loss) = calibrated(&pair, eps, 0.5);
    let d = pair.z.cols();
    let c = pair.y.cols();

    // Train on D with real sampled noise.
    let mut rng = StdRng::seed_from_u64(500);
    let b = gcon::core::noise::sample_noise_matrix(d, c, params.beta, &mut rng);
    let obj = gcon::core::objective::PerturbedObjective::new(
        &pair.z,
        &pair.y,
        ConvexLoss::new(gcon::core::LossKind::MultiLabelSoftMargin, c),
        params.lambda_total(),
        &b,
    );
    let opt = gcon::core::model::OptimizerConfig { grad_tol: 1e-10, ..Default::default() };
    let (theta, _, grad_norm) = gcon::core::train::minimize(&obj, Mat::zeros(d, c), &opt);
    assert!(grad_norm <= 1e-10, "optimizer did not converge: {grad_norm}");

    // Case (i) of the proof only covers ‖θ_j‖ ≤ c_θ: confirm we are in it.
    for j in 0..c {
        let norm: f64 = (0..d).map(|i| theta.get(i, j).powi(2)).sum::<f64>().sqrt();
        assert!(norm <= params.c_theta, "θ_{j} outside the c_θ ball");
    }

    // The matching noise on D'.
    let b_prime = noise_from_theta(&pair.z_prime, &pair.y, &loss, params.lambda_total(), &theta);
    let b_check = noise_from_theta(&pair.z, &pair.y, &loss, params.lambda_total(), &theta);

    // Stationarity roundtrip sanity: B recovered on D matches the sampled B.
    for i in 0..d {
        for j in 0..c {
            assert!(
                (b_check.get(i, j) - b.get(i, j)).abs() < 1e-5,
                "stationarity roundtrip failed at ({i},{j})"
            );
        }
    }

    // log density ratio of the Erlang-radius noise: β(‖B'‖ column norms − ‖B‖).
    let mut log_density_ratio = 0.0;
    for j in 0..c {
        let nb: f64 = (0..d).map(|i| b.get(i, j).powi(2)).sum::<f64>().sqrt();
        let nbp: f64 = (0..d).map(|i| b_prime.get(i, j).powi(2)).sum::<f64>().sqrt();
        log_density_ratio += params.beta * (nbp - nb);
    }

    // log Jacobian determinant ratio, summed over the class blocks.
    let mut log_jac_ratio = 0.0;
    for j in 0..c {
        let chk =
            lemma7_check(&pair.z, &pair.z_prime, &pair.y, &loss, params.lambda_total(), &theta, j);
        log_jac_ratio += chk.ln_det_ratio;
    }

    let total = log_density_ratio + log_jac_ratio;
    assert!(
        total <= eps + 1e-9,
        "measured privacy loss {total} exceeds ε = {eps} \
         (density {log_density_ratio}, jacobian {log_jac_ratio})"
    );
}

#[test]
fn exact_ppr_agrees_with_pipeline_on_dataset_graph() {
    // Cross-validate the production fixed-point PPR against the dense
    // α(I−(1−α)Ã)⁻¹ on a real generated dataset graph (small slice).
    let mut rng = StdRng::seed_from_u64(9);
    let g = gcon::graph::generators::erdos_renyi_gnm(40, 90, &mut rng);
    let a = row_stochastic_default(&g);
    let mut x = Mat::uniform(40, 8, 1.0, &mut rng);
    x.normalize_rows_l2();
    let alpha = 0.4;
    let z_iter = propagate(&a, &x, alpha, PropagationStep::Infinite);
    let z_exact = gcon::linalg::ops::matmul(&exact_r_infinity(&a, alpha), &x);
    let diff = gcon::linalg::ops::sub(&z_iter, &z_exact).max_abs();
    assert!(diff < 1e-7, "fixed point vs dense inverse differ by {diff}");
}

#[test]
fn psi_observed_from_full_pipeline_respects_lemma2() {
    // The measured ψ(Z) across D/D' never exceeds the closed form Ψ(Z),
    // including multi-scale concatenation (Eq. 26).
    for seed in [31u64, 32, 33, 34] {
        let steps = vec![PropagationStep::Finite(1), PropagationStep::Finite(5)];
        let pair = build_pair(seed, 0.3, steps.clone());
        let measured = psi_observed(&pair.z, &pair.z_prime);
        let cap = gcon::core::sensitivity::psi_z(0.3, &steps);
        assert!(measured <= cap + 1e-9, "seed {seed}: ψ {measured} > Ψ {cap}");
    }
}

#[test]
fn full_training_on_neighboring_graphs_stays_in_theta_ball() {
    // Lemma 9's complement event: with the calibrated noise the trained
    // columns stay inside c_θ with overwhelming probability — check over a
    // handful of seeds on both D and D'.
    let dataset = gcon::datasets::two_moons_graph(5);
    let mut cfg = GconConfig::default();
    cfg.encoder.epochs = 40;
    cfg.optimizer.max_iters = 400;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = train_gcon(
            &cfg,
            &dataset.graph,
            &dataset.features,
            &dataset.labels,
            &dataset.split.train,
            dataset.num_classes,
            1.0,
            dataset.default_delta(),
            &mut rng,
        );
        let c_theta = model.report.params.c_theta;
        let d = model.theta.rows();
        for j in 0..model.theta.cols() {
            let norm: f64 = (0..d).map(|i| model.theta.get(i, j).powi(2)).sum::<f64>().sqrt();
            assert!(
                norm <= c_theta + 1e-9,
                "seed {seed}: ‖θ_{j}‖ = {norm} escaped c_θ = {c_theta}"
            );
        }
    }
}

#[test]
fn graph_edit_roundtrip_preserves_features_sensitivity_zero() {
    // Removing then re-adding the same edge gives back the same graph, so
    // ψ(Z) must be exactly 0 — guards the neighboring-dataset machinery.
    let mut rng = StdRng::seed_from_u64(55);
    let g = gcon::graph::generators::erdos_renyi_gnm(20, 40, &mut rng);
    let (u, v) = g.edges()[0];
    let g2 = g.with_edge_removed(u, v).with_edge_added(u, v);
    let mut x = Mat::uniform(20, 4, 1.0, &mut rng);
    x.normalize_rows_l2();
    let z1 = propagate(&row_stochastic_default(&g), &x, 0.5, PropagationStep::Finite(3));
    let z2 = propagate(&row_stochastic_default(&g2), &x, 0.5, PropagationStep::Finite(3));
    assert_eq!(psi_observed(&z1, &z2), 0.0);
}

#[test]
fn neighboring_by_addition_also_respects_lemma2() {
    // Definition 2 is symmetric: D' may have one edge MORE. Check ψ ≤ Ψ for
    // edge additions too.
    let mut rng = StdRng::seed_from_u64(65);
    let g = gcon::graph::generators::erdos_renyi_gnm(25, 50, &mut rng);
    // Find a non-edge.
    let (u, v) = {
        let mut found = None;
        'outer: for u in 0..25u32 {
            for v in (u + 1)..25u32 {
                if !g.has_edge(u, v) {
                    found = Some((u, v));
                    break 'outer;
                }
            }
        }
        found.expect("graph is not complete")
    };
    let g_prime = g.with_edge_added(u, v);
    let mut x = Mat::uniform(25, 5, 1.0, &mut rng);
    x.normalize_rows_l2();
    for &(alpha, m) in &[(0.4, 2usize), (0.7, 6)] {
        let z = propagate(&row_stochastic_default(&g), &x, alpha, PropagationStep::Finite(m));
        let zp =
            propagate(&row_stochastic_default(&g_prime), &x, alpha, PropagationStep::Finite(m));
        let measured = psi_observed(&z, &zp);
        let cap = gcon::core::sensitivity::psi_zm(alpha, PropagationStep::Finite(m));
        assert!(measured <= cap + 1e-9, "α={alpha} m={m}: {measured} > {cap}");
    }
}

#[test]
fn star_graph_is_the_stress_case_for_lemma1_columns() {
    // A star's hub column sum is the worst case of Lemma 1's third bullet.
    // Verify Lemma 2 still caps ψ when the removed edge touches the hub.
    let n = 15;
    let g = {
        let mut g = Graph::empty(n);
        for v in 1..n as u32 {
            g.add_edge(0, v);
        }
        g
    };
    let g_prime = g.with_edge_removed(0, 1);
    let mut rng = StdRng::seed_from_u64(75);
    let mut x = Mat::uniform(n, 4, 1.0, &mut rng);
    x.normalize_rows_l2();
    for &alpha in &[0.2, 0.5, 0.8] {
        for &m in &[1usize, 3, 8] {
            let z = propagate(&row_stochastic_default(&g), &x, alpha, PropagationStep::Finite(m));
            let zp =
                propagate(&row_stochastic_default(&g_prime), &x, alpha, PropagationStep::Finite(m));
            let measured = psi_observed(&z, &zp);
            let cap = gcon::core::sensitivity::psi_zm(alpha, PropagationStep::Finite(m));
            assert!(measured <= cap + 1e-9, "star α={alpha} m={m}: ψ {measured} > Ψ {cap}");
        }
    }
}
