#![allow(clippy::needless_range_loop)] // index-parallel loops mirror the math
//! Numerical verification of the Theorem 1 proof machinery.
//!
//! The paper's privacy argument (Appendix I–L) rests on a chain of matrix
//! inequalities that the production code *trusts* but never evaluates: the
//! Jacobian of the map `Θ_priv → B` is `−B_j` per column (Eq. 48), its
//! perturbation across neighboring graphs is `E_j` (Eq. 49), and Lemmas 7–9
//! bound the determinant ratio, the noise-density ratio and the tail event
//! respectively. This module makes every one of those objects computable on
//! small instances, so the test suite can check the closed-form bounds
//! *numerically* rather than trusting the algebra:
//!
//! - [`noise_from_theta`] — the inverse map `B(Θ)` of Eq. (40)/(47); at the
//!   trained `Θ_priv` it must reproduce the sampled noise (stationarity).
//! - [`hessian_block`] — `B_j = Σᵢ zᵢzᵢᵀ ℓ″(zᵢᵀθ_j; y_ij) + n₁(Λ̄+Λ′)I`
//!   (Eq. 48), the `j`-th diagonal block of the full Jacobian.
//! - [`hessian_perturbation`] — `E_j` of Eq. (49), the difference of the
//!   data-dependent parts across a neighboring feature matrix `Z'`.
//! - [`lemma7_check`] — evaluates both sides of the Lemma 7 inequalities:
//!   the singular-value sum `Σσᵢ(E_j) ≤ (2c₂ + c₃c_θ)ψ(Z)` and the
//!   determinant ratio `|det(B_j+E_j)|/|det(B_j)| ≤ (1 + …)^d`.
//! - [`lemma8_check`] — `‖b′_j − b_j‖₂ ≤ (c₁ + c₂c_θ)ψ(Z)`.
//! - [`exact_r_infinity`] — the dense `R_∞ = α(I − (1−α)Ã)⁻¹` of Eq. (5) via
//!   LU inversion, cross-validating the fixed-point recursion in
//!   [`crate::propagation`].
//!
//! Everything here is `O(n²)`–`O(n³)` dense math: it is meant for the test
//! and verification harness, not the training path.

use crate::loss::ConvexLoss;
use gcon_graph::Csr;
use gcon_linalg::eigen::singular_values;
use gcon_linalg::lu::Lu;
use gcon_linalg::{ops, Mat};

/// The inverse noise map of Eq. (40)/(47): given `Θ`, the noise matrix `B`
/// for which `Θ` is stationary for `L_priv(·; Z, Y)`:
///
/// ```text
/// b_j = −Σᵢ zᵢ ℓ′(zᵢᵀθ_j; y_ij) − n₁(Λ̄+Λ′) θ_j
/// ```
///
/// Shapes: `z` is `n₁ × d`, `y` is `n₁ × c`, `theta` is `d × c`; returns
/// `d × c`.
pub fn noise_from_theta(
    z: &Mat,
    y: &Mat,
    loss: &ConvexLoss,
    lambda_total: f64,
    theta: &Mat,
) -> Mat {
    assert_eq!(z.rows(), y.rows(), "noise_from_theta: Z/Y row mismatch");
    assert_eq!(z.cols(), theta.rows(), "noise_from_theta: Z/Θ dim mismatch");
    assert_eq!(y.cols(), theta.cols(), "noise_from_theta: Y/Θ class mismatch");
    let n1 = z.rows() as f64;
    let scores = ops::matmul(z, theta); // n₁ × c
    let mut dscores = Mat::zeros(scores.rows(), scores.cols());
    for i in 0..scores.rows() {
        let srow = scores.row(i);
        let yrow = y.row(i);
        let drow = dscores.row_mut(i);
        for ((d, &s), &yv) in drow.iter_mut().zip(srow).zip(yrow) {
            *d = loss.d1(s, yv);
        }
    }
    // −Zᵀ·ℓ′ − n₁λΘ
    let mut b = ops::t_matmul(z, &dscores);
    ops::add_scaled_assign(&mut b, n1 * lambda_total, theta);
    ops::scale(&b, -1.0)
}

/// The Hessian block `B_j` of Eq. (48) for class column `j`:
/// `Σᵢ zᵢzᵢᵀ ℓ″(zᵢᵀθ_j; y_ij) + n₁(Λ̄+Λ′) I_d`. The Jacobian of the map
/// `θ_j → b_j` is `−B_j`.
pub fn hessian_block(
    z: &Mat,
    y: &Mat,
    loss: &ConvexLoss,
    lambda_total: f64,
    theta: &Mat,
    j: usize,
) -> Mat {
    assert!(j < theta.cols(), "hessian_block: class index out of range");
    let n1 = z.rows();
    let d = z.cols();
    let theta_j = theta.col(j);
    let mut h = Mat::zeros(d, d);
    for i in 0..n1 {
        let zi = z.row(i);
        let s: f64 = zi.iter().zip(&theta_j).map(|(a, b)| a * b).sum();
        let w = loss.d2(s, y.get(i, j));
        for a in 0..d {
            let za = zi[a] * w;
            if za == 0.0 {
                continue;
            }
            for bcol in 0..d {
                h.add_at(a, bcol, za * zi[bcol]);
            }
        }
    }
    for a in 0..d {
        h.add_at(a, a, n1 as f64 * lambda_total);
    }
    h
}

/// The perturbation `E_j` of Eq. (49): the data-dependent part of the
/// Hessian on the neighboring features `Z'` minus the part on `Z`, at the
/// same `Θ`. (The regularizer cancels, so `B'_j = B_j + E_j`.)
pub fn hessian_perturbation(
    z: &Mat,
    z_prime: &Mat,
    y: &Mat,
    loss: &ConvexLoss,
    theta: &Mat,
    j: usize,
) -> Mat {
    assert_eq!(z.shape(), z_prime.shape(), "hessian_perturbation: Z/Z' shape mismatch");
    let h = hessian_block(z, y, loss, 0.0, theta, j);
    let hp = hessian_block(z_prime, y, loss, 0.0, theta, j);
    // lambda_total = 0 keeps only the data term; guard: hessian_block asserts
    // nothing about positivity of lambda, so 0.0 is fine here.
    ops::sub(&hp, &h)
}

/// The actual (not worst-case) row-wise feature distance
/// `ψ = Σᵢ ‖z′ᵢ − zᵢ‖₂` of Definition 3, evaluated on the *labeled* rows the
/// objective sums over.
pub fn psi_observed(z: &Mat, z_prime: &Mat) -> f64 {
    assert_eq!(z.shape(), z_prime.shape(), "psi_observed: shape mismatch");
    let mut psi = 0.0;
    for i in 0..z.rows() {
        let a = z.row(i);
        let b = z_prime.row(i);
        psi += a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
    }
    psi
}

/// Both sides of the two Lemma 7 inequalities for one class column.
#[derive(Debug, Clone, Copy)]
pub struct Lemma7Check {
    /// `Σᵢ σᵢ(E_j)` — the measured singular-value sum of the perturbation.
    pub sv_sum: f64,
    /// The closed-form cap `(2c₂ + c₃‖θ_j‖₂) ψ` on that sum (Eq. 56, with
    /// the *observed* `‖θ_j‖` in place of the worst-case `c_θ`).
    pub sv_bound: f64,
    /// `ln |det(B_j + E_j)| − ln |det(B_j)|` — the measured log determinant
    /// ratio of the Jacobians.
    pub ln_det_ratio: f64,
    /// The closed-form cap `d · ln(1 + sv_bound / (d n₁ (Λ̄+Λ′)))` (Eq. 57).
    pub ln_det_bound: f64,
}

impl Lemma7Check {
    /// True when both measured quantities respect their closed-form caps
    /// (up to `tol` slack for floating-point noise).
    pub fn holds(&self, tol: f64) -> bool {
        self.sv_sum <= self.sv_bound + tol && self.ln_det_ratio <= self.ln_det_bound + tol
    }
}

/// Evaluates the Lemma 7 inequalities numerically for class column `j`.
///
/// `z` / `z_prime` are the aggregate features of the labeled rows on the
/// neighboring graphs; `theta` is any parameter point with
/// `‖θ_j‖₂ ≤ c_θ` (the lemma's case (i)); `lambda_total` is `Λ̄ + Λ′`.
pub fn lemma7_check(
    z: &Mat,
    z_prime: &Mat,
    y: &Mat,
    loss: &ConvexLoss,
    lambda_total: f64,
    theta: &Mat,
    j: usize,
) -> Lemma7Check {
    let n1 = z.rows() as f64;
    let d = z.cols() as f64;
    let bounds = loss.bounds();
    let theta_j_norm = {
        let col = theta.col(j);
        col.iter().map(|v| v * v).sum::<f64>().sqrt()
    };
    let psi = psi_observed(z, z_prime);

    let e = hessian_perturbation(z, z_prime, y, loss, theta, j);
    let sv = singular_values(&e, 1e-12);
    let sv_sum: f64 = sv.iter().sum();
    let sv_bound = (2.0 * bounds.c2 + bounds.c3 * theta_j_norm) * psi;

    let b = hessian_block(z, y, loss, lambda_total, theta, j);
    let b_prime = hessian_block(z_prime, y, loss, lambda_total, theta, j);
    let ln_det_b = Lu::new(&b).ln_abs_det();
    let ln_det_bp = Lu::new(&b_prime).ln_abs_det();
    let ln_det_ratio = ln_det_bp - ln_det_b;
    let ln_det_bound = d * (1.0 + sv_bound / (d * n1 * lambda_total)).ln();

    Lemma7Check { sv_sum, sv_bound, ln_det_ratio, ln_det_bound }
}

/// Both sides of the Lemma 8 inequality for one class column.
#[derive(Debug, Clone, Copy)]
pub struct Lemma8Check {
    /// Measured `‖b′_j − b_j‖₂` across the neighboring datasets.
    pub noise_shift: f64,
    /// The closed-form cap `(c₁ + c₂‖θ_j‖₂) ψ` (with the observed norm).
    pub bound: f64,
}

impl Lemma8Check {
    /// True when the measured shift respects the cap.
    pub fn holds(&self, tol: f64) -> bool {
        self.noise_shift <= self.bound + tol
    }
}

/// Evaluates the Lemma 8 inequality numerically for class column `j`.
pub fn lemma8_check(
    z: &Mat,
    z_prime: &Mat,
    y: &Mat,
    loss: &ConvexLoss,
    lambda_total: f64,
    theta: &Mat,
    j: usize,
) -> Lemma8Check {
    let bounds = loss.bounds();
    let psi = psi_observed(z, z_prime);
    let theta_j_norm = {
        let col = theta.col(j);
        col.iter().map(|v| v * v).sum::<f64>().sqrt()
    };
    let b = noise_from_theta(z, y, loss, lambda_total, theta);
    let bp = noise_from_theta(z_prime, y, loss, lambda_total, theta);
    let mut shift = 0.0;
    for a in 0..b.rows() {
        let d = bp.get(a, j) - b.get(a, j);
        shift += d * d;
    }
    Lemma8Check { noise_shift: shift.sqrt(), bound: (bounds.c1 + bounds.c2 * theta_j_norm) * psi }
}

/// The exact dense PPR matrix `R_∞ = α (I − (1−α) Ã)⁻¹` of Eq. (5), via LU
/// inversion. `O(n³)`; verification only.
///
/// # Panics
/// Panics if `α ∉ (0, 1]` (at `α = 1` this is just the identity) or if the
/// inversion fails — which Lemma 3 proves cannot happen for a
/// row-stochastic `Ã`.
pub fn exact_r_infinity(a_tilde: &Csr, alpha: f64) -> Mat {
    assert!(alpha > 0.0 && alpha <= 1.0, "exact_r_infinity: α must lie in (0, 1]");
    let n = a_tilde.rows();
    let dense = a_tilde.to_dense();
    let system = Mat::from_fn(n, n, |i, j| {
        let id = if i == j { 1.0 } else { 0.0 };
        id - (1.0 - alpha) * dense.get(i, j)
    });
    let inv = Lu::new(&system).inverse().expect("I − (1−α)Ã is invertible by Lemma 3");
    ops::scale(&inv, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{ConvexLoss, LossKind};
    use crate::propagation::{propagate, PropagationStep};
    use gcon_graph::generators;
    use gcon_graph::normalize::row_stochastic_default;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Small labeled problem on neighboring graphs: returns (Z, Z', Y).
    fn neighboring_features(seed: u64, alpha: f64, m: usize) -> (Mat, Mat, Mat) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_gnm(12, 24, &mut rng);
        // Remove the first existing edge we find to get the neighbor D'.
        let (u, v) = (0..12u32)
            .flat_map(|a| g.neighbors(a).iter().map(move |&b| (a, b)))
            .find(|&(a, b)| a < b)
            .expect("graph has an edge");
        let g_prime = g.with_edge_removed(u, v);
        let mut x = Mat::uniform(12, 4, 1.0, &mut rng);
        x.normalize_rows_l2();
        let z = propagate(&row_stochastic_default(&g), &x, alpha, PropagationStep::Finite(m));
        let zp =
            propagate(&row_stochastic_default(&g_prime), &x, alpha, PropagationStep::Finite(m));
        let mut y = Mat::zeros(12, 3);
        for i in 0..12 {
            y.set(i, i % 3, 1.0);
        }
        (z, zp, y)
    }

    #[test]
    fn noise_map_is_stationarity_inverse() {
        // Minimizing L_priv with noise B, then applying noise_from_theta at
        // the minimizer, must reproduce B (Eq. 40 roundtrip).
        let (z, _, y) = neighboring_features(5, 0.5, 2);
        let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3);
        let lambda_total = 0.6;
        let mut rng = StdRng::seed_from_u64(9);
        let b = Mat::uniform(4, 3, 0.4, &mut rng);
        let obj = crate::objective::PerturbedObjective::new(&z, &y, loss, lambda_total, &b);
        let opt_cfg = crate::model::OptimizerConfig { grad_tol: 1e-11, ..Default::default() };
        let (theta, _, _) = crate::train::minimize(&obj, Mat::zeros(4, 3), &opt_cfg);
        let loss2 = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3);
        let recovered = noise_from_theta(&z, &y, &loss2, lambda_total, &theta);
        // noise_from_theta uses the un-normalized stationarity (Eq. 47);
        // PerturbedObjective divides by n1, so B enters as B/n1 — match them.
        for i in 0..4 {
            for j in 0..3 {
                assert!(
                    (recovered.get(i, j) - b.get(i, j)).abs() < 1e-5,
                    "B roundtrip ({i},{j}): {} vs {}",
                    recovered.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn hessian_block_matches_finite_difference_jacobian() {
        let (z, _, y) = neighboring_features(7, 0.5, 1);
        let loss = ConvexLoss::new(LossKind::PseudoHuber { delta: 0.3 }, 3);
        let lambda_total = 0.4;
        let mut rng = StdRng::seed_from_u64(13);
        let theta = Mat::uniform(4, 3, 0.5, &mut rng);
        let j = 1;
        let h = hessian_block(&z, &y, &loss, lambda_total, &theta, j);
        // J(θ_j → b_j) = −B_j: check each column by finite differences.
        let eps = 1e-6;
        for a in 0..4 {
            let mut tp = theta.clone();
            tp.add_at(a, j, eps);
            let mut tm = theta.clone();
            tm.add_at(a, j, -eps);
            let bp = noise_from_theta(&z, &y, &loss, lambda_total, &tp);
            let bm = noise_from_theta(&z, &y, &loss, lambda_total, &tm);
            for r in 0..4 {
                let fd = (bp.get(r, j) - bm.get(r, j)) / (2.0 * eps);
                assert!(
                    (fd + h.get(r, a)).abs() < 1e-4,
                    "J({r},{a}) fd {fd} vs −B {}",
                    -h.get(r, a)
                );
            }
        }
    }

    #[test]
    fn lemma7_bounds_hold_on_random_neighbors() {
        for seed in [1u64, 2, 3, 4, 5] {
            let (z, zp, y) = neighboring_features(seed, 0.4, 3);
            let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let theta = Mat::uniform(4, 3, 0.8, &mut rng);
            for j in 0..3 {
                let chk = lemma7_check(&z, &zp, &y, &loss, 0.5, &theta, j);
                assert!(
                    chk.holds(1e-9),
                    "seed {seed} class {j}: sv {}≤{}? det {}≤{}?",
                    chk.sv_sum,
                    chk.sv_bound,
                    chk.ln_det_ratio,
                    chk.ln_det_bound
                );
            }
        }
    }

    #[test]
    fn lemma7_detects_identical_graphs_as_zero() {
        let (z, _, y) = neighboring_features(11, 0.5, 2);
        let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3);
        let theta = Mat::zeros(4, 3);
        let chk = lemma7_check(&z, &z, &y, &loss, 0.5, &theta, 0);
        assert!(chk.sv_sum.abs() < 1e-9);
        assert!(chk.ln_det_ratio.abs() < 1e-9);
    }

    #[test]
    fn lemma8_bound_holds_on_random_neighbors() {
        for seed in [21u64, 22, 23, 24, 25] {
            for kind in [LossKind::MultiLabelSoftMargin, LossKind::PseudoHuber { delta: 0.2 }] {
                let (z, zp, y) = neighboring_features(seed, 0.6, 2);
                let loss = ConvexLoss::new(kind, 3);
                let mut rng = StdRng::seed_from_u64(seed + 200);
                let theta = Mat::uniform(4, 3, 1.0, &mut rng);
                for j in 0..3 {
                    let chk = lemma8_check(&z, &zp, &y, &loss, 0.5, &theta, j);
                    assert!(
                        chk.holds(1e-9),
                        "{kind:?} seed {seed} class {j}: {} > {}",
                        chk.noise_shift,
                        chk.bound
                    );
                }
            }
        }
    }

    #[test]
    fn exact_ppr_matches_fixed_point_recursion() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::erdos_renyi_gnm(15, 30, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(15, 5, 1.0, &mut rng);
        x.normalize_rows_l2();
        for &alpha in &[0.2, 0.5, 0.8] {
            let r_inf = exact_r_infinity(&a, alpha);
            let z_exact = ops::matmul(&r_inf, &x);
            let z_iter = propagate(&a, &x, alpha, PropagationStep::Infinite);
            for i in 0..15 {
                for j in 0..5 {
                    assert!(
                        (z_exact.get(i, j) - z_iter.get(i, j)).abs() < 1e-7,
                        "α={alpha} ({i},{j}): exact {} vs iter {}",
                        z_exact.get(i, j),
                        z_iter.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn exact_r_infinity_rows_sum_to_one() {
        // Lemma 1 second bullet for R_∞, checked on the dense inverse.
        let mut rng = StdRng::seed_from_u64(37);
        let g = generators::erdos_renyi_gnm(10, 20, &mut rng);
        let r = exact_r_infinity(&row_stochastic_default(&g), 0.3);
        for i in 0..10 {
            let s: f64 = r.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-10, "row {i} sums to {s}");
        }
    }

    #[test]
    fn exact_r_infinity_entries_non_negative() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = generators::erdos_renyi_gnm(10, 18, &mut rng);
        let r = exact_r_infinity(&row_stochastic_default(&g), 0.4);
        for v in r.as_slice() {
            assert!(*v >= -1e-12);
        }
    }

    #[test]
    fn exact_r_infinity_alpha_one_is_identity() {
        let g = generators::cycle(6);
        let r = exact_r_infinity(&row_stochastic_default(&g), 1.0);
        for i in 0..6 {
            for j in 0..6 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((r.get(i, j) - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn psi_observed_is_zero_for_identical_and_positive_for_neighbors() {
        let (z, zp, _) = neighboring_features(43, 0.5, 2);
        assert_eq!(psi_observed(&z, &z), 0.0);
        assert!(psi_observed(&z, &zp) > 0.0);
    }

    #[test]
    fn psi_observed_below_lemma2_closed_form() {
        // The measured ψ on real neighboring graphs must sit below Ψ(Z_m).
        for seed in [51u64, 52, 53] {
            for &(alpha, m) in &[(0.3, 2usize), (0.5, 5), (0.8, 10)] {
                let (z, zp, _) = neighboring_features(seed, alpha, m);
                let psi = psi_observed(&z, &zp);
                let cap = crate::sensitivity::psi_zm(alpha, PropagationStep::Finite(m));
                assert!(psi <= cap + 1e-9, "seed {seed} α={alpha} m={m}: {psi} > {cap}");
            }
        }
    }
}
