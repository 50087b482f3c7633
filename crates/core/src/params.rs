//! The Theorem 1 calibration chain (Eq. 17–24 of the paper).
//!
//! Given the privacy budget `(ε, δ)`, the budget split `ω`, the regularizer
//! `Λ`, the loss-derivative suprema `(c₁, c₂, c₃)`, the feature sensitivity
//! `Ψ(Z)` and the problem sizes `(n₁, c, d)`, this module computes:
//!
//! - `c_sf` (Eq. 21): the `(1 − δ/c)`-quantile of Gamma(d, 1) — the radius
//!   bound that holds for each noise column except with probability `δ/c`;
//! - `Λ̄` (Eq. 22): the effective regularizer, raised if needed so that the
//!   `c_θ` denominator stays positive;
//! - `c_θ` (Eq. 23): the high-probability bound on `‖θ_j‖₂`;
//! - `ε_Λ` (Eq. 24): the part of the budget consumed by the Jacobian
//!   determinant ratio;
//! - `Λ′` (Eq. 17): the extra quadratic term, activated only when `ε_Λ`
//!   exceeds `(1 − ω)ε`;
//! - `β` (Eq. 18): the Erlang rate of the noise distribution (Eq. 14).
//!
//! The whole chain is a pure function so its monotonicity and boundary
//! behaviour can be property-tested in isolation (see the tests below and
//! the workspace `tests/` suite).

use crate::loss::LossBounds;
use gcon_dp::special::reg_gamma_p_inverse;

/// Inputs to the Theorem 1 computation.
#[derive(Clone, Copy, Debug)]
pub struct CalibrationInput {
    /// Privacy budget ε.
    pub eps: f64,
    /// Privacy budget δ.
    pub delta: f64,
    /// Budget divider ω ∈ (0, 1) between the two perturbation terms
    /// (the paper fixes ω = 0.9 in its experiments).
    pub omega: f64,
    /// User-chosen regularization coefficient Λ of Eq. (2).
    pub lambda: f64,
    /// Number of labeled training rows n₁.
    pub n1: usize,
    /// Number of classes c.
    pub num_classes: usize,
    /// Feature dimension d (= s · d₁ after concatenation).
    pub dim: usize,
    /// Loss derivative suprema (Eq. 19).
    pub bounds: LossBounds,
    /// Sensitivity Ψ(Z) of the aggregate features (Lemma 2).
    pub psi: f64,
}

/// Outputs of the Theorem 1 computation (Table I notation).
#[derive(Clone, Copy, Debug)]
pub struct TheoremOneParams {
    /// Effective regularizer Λ̄ (Eq. 22): `max(Λ, c·c₂·Ψ·c_sf/(n₁ωε) + ξ)`.
    pub lambda_eff: f64,
    /// The Gamma-quantile `c_sf` (Eq. 21).
    pub csf: f64,
    /// High-probability parameter-norm bound `c_θ` (Eq. 23).
    pub c_theta: f64,
    /// Jacobian budget `ε_Λ` (Eq. 24).
    pub eps_lambda: f64,
    /// Additional quadratic coefficient Λ′ (Eq. 17; 0 when the Jacobian term
    /// already fits into `(1 − ω)ε`).
    pub lambda_prime: f64,
    /// Erlang rate β of the noise radius (Eq. 18). `f64::INFINITY` when
    /// Ψ(Z) = 0 (no edge information used → no noise required).
    pub beta: f64,
}

impl TheoremOneParams {
    /// Runs the full Eq. (17)–(24) chain.
    ///
    /// # Panics
    /// Panics on invalid inputs (non-positive or infinite ε, δ ∉ (0,1),
    /// ω ∉ (0,1), …).
    pub fn compute(input: &CalibrationInput) -> Self {
        let CalibrationInput { eps, delta, omega, lambda, n1, num_classes, dim, bounds, psi } =
            *input;
        assert!(eps > 0.0 && eps.is_finite(), "calibration: ε must be positive and finite");
        assert!(delta > 0.0 && delta < 1.0, "calibration: δ must lie in (0, 1)");
        assert!(omega > 0.0 && omega < 1.0, "calibration: ω must lie in (0, 1)");
        assert!(lambda > 0.0, "calibration: Λ must be positive");
        assert!(n1 >= 1, "calibration: n₁ must be ≥ 1");
        assert!(num_classes >= 2, "calibration: c must be ≥ 2");
        assert!(dim >= 1, "calibration: d must be ≥ 1");
        assert!(bounds.c1 > 0.0 && bounds.c2 > 0.0 && bounds.c3 > 0.0);
        assert!(psi >= 0.0, "calibration: Ψ(Z) must be non-negative");

        let c = num_classes as f64;
        let d = dim as f64;
        let n1 = n1 as f64;

        if psi == 0.0 {
            // m = 0 everywhere: the pipeline touches no edges, so the output
            // is ε-independent of any edge; no perturbation is needed.
            return Self {
                lambda_eff: lambda,
                csf: 0.0,
                c_theta: f64::INFINITY,
                eps_lambda: 0.0,
                lambda_prime: 0.0,
                beta: f64::INFINITY,
            };
        }

        // Eq. (21): c_sf = min{u : P(d, u) ≥ 1 − δ/c}.
        let csf = reg_gamma_p_inverse(d, 1.0 - delta / c);

        // Eq. (22): Λ̄ = max(Λ, c·c₂·Ψ·c_sf/(n₁ωε) + ξ). We take ξ as 1% of
        // the critical value so the c_θ denominator keeps definite slack.
        let critical = c * bounds.c2 * psi * csf / (n1 * omega * eps);
        let lambda_eff = lambda.max(critical * 1.01 + f64::MIN_POSITIVE);

        // Eq. (23): c_θ = (n₁ωε·c₁ + c·c₁·Ψ·c_sf) / (n₁ωε·Λ̄ − c·c₂·Ψ·c_sf).
        let denom = n1 * omega * eps * lambda_eff - c * bounds.c2 * psi * csf;
        debug_assert!(denom > 0.0, "c_θ denominator must be positive by Eq. 22");
        let c_theta = (n1 * omega * eps * bounds.c1 + c * bounds.c1 * psi * csf) / denom;

        // Eq. (24): ε_Λ = c·d·log(1 + (2c₂ + c₃·c_θ)Ψ / (d·n₁·Λ̄)).
        let jac_num = (2.0 * bounds.c2 + bounds.c3 * c_theta) * psi;
        let eps_lambda = c * d * (1.0 + jac_num / (d * n1 * lambda_eff)).ln();

        // Eq. (17): Λ′.
        let lambda_prime = if eps_lambda <= (1.0 - omega) * eps {
            0.0
        } else {
            (c * jac_num / (n1 * (1.0 - omega) * eps) - lambda_eff).max(0.0)
        };

        // Eq. (18): β = max(ε − ε_Λ, ωε) / (c(c₁ + c₂·c_θ)Ψ).
        let beta =
            (eps - eps_lambda).max(omega * eps) / (c * (bounds.c1 + bounds.c2 * c_theta) * psi);

        Self { lambda_eff, csf, c_theta, eps_lambda, lambda_prime, beta }
    }

    /// Total quadratic coefficient `Λ̄ + Λ′` appearing in the perturbed
    /// objective's regularizer and in the stationarity condition (Eq. 40).
    pub fn lambda_total(&self) -> f64 {
        self.lambda_eff + self.lambda_prime
    }

    /// True when Ψ(Z) = 0 disabled the noise entirely.
    pub fn is_noise_free(&self) -> bool {
        self.beta.is_infinite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{ConvexLoss, LossKind};

    fn base_input() -> CalibrationInput {
        CalibrationInput {
            eps: 1.0,
            delta: 1e-4,
            omega: 0.9,
            lambda: 0.2,
            n1: 2000,
            num_classes: 7,
            dim: 16,
            bounds: ConvexLoss::new(LossKind::MultiLabelSoftMargin, 7).bounds(),
            psi: 1.0,
        }
    }

    #[test]
    fn all_outputs_positive_and_finite() {
        let p = TheoremOneParams::compute(&base_input());
        assert!(p.lambda_eff >= 0.2);
        assert!(p.csf > 0.0);
        assert!(p.c_theta > 0.0 && p.c_theta.is_finite());
        assert!(p.eps_lambda > 0.0 && p.eps_lambda.is_finite());
        assert!(p.lambda_prime >= 0.0);
        assert!(p.beta > 0.0 && p.beta.is_finite());
    }

    #[test]
    fn beta_increases_with_eps() {
        // More budget → larger Erlang rate → smaller expected noise radius.
        let mut prev = 0.0;
        for &eps in &[0.5, 1.0, 2.0, 3.0, 4.0] {
            let p = TheoremOneParams::compute(&CalibrationInput { eps, ..base_input() });
            assert!(p.beta > prev, "ε={eps}: β={} not increasing", p.beta);
            prev = p.beta;
        }
    }

    #[test]
    fn beta_decreases_with_psi() {
        // Higher sensitivity → more noise.
        let lo = TheoremOneParams::compute(&CalibrationInput { psi: 0.5, ..base_input() });
        let hi = TheoremOneParams::compute(&CalibrationInput { psi: 4.0, ..base_input() });
        assert!(hi.beta < lo.beta);
    }

    #[test]
    fn csf_solves_gamma_quantile() {
        let input = base_input();
        let p = TheoremOneParams::compute(&input);
        let cdf = gcon_dp::special::reg_gamma_p(input.dim as f64, p.csf);
        let target = 1.0 - input.delta / input.num_classes as f64;
        assert!((cdf - target).abs() < 1e-9);
    }

    #[test]
    fn lambda_prime_activates_only_when_jacobian_budget_exceeded() {
        // Huge Λ → tiny ε_Λ → Λ′ = 0.
        let big = TheoremOneParams::compute(&CalibrationInput { lambda: 50.0, ..base_input() });
        assert!(big.eps_lambda <= (1.0 - 0.9) * 1.0);
        assert_eq!(big.lambda_prime, 0.0);

        // Tiny Λ with small n₁ → Jacobian budget blown → Λ′ > 0.
        let small = TheoremOneParams::compute(&CalibrationInput {
            lambda: 1e-4,
            n1: 50,
            psi: 4.0,
            ..base_input()
        });
        assert!(small.eps_lambda > (1.0 - 0.9) * 1.0);
        assert!(small.lambda_prime > 0.0);
    }

    /// When Λ′ is active, the Jacobian determinant ratio bound of Lemma 7,
    /// `(1 + (2c₂ + c₃c_θ)Ψ / (d·n₁·(Λ̄+Λ′)))^{cd}`, must fit within the
    /// reserved `exp((1−ω)ε)` — this is the inequality Λ′ was solved from.
    #[test]
    fn jacobian_ratio_fits_budget_with_lambda_prime() {
        for (lambda, n1, psi) in [(1e-4, 50, 4.0), (0.01, 200, 2.0), (0.2, 2000, 1.0)] {
            let input = CalibrationInput { lambda, n1, psi, ..base_input() };
            let p = TheoremOneParams::compute(&input);
            let c = input.num_classes as f64;
            let d = input.dim as f64;
            let jac_num = (2.0 * input.bounds.c2 + input.bounds.c3 * p.c_theta) * psi;
            let log_ratio = c * d * (1.0 + jac_num / (d * n1 as f64 * p.lambda_total())).ln();
            let budget = ((1.0 - input.omega) * input.eps).max(p.eps_lambda.min(input.eps));
            assert!(
                log_ratio <= budget + 1e-9,
                "Λ={lambda} n1={n1} Ψ={psi}: log-ratio {log_ratio} > budget {budget}"
            );
        }
    }

    #[test]
    fn zero_psi_disables_noise() {
        let p = TheoremOneParams::compute(&CalibrationInput { psi: 0.0, ..base_input() });
        assert!(p.is_noise_free());
        assert_eq!(p.lambda_prime, 0.0);
        assert_eq!(p.lambda_total(), 0.2);
    }

    /// ε = ∞ would pass a bare `ε > 0` check and come out as c_θ = β = NaN.
    #[test]
    #[should_panic(expected = "ε must be positive and finite")]
    fn infinite_eps_panics() {
        let _ = TheoremOneParams::compute(&CalibrationInput { eps: f64::INFINITY, ..base_input() });
    }

    #[test]
    #[should_panic(expected = "ω must lie in (0, 1)")]
    fn invalid_omega_panics() {
        let _ = TheoremOneParams::compute(&CalibrationInput { omega: 1.0, ..base_input() });
    }

    #[test]
    fn c_theta_denominator_slack_under_adversarial_lambda() {
        // Λ exactly at the critical value: Eq. 22's ξ must keep c_θ finite.
        let input = base_input();
        let c = input.num_classes as f64;
        let critical = c * input.bounds.c2 * input.psi * TheoremOneParams::compute(&input).csf
            / (input.n1 as f64 * input.omega * input.eps);
        let p = TheoremOneParams::compute(&CalibrationInput { lambda: critical, ..input });
        assert!(p.c_theta.is_finite() && p.c_theta > 0.0);
    }

    #[test]
    fn larger_dim_needs_larger_csf() {
        let small = TheoremOneParams::compute(&CalibrationInput { dim: 8, ..base_input() });
        let large = TheoremOneParams::compute(&CalibrationInput { dim: 128, ..base_input() });
        assert!(large.csf > small.csf);
    }
}
