//! Top-level GCON configuration, trained-model container, and privacy report.

use crate::encoder::{EncoderConfig, FeatureEncoder};
use crate::loss::LossKind;
use crate::params::TheoremOneParams;
use crate::propagation::{PprSolver, PropagationStep};
use gcon_linalg::Mat;

/// Stopping rule of the Newton minimizer of the perturbed objective
/// ([`crate::train::minimize`]). Per the Theorem 1 remark, these affect how
/// close `Θ_priv` gets to the exact minimizer — never the calibration.
#[derive(Clone, Copy, Debug)]
pub struct OptimizerConfig {
    /// Safety cap on the Newton steps (a handful suffice in practice).
    pub max_iters: usize,
    /// Stop when `‖∇L_priv‖_F` falls below this. By strong convexity the
    /// stop certifies `‖Θ_priv − Θ*‖_F < grad_tol / (Λ̄+Λ′)`.
    pub grad_tol: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self { max_iters: 2000, grad_tol: 1e-10 }
    }
}

/// Full hyperparameter set of Algorithm 1.
#[derive(Clone, Debug)]
pub struct GconConfig {
    /// Feature-encoder settings (Algorithm 3).
    pub encoder: EncoderConfig,
    /// Restart probability α of PPR/APPR (Eq. 9). Paper sweeps {0.2…0.8}.
    pub alpha: f64,
    /// Propagation steps `m₁…m_s` (Eq. 11). Paper: s = 1 with m₁ ∈
    /// {1, 2, 5, 10, ∞} on the citation graphs, s ∈ {1,2,3} on Actor.
    pub steps: Vec<PropagationStep>,
    /// Regularization coefficient Λ (Eq. 2). Paper tunes {0.01, 0.2, 1, 2}.
    pub lambda: f64,
    /// Which strongly-convex loss to use (Sec. IV-C4).
    pub loss: LossKind,
    /// Budget divider ω (Theorem 1). Paper fixes 0.9.
    pub omega: f64,
    /// Restart probability α_I at the inference stage (Eq. 16).
    pub alpha_inference: f64,
    /// Expand the training set to all nodes using encoder pseudo-labels
    /// (the paper's `n₁ ∈ {n₀, n}` tuning knob, Appendix Q).
    pub expand_train_set: bool,
    /// Off-diagonal clip `p ∈ (0, 1/2]` of Lemma 1 applied to `Ã`.
    /// `p = 1/2` (the default) is the paper's unclipped `D⁻¹(A+I)`;
    /// smaller values trade per-edge influence for a `2p`-scaled
    /// sensitivity `Ψ_p(Z)` and thus less noise (Lemma 1 extension).
    pub clip_p: f64,
    /// How an incremental refresh (`ApprChain`, the dynamic serving store)
    /// recomputes the PPR limit (`PropagationStep::Infinite`) after a graph
    /// delta: forward push, warm power sweeps, or `Auto` (the default),
    /// which picks per delta. Training and inference always solve the limit
    /// cold by power iteration, so this never changes a trained model or
    /// its privacy (the calibration chain depends on `Ψ(Z)`, not on how `Z`
    /// was computed).
    pub ppr_solver: PprSolver,
    /// Stopping rule of the Newton minimizer of Eq. (15).
    pub optimizer: OptimizerConfig,
}

impl Default for GconConfig {
    fn default() -> Self {
        Self {
            encoder: EncoderConfig::default(),
            alpha: 0.6,
            steps: vec![PropagationStep::Finite(2)],
            lambda: 0.2,
            loss: LossKind::MultiLabelSoftMargin,
            omega: 0.9,
            alpha_inference: 0.6,
            expand_train_set: true,
            clip_p: 0.5,
            ppr_solver: PprSolver::Auto,
            optimizer: OptimizerConfig::default(),
        }
    }
}

impl GconConfig {
    /// Validates the hyperparameter ranges of Algorithm 1's inputs, returning
    /// a human-readable description of the first violation.
    ///
    /// `train_gcon` asserts the same conditions; library users who prefer a
    /// `Result` (e.g. when configs come from user input) call this first.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // !(x > 0) deliberately rejects NaN too
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("restart probability α must lie in (0, 1], got {}", self.alpha));
        }
        if !(self.alpha_inference >= 0.0 && self.alpha_inference <= 1.0) {
            return Err(format!(
                "inference restart α_I must lie in [0, 1], got {}",
                self.alpha_inference
            ));
        }
        if self.steps.is_empty() {
            return Err("at least one propagation step m₁ is required (Eq. 11)".into());
        }
        if !(self.lambda > 0.0) {
            return Err(format!("regularization Λ must be positive, got {}", self.lambda));
        }
        if !(self.omega > 0.0 && self.omega < 1.0) {
            return Err(format!("budget divider ω must lie in (0, 1), got {}", self.omega));
        }
        if let LossKind::PseudoHuber { delta } = self.loss {
            if !(delta > 0.0 && delta.is_finite()) {
                return Err(format!("pseudo-Huber δ_l must be positive and finite, got {delta}"));
            }
        }
        if !(self.clip_p > 0.0 && self.clip_p <= 0.5) {
            return Err(format!("Lemma 1 clip p must lie in (0, 0.5], got {}", self.clip_p));
        }
        if self.encoder.d1 == 0 || self.encoder.hidden == 0 {
            return Err("encoder dimensions must be positive".into());
        }
        if self.optimizer.max_iters == 0 {
            return Err("optimizer needs at least one iteration".into());
        }
        Ok(())
    }
}

/// What the mechanism guarantees and how the budget was spent.
#[derive(Clone, Copy, Debug)]
pub struct PrivacyReport {
    /// The (ε, δ) the released `Θ_priv` satisfies (edge-level DP, Eq. 8).
    pub eps: f64,
    /// δ of the guarantee.
    pub delta: f64,
    /// Sensitivity Ψ(Z) used in the calibration (Lemma 2).
    pub psi_z: f64,
    /// The full Theorem 1 parameter set.
    pub params: TheoremOneParams,
    /// Number of labeled rows n₁ the calibration used.
    pub n1: usize,
}

/// A trained GCON model: the released parameters plus the (public) encoder
/// and the configuration needed for inference.
#[derive(Clone, Debug)]
pub struct TrainedGcon {
    /// The released network parameters `Θ_priv ∈ ℝ^{d × c}` (Eq. 15).
    pub theta: Mat,
    /// The public feature encoder.
    pub encoder: FeatureEncoder,
    /// Training configuration (propagation steps, α, …) reused at inference.
    pub config: GconConfig,
    /// Privacy accounting for the release.
    pub report: PrivacyReport,
    /// Number of classes.
    pub num_classes: usize,
    /// Newton steps the minimizer took (diagnostics only).
    pub opt_iterations: usize,
    /// `‖∇L_priv(Θ_priv)‖_F` at the released parameters.
    pub final_grad_norm: f64,
}

impl TrainedGcon {
    /// Feature dimension d = s·d₁ of the released parameters.
    pub fn dim(&self) -> usize {
        self.theta.rows()
    }

    /// The certificate of the release: `L_priv` is `(Λ̄+Λ′)`-strongly convex,
    /// so `‖Θ_priv − Θ*‖_F ≤ ‖∇L_priv(Θ_priv)‖_F / (Λ̄+Λ′)`, where `Θ*` is
    /// the exact minimizer Theorem 1 speaks about.
    pub fn minimizer_distance_bound(&self) -> f64 {
        self.final_grad_norm / self.report.params.lambda_total()
    }
}

impl std::fmt::Display for PrivacyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "edge-DP guarantee : (ε = {}, δ = {:.3e})", self.eps, self.delta)?;
        writeln!(f, "sensitivity Ψ(Z)  : {:.6}   (Lemma 2)", self.psi_z)?;
        writeln!(f, "n₁ (labeled rows) : {}", self.n1)?;
        writeln!(f, "Λ̄  (Eq. 22)      : {:.6}", self.params.lambda_eff)?;
        writeln!(f, "Λ′ (Eq. 17)      : {:.6}", self.params.lambda_prime)?;
        writeln!(f, "c_sf (Eq. 21)    : {:.6}", self.params.csf)?;
        writeln!(f, "c_θ (Eq. 23)     : {:.6}", self.params.c_theta)?;
        writeln!(f, "ε_Λ (Eq. 24)     : {:.6}", self.params.eps_lambda)?;
        if self.params.is_noise_free() {
            writeln!(f, "β  (Eq. 18)      : ∞ (Ψ(Z)=0 — no noise required)")
        } else {
            writeln!(f, "β  (Eq. 18)      : {:.6}   (Erlang rate)", self.params.beta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::field_reassign_with_default)] // per-violation mutation reads clearer
    fn validate_accepts_default_and_rejects_each_violation() {
        assert!(GconConfig::default().validate().is_ok());
        let mut c = GconConfig::default();
        c.alpha = 0.0;
        assert!(c.validate().unwrap_err().contains("α"));
        let mut c = GconConfig::default();
        c.alpha_inference = 1.5;
        assert!(c.validate().unwrap_err().contains("α_I"));
        let mut c = GconConfig::default();
        c.steps.clear();
        assert!(c.validate().unwrap_err().contains("propagation step"));
        let mut c = GconConfig::default();
        c.lambda = -1.0;
        assert!(c.validate().unwrap_err().contains("Λ"));
        let mut c = GconConfig::default();
        c.omega = 1.0;
        assert!(c.validate().unwrap_err().contains("ω"));
        let mut c = GconConfig::default();
        c.loss = crate::loss::LossKind::PseudoHuber { delta: 0.0 };
        assert!(c.validate().unwrap_err().contains("δ_l"));
        let mut c = GconConfig::default();
        c.encoder.d1 = 0;
        assert!(c.validate().unwrap_err().contains("encoder"));
        let mut c = GconConfig::default();
        c.optimizer.max_iters = 0;
        assert!(c.validate().unwrap_err().contains("iteration"));
    }

    #[test]
    fn privacy_report_display_mentions_all_parameters() {
        use crate::loss::{ConvexLoss, LossKind};
        use crate::params::{CalibrationInput, TheoremOneParams};
        let params = TheoremOneParams::compute(&CalibrationInput {
            eps: 1.0,
            delta: 1e-4,
            omega: 0.9,
            lambda: 0.2,
            n1: 500,
            num_classes: 3,
            dim: 8,
            bounds: ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3).bounds(),
            psi: 1.0,
        });
        let report = PrivacyReport { eps: 1.0, delta: 1e-4, psi_z: 1.0, params, n1: 500 };
        let s = format!("{report}");
        for needle in ["ε = 1", "Ψ(Z)", "Λ′", "c_sf", "c_θ", "β"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn noise_free_report_displays_infinity() {
        use crate::loss::{ConvexLoss, LossKind};
        use crate::params::{CalibrationInput, TheoremOneParams};
        let params = TheoremOneParams::compute(&CalibrationInput {
            eps: 1.0,
            delta: 1e-4,
            omega: 0.9,
            lambda: 0.2,
            n1: 500,
            num_classes: 3,
            dim: 8,
            bounds: ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3).bounds(),
            psi: 0.0,
        });
        let report = PrivacyReport { eps: 1.0, delta: 1e-4, psi_z: 0.0, params, n1: 500 };
        assert!(format!("{report}").contains("no noise required"));
    }

    #[test]
    fn default_config_is_self_consistent() {
        let cfg = GconConfig::default();
        assert!(cfg.alpha > 0.0 && cfg.alpha <= 1.0);
        assert!(cfg.omega > 0.0 && cfg.omega < 1.0);
        assert!(!cfg.steps.is_empty());
        assert!(cfg.lambda > 0.0);
        assert!(cfg.optimizer.max_iters > 0);
    }
}
