#![warn(missing_docs)]
//! **GCON** — differentially private graph convolutional networks via
//! objective perturbation (Wei et al., ICDE 2025).
//!
//! This crate implements the paper's contribution end to end:
//!
//! 1. [`encoder`] — the edge-free MLP feature encoder (Algorithm 3,
//!    Sec. IV-C1) that compresses node features to dimension `d₁` using only
//!    public information (features + labels).
//! 2. [`propagation`] — PPR/APPR propagation (Eq. 9–11): the aggregate
//!    features `Z_m = R_m X` computed by the recursion
//!    `Z_m = (1−α) Ã Z_{m−1} + α X`, multi-scale concatenation
//!    `Z = (1/s)(Z_{m₁} ⊕ … ⊕ Z_{m_s})`.
//! 3. [`loss`] — the two strongly-convex per-coordinate losses of
//!    Appendix F (MultiLabel Soft Margin, pseudo-Huber) with closed-form
//!    suprema of their first three derivatives (`c₁, c₂, c₃` of Eq. 19).
//! 4. [`sensitivity`] — the closed-form sensitivity bounds of Lemma 2:
//!    `Ψ(Z_m) = 2(1−α)/α · (1 − (1−α)^m)` and `Ψ(Z) = (1/s) Σ Ψ(Z_{m_i})`.
//! 5. [`params`] — the Theorem 1 calibration chain (Eq. 17–24) producing the
//!    quadratic coefficient `Λ′` and the Erlang rate `β`.
//! 6. [`objective`] — the perturbed objective `L_priv` of Eq. (13), its
//!    gradient and its per-class Hessian blocks (Eq. 48).
//! 7. [`train`] — Algorithm 1: end-to-end training returning `Θ_priv` and a
//!    privacy report. `L_priv` is minimized by a damped per-class Newton
//!    method whose final gradient norm certifies the distance to the exact
//!    minimizer Theorem 1 speaks about.
//! 8. [`infer`] — Algorithm 4: private inference (Eq. 16, one-hop only,
//!    using no edges beyond the query node's own) and public inference.
//! 9. [`verify`] — numerical verification of the Theorem 1 proof machinery
//!    (Eq. 40/47–49, Lemmas 7–8, exact dense `R_∞`): everything the privacy
//!    proof asserts about Jacobians and noise densities, made computable on
//!    small instances so the tests can check the algebra.
//! 10. [`refresh`] — the dynamic-graph substrate: [`refresh::ApprChain`]
//!     keeps the per-scale propagation iterates alive so a
//!     `gcon_graph::CsrDelta` re-derives only delta-affected rows (finite
//!     scales bitwise equal to full re-propagation; the `∞` scale refreshed
//!     with a certified staleness bound — by strictly local forward-push
//!     residual maintenance ([`refresh::push`]) for local edits, or
//!     warm-started global power sweeps otherwise, chosen by the
//!     touched-volume-aware [`propagation::plan_inf_refresh`]).
//!
//! The top-level entry points are [`GconConfig`], [`train::train_gcon`] and
//! [`TrainedGcon`].

pub mod encoder;
pub mod infer;
pub mod loss;
pub mod model;
pub mod noise;
pub mod objective;
pub mod params;
pub mod propagation;
pub mod refresh;
pub mod sensitivity;
pub mod serialize;
pub mod train;
pub mod tuning;
pub mod verify;

pub use loss::{ConvexLoss, LossBounds, LossKind};
pub use model::{GconConfig, PrivacyReport, TrainedGcon};
pub use params::TheoremOneParams;
pub use propagation::{InfRefreshKind, PprSolver, PropagationStep};
pub use refresh::{ApprChain, RefreshStats};
