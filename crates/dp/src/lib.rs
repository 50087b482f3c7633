#![warn(missing_docs)]
//! Differential-privacy toolkit.
//!
//! Everything DP-related that is *not* specific to GCON's objective
//! perturbation lives here:
//!
//! - [`special`]: `ln Γ`, the regularized lower incomplete gamma `P(a, x)`
//!   and its inverse — needed for the `c_sf` quantile of Eq. (21) in the
//!   paper (the Gamma-CDF inequality that bounds the Erlang noise radius
//!   with probability `1 − δ/c`).
//! - [`erlang`]: the paper's Algorithm 2 — a noise vector drawn uniformly on
//!   the `d`-sphere with an Erlang(`d`, `β`)-distributed radius, i.e. density
//!   ∝ `exp(−β‖b‖₂)`.
//! - [`mechanisms`]: Laplace / Gaussian mechanisms and randomized response,
//!   used by the DPGCN, LPGNet, GAP and ProGAP baselines.
//! - [`rdp`]: a Rényi-DP accountant (plain and Poisson-subsampled Gaussian)
//!   with `(ε, δ)` conversion and noise calibration by binary search, used by
//!   DP-SGD and the multi-hop aggregation-perturbation baselines.
//! - [`composition`]: basic and advanced sequential composition for
//!   `(ε, δ)`-DP — the budget arithmetic the Theorem 1 Remark contrasts
//!   objective perturbation against.
//! - [`audit`]: empirical DP auditing — Clopper–Pearson-backed lower bounds
//!   on the privacy loss of any mechanism, used to sanity-check GCON's
//!   objective perturbation end to end and to catch deliberately broken
//!   variants.

pub mod audit;
pub mod composition;
pub mod erlang;
pub mod mechanisms;
pub mod rdp;
pub mod special;

pub use erlang::sample_sphere_noise;
pub use rdp::RdpAccountant;
