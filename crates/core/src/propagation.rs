//! PPR / APPR propagation (Sec. II-B and IV-C2 of the paper).
//!
//! The propagation matrix `R_m` of Eq. (9) is never materialized. For finite
//! `m` (APPR) the aggregate features satisfy the recursion of Eq. (4):
//!
//! ```text
//! Z_0 = X,    Z_m = (1−α) Ã Z_{m−1} + α X
//! ```
//!
//! For `m = ∞` (PPR, Eq. 5) the same recursion is run to its fixed point:
//! `Z_∞ = α (I − (1−α)Ã)^{-1} X`, which exists because `I − (1−α)Ã` is
//! invertible (Lemma 3), and the iteration contracts at rate `(1−α)`.
//!
//! Two execution modes sit on the shared runtime layer:
//!
//! - [`propagate_into`] runs the recursion between two caller-owned
//!   ping-pong buffers, so a training loop re-propagating every epoch
//!   performs no per-step allocation.
//! - [`propagate_multi`] computes **all** requested scales `{m₁ < … < m_s}`
//!   in a *single* sweep of the recursion, snapshotting `Z_{m_i}` into the
//!   concatenated output as each scale is passed. The recursion makes
//!   `Z_{m_s}` a strict continuation of `Z_{m_1}`, so the sweep costs
//!   `max(m_i)` sparse products instead of `Σ m_i` (PPR `∞` is handled as
//!   the final fixed-point segment). [`spmm_ops_performed`] exposes the
//!   product counter the tests and benches use to verify this.
//!
//! # Solving the PPR limit
//!
//! The `m = ∞` system `(I − (1−α)Ã) Z_∞ = α X` is solved by running the
//! same recursion to its fixed point (power iteration). Each sweep shrinks
//! the error by at least `(1−α)` (by `(1−α)·λ₂(Ã)` in effect), needs no
//! memory beyond the two ping-pong buffers, and cannot fail to converge on
//! a row-stochastic `Ã`; the sweep stops once no entry moves by more than
//! `PPR_TOL`. At the restart probabilities the paper uses (`α ≥ 0.1`) that
//! takes at most a few hundred sparse products. [`PprSolver`] does not
//! change a cold solve: it only chooses how an incremental refresh
//! recomputes the limit (forward push or warm power sweeps, see
//! [`plan_inf_refresh`]).
//!
//! # Incremental refresh
//!
//! [`refresh_ppr`] re-solves the `∞` limit warm-started from a previous
//! iterate after a graph delta, and [`ppr_staleness_bound`] turns any
//! iterate's residual into a certified `‖Z − Z_∞‖_max` bound (the serving
//! staleness contract). The finite-step refresh machinery lives in
//! [`crate::refresh`].

use gcon_graph::Csr;
use gcon_linalg::Mat;

/// A propagation step count `m ∈ [0, ∞]` (Eq. 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropagationStep {
    /// APPR with `m` finite steps; `Finite(0)` is the identity (`R_0 = I`).
    Finite(usize),
    /// PPR — the `m → ∞` limit.
    Infinite,
}

impl PropagationStep {
    /// Parses `"∞"`/`"inf"` or an integer (harness convenience).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "inf" | "∞" | "infinity" => Some(Self::Infinite),
            _ => s.parse::<usize>().ok().map(Self::Finite),
        }
    }
}

impl std::fmt::Display for PropagationStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Finite(m) => write!(f, "{m}"),
            Self::Infinite => write!(f, "∞"),
        }
    }
}

/// Convergence tolerance for the PPR fixed point (max-abs change per sweep).
/// `pub(crate)` so the push refresh (`crate::refresh::push`) can derive its
/// residual threshold `ε` from the same certified-staleness budget.
pub(crate) const PPR_TOL: f64 = 1e-10;
/// Hard cap on PPR sweeps; the geometric rate `(1−α)` makes this generous.
const PPR_MAX_ITERS: usize = 10_000;

/// Total sparse products (`Ã·Z`) performed since process start. Counting
/// lives in the `gcon-graph` kernel itself
/// ([`gcon_graph::spmm_ops_performed`]), so every propagation path is
/// accounted. The single-pass multi-scale acceptance check (`max(m_i)`
/// products instead of `Σ m_i`) is asserted against deltas of this counter.
pub fn spmm_ops_performed() -> usize {
    gcon_graph::spmm_ops_performed()
}

/// Computes `Z_m = R_m X` for one step count (Eq. 10).
///
/// `a_tilde` must be the row-stochastic `Ã = D⁻¹(A+I)`
/// (see `gcon_graph::normalize::row_stochastic_default`).
///
/// Finite steps run the recursion; the `∞` limit runs it to its fixed point
/// (see the module docs).
pub fn propagate(a_tilde: &Csr, x: &Mat, alpha: f64, step: PropagationStep) -> Mat {
    let mut z = Mat::zeros(0, 0);
    let mut scratch = Mat::zeros(0, 0);
    propagate_into(a_tilde, x, alpha, step, &mut z, &mut scratch);
    z
}

/// Computes `Z_m = R_m X` into the caller-owned ping-pong pair
/// `(z, scratch)`, reusing both backing buffers across calls. On return `z`
/// holds the result; `scratch` is working space. Both are reshaped as
/// needed. The buffers may start empty (`Mat::zeros(0, 0)`) — they grow to
/// `x`'s shape on first use and are never reallocated after. A finite
/// `m ≥ 1` reads `X` in its first step instead of copying it into `z`.
pub fn propagate_into(
    a_tilde: &Csr,
    x: &Mat,
    alpha: f64,
    step: PropagationStep,
    z: &mut Mat,
    scratch: &mut Mat,
) {
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "propagate: restart probability α must lie in (0, 1], got {alpha}"
    );
    assert_eq!(a_tilde.rows(), x.rows(), "propagate: dimension mismatch");
    match step {
        PropagationStep::Finite(0) => z.copy_from(x),
        PropagationStep::Finite(m) => {
            for k in 0..m {
                step_from(a_tilde, k, z, scratch, x, alpha);
            }
        }
        PropagationStep::Infinite => {
            z.copy_from(x);
            run_to_fixed_point(a_tilde, z, scratch, x, alpha);
        }
    }
}

/// Advances `z` from `Z_k` to `Z_{k+1}`. At `k = 0` the step reads `x`
/// itself, so `z` only receives the result and needs no copy of `X`.
fn step_from(a_tilde: &Csr, k: usize, z: &mut Mat, scratch: &mut Mat, x: &Mat, alpha: f64) {
    if k == 0 {
        appr_step_into(a_tilde, x, x, alpha, z);
    } else {
        step_once_into(a_tilde, z, scratch, x, alpha);
    }
}

/// One APPR sweep in place: `z ← (1−α) Ã z + α x`, with `scratch` receiving
/// the previous iterate (the buffers are swapped, not copied).
fn step_once_into(a_tilde: &Csr, z: &mut Mat, scratch: &mut Mat, x: &Mat, alpha: f64) {
    appr_step_into(a_tilde, z, x, alpha, scratch);
    std::mem::swap(z, scratch);
}

/// `out ← (1−α)·Ã·z + α·x` in one pass: each row block of the sparse
/// product gets [`appr_element`] while it is in cache
/// ([`Csr::spmm_row_blocks`]). Every element of `out` is overwritten, so a
/// buffer of the right shape is not zeroed first; one of another shape is
/// replaced by a fresh one. This is the step of every APPR sweep, of the
/// incremental refresh's iterate chain (`crate::refresh`) and, with
/// `z = x` and `α = α_I`, the one-hop `R̂X̄` of private inference (Eq. 16).
pub(crate) fn appr_step_into(a_tilde: &Csr, z: &Mat, x: &Mat, alpha: f64, out: &mut Mat) {
    assert_eq!(x.shape(), z.shape(), "APPR step: iterate and features differ in shape");
    let d = z.cols();
    if out.shape() != (a_tilde.rows(), d) {
        *out = Mat::zeros(a_tilde.rows(), d);
    }
    a_tilde.spmm_row_blocks(z, out.as_mut_slice(), d, 2 * x.as_slice().len(), |az, rows, start| {
        let x_rows = &x.as_slice()[start * d..][..az.len()];
        for ((o, &v), &xi) in rows.iter_mut().zip(&*az).zip(x_rows) {
            *o = appr_element(v, xi, alpha);
        }
    });
}

/// The elementwise end of an APPR step: `v·(1−α) + α·x` for an element `v`
/// of the sparse product `Ã·z` and the matching feature `x`, in this
/// association (the `·(1−α)` map, then the `+ α·x` axpy).
#[inline]
pub(crate) fn appr_element(v: f64, x: f64, alpha: f64) -> f64 {
    v * (1.0 - alpha) + alpha * x
}

/// Iterates `z` to the PPR fixed point (Eq. 5), leaving the result in `z`.
/// Returns the number of sweeps performed; since the recursion contracts
/// from **any** starting point, a warm `z` close to the fixed point exits
/// after very few sweeps — the property the incremental refresh exploits.
pub(crate) fn run_to_fixed_point(
    a_tilde: &Csr,
    z: &mut Mat,
    scratch: &mut Mat,
    x: &Mat,
    alpha: f64,
) -> usize {
    for sweep in 1..=PPR_MAX_ITERS {
        step_once_into(a_tilde, z, scratch, x, alpha);
        // After the swap `scratch` holds the previous iterate.
        if max_abs_diff(z, scratch) < PPR_TOL {
            return sweep;
        }
    }
    PPR_MAX_ITERS
}

pub(crate) fn max_abs_diff(a: &Mat, b: &Mat) -> f64 {
    a.as_slice().iter().zip(b.as_slice()).fold(0.0_f64, |acc, (x, y)| acc.max((x - y).abs()))
}

/// How an incremental refresh recomputes the PPR limit `Z_∞`
/// (`PropagationStep::Infinite`) after a graph delta. Cold solves always run
/// the power iteration, whatever the selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PprSolver {
    /// Pick per delta from the touched-set volume ([`plan_inf_refresh`]):
    /// forward push for a strictly local edit, warm power sweeps otherwise.
    #[default]
    Auto,
    /// Always global power sweeps, warm-started from the previous limit.
    Power,
    /// Forward-push residual maintenance: the `∞` block repairs its
    /// maintained residual after a delta and runs local push sweeps over the
    /// active rows only (cost `O(vol(affected))` instead of a global solve —
    /// see `crate::refresh::push`).
    Push,
}

/// Volume headroom the push cost model charges for frontier expansion. Each
/// local push sweep grows the active set by roughly one `Ã`-neighborhood, so
/// the work of the whole refresh is a small multiple of the seed volume;
/// push only wins when even that expanded volume stays well under the full
/// `nnz(Ã)` a *single* global warm sweep pays. The factor is deliberately
/// conservative: misclassifying a large edit onto push costs sweeps that
/// approach global ones anyway (the frontier saturates), while
/// misclassifying a tiny edit onto global power sweeps wastes `Θ(nnz)` per
/// sweep — `bench_updates`'s push-vs-warm comparison records the measured
/// gap the factor guards.
pub const PUSH_VOLUME_FACTOR: f64 = 16.0;

/// The pure touched-set-volume test behind the [`PprSolver::Auto`] refresh
/// decision: `true` iff the forward-push residual refresh is predicted
/// cheaper than warm global power sweeps for a delta whose touched rows
/// hold `touched_volume` nonzeros out of `total_volume = nnz(Ã)`.
///
/// Unit-testable on its own; the full resolution is [`plan_inf_refresh`].
pub fn auto_chooses_push(touched_volume: usize, total_volume: usize) -> bool {
    touched_volume > 0 && PUSH_VOLUME_FACTOR * touched_volume as f64 <= total_volume as f64
}

/// How the `∞`-scale block of an **incremental refresh** is recomputed —
/// the resolution of [`PprSolver`] once a concrete delta is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InfRefreshKind {
    /// Local forward-push sweeps over the maintained residual
    /// (`crate::refresh::push`).
    Push,
    /// Global warm-started power sweeps.
    Power,
}

impl std::fmt::Display for InfRefreshKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Push => write!(f, "push"),
            Self::Power => write!(f, "power"),
        }
    }
}

/// Resolves which solver an incremental `∞` refresh should run, given the
/// configured [`PprSolver`] and the delta's touched-set volume (sum of the
/// touched rows' `Ã` nonzeros). `Power`/`Push` are forced; `Auto` pushes a
/// strictly local edit ([`auto_chooses_push`]) and runs warm power sweeps
/// for a volumetric one.
pub fn plan_inf_refresh(solver: PprSolver, a_tilde: &Csr, touched_volume: usize) -> InfRefreshKind {
    match solver {
        PprSolver::Push => InfRefreshKind::Push,
        PprSolver::Power => InfRefreshKind::Power,
        PprSolver::Auto if auto_chooses_push(touched_volume, a_tilde.nnz()) => InfRefreshKind::Push,
        PprSolver::Auto => InfRefreshKind::Power,
    }
}

/// Computes every requested scale `Z_{m_i}` in **one** sweep of the APPR
/// recursion and returns the unweighted concatenation
/// `Z_{m_1} ⊕ Z_{m_2} ⊕ … ⊕ Z_{m_s}` (column blocks in `steps` order).
///
/// Because `Z_m` depends only on `Z_{m−1}`, running the recursion once to
/// `max(m_i)` and snapshotting each requested scale as it is passed costs
/// `max(m_i)` sparse products instead of the `Σ m_i` that per-scale
/// [`propagate`] calls would pay. A `PropagationStep::Infinite` entry is
/// handled as the final segment: the sweep simply continues from the
/// largest finite scale to the fixed point (the iteration contracts toward
/// `Z_∞` from *any* starting point, so the continuation converges to the
/// same limit — finite blocks are bit-identical to per-scale propagation,
/// the `∞` block agrees to fixed-point tolerance).
pub fn propagate_multi(a_tilde: &Csr, x: &Mat, alpha: f64, steps: &[PropagationStep]) -> Mat {
    assert!(!steps.is_empty(), "propagate_multi: need at least one step");
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "propagate_multi: restart probability α must lie in (0, 1], got {alpha}"
    );
    assert_eq!(a_tilde.rows(), x.rows(), "propagate_multi: dimension mismatch");
    if let [step] = *steps {
        // One scale: the concatenation is the iterate itself.
        return propagate(a_tilde, x, alpha, step);
    }
    let (n, d) = x.shape();
    let mut out = Mat::zeros(n, steps.len() * d);
    let max_finite = steps
        .iter()
        .filter_map(|s| match s {
            PropagationStep::Finite(m) => Some(*m),
            PropagationStep::Infinite => None,
        })
        .max()
        .unwrap_or(0);
    let has_infinite = steps.contains(&PropagationStep::Infinite);

    let snapshot = |out: &mut Mat, z: &Mat, reached: PropagationStep| {
        for (i, &s) in steps.iter().enumerate() {
            if s == reached {
                out.copy_into_columns(i * d, z);
            }
        }
    };

    snapshot(&mut out, x, PropagationStep::Finite(0));
    let (mut z, mut scratch) = (Mat::default(), Mat::default());
    for k in 1..=max_finite {
        step_from(a_tilde, k - 1, &mut z, &mut scratch, x, alpha);
        snapshot(&mut out, &z, PropagationStep::Finite(k));
    }
    if has_infinite {
        if max_finite == 0 {
            z.copy_from(x);
        }
        run_to_fixed_point(a_tilde, &mut z, &mut scratch, x, alpha);
        snapshot(&mut out, &z, PropagationStep::Infinite);
    }
    out
}

/// The multi-scale concatenation of Eq. (11):
/// `Z = (1/s)(Z_{m₁} ⊕ Z_{m₂} ⊕ … ⊕ Z_{m_s})`.
///
/// The `1/s` weighting keeps each row's L2 norm ≤ 1 when the rows of `x` are
/// unit-normalized (each `Z_m` row is a convex combination of unit rows).
/// All scales are computed by the single-pass [`propagate_multi`] sweep.
/// With one scale the result is the iterate itself: `1/s = 1` changes no
/// bit, so no pass applies it.
pub fn concat_features(a_tilde: &Csr, x: &Mat, alpha: f64, steps: &[PropagationStep]) -> Mat {
    assert!(!steps.is_empty(), "concat_features: need at least one step");
    let mut z = propagate_multi(a_tilde, x, alpha, steps);
    if steps.len() > 1 {
        let inv_s = 1.0 / steps.len() as f64;
        z.map_inplace(|v| v * inv_s);
    }
    z
}

/// [`concat_features`] for callers that still pass a [`PprSolver`]. The
/// solver does not change a cold solve, so it is ignored.
pub fn concat_features_with_solver(
    a_tilde: &Csr,
    x: &Mat,
    alpha: f64,
    steps: &[PropagationStep],
    _solver: PprSolver,
) -> Mat {
    concat_features(a_tilde, x, alpha, steps)
}

/// Result of a warm-started PPR refresh ([`refresh_ppr`]).
#[derive(Clone, Debug)]
pub struct PprRefresh {
    /// The refreshed `Z_∞` iterate (converged to fixed-point tolerance).
    pub z: Mat,
    /// Certified bound on `‖z − Z_∞‖_max` (see [`ppr_staleness_bound`]),
    /// measured on the returned iterate with one extra sparse product.
    pub staleness_bound: f64,
    /// Power sweeps the warm solve performed. The warm start begins far
    /// closer to the new limit than a cold one, but the part of its error
    /// along the stationary direction of the new `Ã` contracts only at rate
    /// `(1−α)` per sweep (a cold start has none), so even a one-edge delta
    /// can take more sweeps than a cold solve.
    pub iterations: usize,
}

/// Re-solves the PPR limit `(I − (1−α)Ã) Z_∞ = α X` warm-started from a
/// previous iterate `z_warm` — the `∞`-scale half of an incremental graph
/// refresh. After a delta touches a handful of `Ã` rows, the old fixed
/// point is already correct to working precision away from the edit, and
/// the power sweep continues from `z_warm`: the recursion contracts toward
/// `Z_∞` from any starting point, so it only pays for propagating the
/// perturbation.
///
/// `z_warm` must have `x`'s shape; onboarded nodes (rows new since the warm
/// iterate was computed) should be seeded with their `x` rows — exact for
/// isolated new nodes, a contraction-friendly start otherwise. The returned
/// iterate is converged, and `staleness_bound` is its *measured*
/// certificate, not an assumption.
pub fn refresh_ppr(a_tilde: &Csr, x: &Mat, alpha: f64, z_warm: &Mat) -> PprRefresh {
    assert!(alpha > 0.0 && alpha <= 1.0, "refresh_ppr: restart probability α must lie in (0, 1]");
    assert_eq!(a_tilde.rows(), x.rows(), "refresh_ppr: dimension mismatch");
    assert_eq!(z_warm.shape(), x.shape(), "refresh_ppr: warm iterate shape mismatch");
    let mut z = z_warm.clone();
    let mut scratch = Mat::default();
    let iterations = run_to_fixed_point(a_tilde, &mut z, &mut scratch, x, alpha);
    let staleness_bound = ppr_staleness_bound(a_tilde, x, alpha, &z);
    PprRefresh { z, staleness_bound, iterations }
}

/// Certified staleness bound for an approximate PPR iterate: returns
/// `‖R‖_max / α ≥ ‖z − Z_∞‖_max`, where `R = αX − (I − (1−α)Ã) z` is the
/// residual of Eq. (5).
///
/// The bound is exact linear algebra, not a heuristic: `z − Z_∞ =
/// −(I − (1−α)Ã)⁻¹ R`, and for row-stochastic `Ã` the inverse's max-norm is
/// at most `Σ_k (1−α)^k ‖Ã‖_max^k = 1/α`. Costs one sparse product. This is
/// the quantity the serving layer reports per query generation: logits
/// served from a stale store are wrong by at most
/// `staleness_bound · ‖Θ‖_{1,∞}` before head scaling.
pub fn ppr_staleness_bound(a_tilde: &Csr, x: &Mat, alpha: f64, z: &Mat) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "ppr_staleness_bound: α in (0, 1]");
    assert_eq!(a_tilde.rows(), x.rows(), "ppr_staleness_bound: dimension mismatch");
    assert_eq!(z.shape(), x.shape(), "ppr_staleness_bound: iterate shape mismatch");
    let az = a_tilde.spmm(z);
    let one_minus_alpha = 1.0 - alpha;
    let mut r_max = 0.0_f64;
    for ((&zi, &xi), &azi) in z.as_slice().iter().zip(x.as_slice()).zip(az.as_slice()) {
        let r = alpha * xi - (zi - one_minus_alpha * azi);
        r_max = r_max.max(r.abs());
    }
    r_max / alpha
}

/// Computes the full PPR residual `R = αX − (I − (1−α)Ã) z` into `r` and
/// returns the certified staleness bound `‖R‖_max / α` — the same number
/// [`ppr_staleness_bound`] reports, via the identical per-element arithmetic
/// (`αxᵢ − (zᵢ − (1−α)·(Ãz)ᵢ)`), at the same one-sparse-product cost.
///
/// This is the materialized form the forward-push refresh
/// (`crate::refresh::push`) maintains alongside `z`: after a delta it
/// repairs only the touched rows of `r` and localizes its sweeps to rows
/// whose residual exceeds the push threshold, so the global recompute here
/// is only paid once at build time (or after a global power refresh).
pub fn ppr_residual_into(a_tilde: &Csr, x: &Mat, alpha: f64, z: &Mat, r: &mut Mat) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "ppr_residual_into: α in (0, 1]");
    assert_eq!(a_tilde.rows(), x.rows(), "ppr_residual_into: dimension mismatch");
    assert_eq!(z.shape(), x.shape(), "ppr_residual_into: iterate shape mismatch");
    a_tilde.spmm_into(z, r);
    let one_minus_alpha = 1.0 - alpha;
    let mut r_max = 0.0_f64;
    for ((ri, &zi), &xi) in r.as_mut_slice().iter_mut().zip(z.as_slice()).zip(x.as_slice()) {
        let v = alpha * xi - (zi - one_minus_alpha * *ri);
        *ri = v;
        r_max = r_max.max(v.abs());
    }
    r_max / alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcon_graph::generators;
    use gcon_graph::normalize::row_stochastic_default;
    use gcon_linalg::ops;
    use gcon_linalg::reduce::row_norms2;
    use rand::SeedableRng;

    fn small_graph() -> (gcon_graph::Graph, Csr) {
        let g = generators::cycle(6);
        let a = row_stochastic_default(&g);
        (g, a)
    }

    #[test]
    fn zero_steps_is_identity() {
        let (_, a) = small_graph();
        let x = Mat::from_fn(6, 3, |i, j| (i * 3 + j) as f64);
        let z = propagate(&a, &x, 0.5, PropagationStep::Finite(0));
        assert_eq!(z, x);
    }

    #[test]
    fn alpha_one_is_identity_for_any_m() {
        let (_, a) = small_graph();
        let x = Mat::from_fn(6, 2, |i, j| (i + j) as f64);
        for step in [PropagationStep::Finite(3), PropagationStep::Infinite] {
            let z = propagate(&a, &x, 1.0, step);
            for (u, v) in z.as_slice().iter().zip(x.as_slice()) {
                assert!((u - v).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn constant_features_are_fixed_points() {
        // Rows of R_m sum to 1 (Lemma 1), so a constant column is preserved.
        let (_, a) = small_graph();
        let x = Mat::full(6, 2, 3.5);
        for step in
            [PropagationStep::Finite(1), PropagationStep::Finite(7), PropagationStep::Infinite]
        {
            let z = propagate(&a, &x, 0.3, step);
            for v in z.as_slice() {
                assert!((v - 3.5).abs() < 1e-8, "step {step:?}: {v}");
            }
        }
    }

    #[test]
    fn finite_matches_explicit_appr_polynomial() {
        // Z_m must equal (α Σ_{i<m} (1-α)^i Ã^i + (1-α)^m Ã^m) X  (Eq. 6).
        let (_, a) = small_graph();
        let x = Mat::from_fn(6, 2, |i, j| ((i + 1) * (j + 2)) as f64 * 0.1);
        let alpha: f64 = 0.4;
        let m = 4;
        let dense = a.to_dense();
        // Build R_m densely.
        let mut rm = Mat::zeros(6, 6);
        let mut apow = Mat::eye(6);
        for i in 0..m {
            ops::add_scaled_assign(&mut rm, alpha * (1.0 - alpha).powi(i as i32), &apow);
            apow = ops::matmul(&apow, &dense);
        }
        ops::add_scaled_assign(&mut rm, (1.0 - alpha).powi(m as i32), &apow);
        let expect = ops::matmul(&rm, &x);
        let z = propagate(&a, &x, alpha, PropagationStep::Finite(m));
        for (u, v) in z.as_slice().iter().zip(expect.as_slice()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn ppr_fixed_point_satisfies_linear_system() {
        // Z_∞ should satisfy (I − (1−α)Ã) Z_∞ = α X.
        let (_, a) = small_graph();
        let x = Mat::from_fn(6, 3, |i, j| ((i * 3 + j) % 5) as f64 * 0.2);
        let alpha = 0.25;
        let z = propagate(&a, &x, alpha, PropagationStep::Infinite);
        let az = a.spmm(&z);
        for i in 0..6 {
            for j in 0..3 {
                let lhs = z.get(i, j) - (1.0 - alpha) * az.get(i, j);
                let rhs = alpha * x.get(i, j);
                assert!((lhs - rhs).abs() < 1e-8, "({i},{j}): {lhs} vs {rhs}");
            }
        }
    }

    #[test]
    fn large_m_approaches_ppr() {
        let (_, a) = small_graph();
        let x = Mat::from_fn(6, 2, |i, j| (i as f64 - j as f64) * 0.3);
        let alpha = 0.5;
        let z_inf = propagate(&a, &x, alpha, PropagationStep::Infinite);
        let z_40 = propagate(&a, &x, alpha, PropagationStep::Finite(40));
        for (u, v) in z_40.as_slice().iter().zip(z_inf.as_slice()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn concat_keeps_row_norm_bounded() {
        let (_, a) = small_graph();
        let mut x = Mat::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        x.normalize_rows_l2();
        let z = concat_features(
            &a,
            &x,
            0.4,
            &[PropagationStep::Finite(0), PropagationStep::Finite(2), PropagationStep::Infinite],
        );
        assert_eq!(z.cols(), 12);
        for n in row_norms2(&z) {
            assert!(n <= 1.0 + 1e-9, "row norm {n} exceeds 1");
        }
    }

    /// Pins the pure touched-volume gate and the refresh plan: forced
    /// variants are forced, and Auto routes by volume alone.
    #[test]
    fn refresh_plan_is_volume_aware() {
        // Pure volume gate.
        assert!(!auto_chooses_push(0, 1_000), "an empty delta never pushes");
        assert!(auto_chooses_push(10, 1_000));
        assert!(!auto_chooses_push(100, 1_000), "a 10% touched volume is not local");
        let boundary = (PUSH_VOLUME_FACTOR * 10.0) as usize;
        assert!(auto_chooses_push(10, boundary));
        assert!(!auto_chooses_push(10, boundary - 1));

        // Resolution on a concrete expander.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let a = row_stochastic_default(&generators::erdos_renyi_gnm(300, 900, &mut rng));
        assert_eq!(plan_inf_refresh(PprSolver::Push, &a, a.nnz()), InfRefreshKind::Push);
        assert_eq!(plan_inf_refresh(PprSolver::Power, &a, 2), InfRefreshKind::Power);
        // Auto: a two-row edit pushes; a volumetric edit runs power.
        assert_eq!(plan_inf_refresh(PprSolver::Auto, &a, 12), InfRefreshKind::Push);
        assert_eq!(plan_inf_refresh(PprSolver::Auto, &a, a.nnz()), InfRefreshKind::Power);
        // A gapless ring routes the same way.
        let ring = row_stochastic_default(&generators::cycle(400));
        assert_eq!(plan_inf_refresh(PprSolver::Auto, &ring, ring.nnz()), InfRefreshKind::Power);
        assert_eq!(plan_inf_refresh(PprSolver::Auto, &ring, 6), InfRefreshKind::Push);
    }

    /// After an edge delta, the warm refresh converges to the *new* fixed
    /// point: its distance to an independent cold solve is covered by the
    /// two iterates' measured staleness certificates.
    #[test]
    fn refresh_matches_cold_solve_after_delta() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let g = generators::erdos_renyi_gnm(40, 90, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(40, 6, 1.0, &mut rng);
        x.normalize_rows_l2();
        let alpha = 0.15;
        let z_old = propagate(&a, &x, alpha, PropagationStep::Infinite);

        let g2 = g.with_edge_added(0, 20);
        let a2 = row_stochastic_default(&g2);
        let refresh = refresh_ppr(&a2, &x, alpha, &z_old);
        assert!(refresh.iterations > 0, "the delta must perturb the fixed point");

        let cold = propagate(&a2, &x, alpha, PropagationStep::Infinite);
        let cold_bound = ppr_staleness_bound(&a2, &x, alpha, &cold);
        let diff = max_abs_diff(&refresh.z, &cold);
        assert!(
            diff <= refresh.staleness_bound + cold_bound,
            "refresh vs cold differ by {diff}, certificates allow {} + {}",
            refresh.staleness_bound,
            cold_bound
        );
        // A converged iterate's certificate is tight: ≤ (1−α)·PPR_TOL/α.
        assert!(refresh.staleness_bound < 1e-8);
    }

    /// The staleness certificate is honest: the *true* distance between a
    /// stale iterate (pre-delta fixed point) and the post-delta fixed point
    /// never exceeds the bound computed from the stale residual alone.
    #[test]
    fn staleness_bound_dominates_true_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = generators::erdos_renyi_gnm(30, 60, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(30, 5, 1.0, &mut rng);
        x.normalize_rows_l2();
        let alpha = 0.2;
        let z_old = propagate(&a, &x, alpha, PropagationStep::Infinite);

        let g2 = g.with_edge_added(1, 17);
        let a2 = row_stochastic_default(&g2);
        let bound = ppr_staleness_bound(&a2, &x, alpha, &z_old);
        let fresh = propagate(&a2, &x, alpha, PropagationStep::Infinite);
        let true_err = max_abs_diff(&z_old, &fresh);
        assert!(bound > 0.0, "a real delta must produce a nonzero certificate");
        assert!(true_err <= bound + 1e-9, "true error {true_err} exceeds certified bound {bound}");
    }

    #[test]
    fn propagation_step_parsing() {
        assert_eq!(PropagationStep::parse("3"), Some(PropagationStep::Finite(3)));
        assert_eq!(PropagationStep::parse("inf"), Some(PropagationStep::Infinite));
        assert_eq!(PropagationStep::parse("∞"), Some(PropagationStep::Infinite));
        assert_eq!(PropagationStep::parse("x"), None);
    }

    #[test]
    fn smoothing_pulls_neighbors_together() {
        // On a homophilous structure, propagation reduces the feature gap
        // between adjacent nodes.
        let (g, a) = small_graph();
        let x = Mat::from_fn(6, 1, |i, _| if i < 3 { 1.0 } else { -1.0 });
        let z = propagate(&a, &x, 0.2, PropagationStep::Finite(5));
        let gap = |m: &Mat| -> f64 {
            g.edges()
                .iter()
                .map(|&(u, v)| (m.get(u as usize, 0) - m.get(v as usize, 0)).abs())
                .sum()
        };
        assert!(gap(&z) < gap(&x));
    }

    /// The production recursion `Z_m = (1−α)ÃZ_{m−1} + αX` must equal the
    /// paper's *explicit* Eq. (6) expansion
    /// `R_m = α Σ_{i=0}^{m−1} (1−α)^i Ã^i + (1−α)^m Ã^m` applied to `X`,
    /// built densely from matrix powers.
    #[test]
    fn recursion_matches_eq6_dense_expansion() {
        use gcon_linalg::ops;
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let g = gcon_graph::generators::erdos_renyi_gnm(12, 26, &mut rng);
        let a_csr = gcon_graph::normalize::row_stochastic_default(&g);
        let a = a_csr.to_dense();
        let mut x = Mat::uniform(12, 3, 1.0, &mut rng);
        x.normalize_rows_l2();
        for &alpha in &[0.2f64, 0.5, 0.9] {
            for m in 0usize..8 {
                // Dense R_m via Eq. (6).
                let mut r = Mat::zeros(12, 12);
                let mut a_pow = Mat::eye(12); // Ã^0
                for i in 0..m {
                    ops::add_scaled_assign(&mut r, alpha * (1.0f64 - alpha).powi(i as i32), &a_pow);
                    a_pow = ops::matmul(&a_pow, &a);
                }
                ops::add_scaled_assign(&mut r, (1.0f64 - alpha).powi(m as i32), &a_pow);
                let z_dense = ops::matmul(&r, &x);
                let z_rec = propagate(&a_csr, &x, alpha, PropagationStep::Finite(m));
                for (u, v) in z_dense.as_slice().iter().zip(z_rec.as_slice()) {
                    assert!((u - v).abs() < 1e-10, "α={alpha} m={m}: dense {u} vs recursion {v}");
                }
            }
        }
    }

    /// Eq. (4) telescopes: R_m interpolates between R_0 = I (m = 0) and
    /// R_∞; on a connected graph the APPR output converges to the PPR fixed
    /// point geometrically at rate (1−α).
    #[test]
    fn appr_converges_geometrically_to_ppr() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(321);
        let g = gcon_graph::generators::cycle(20);
        let a = gcon_graph::normalize::row_stochastic_default(&g);
        let mut x = Mat::uniform(20, 2, 1.0, &mut rng);
        x.normalize_rows_l2();
        let alpha = 0.4;
        let z_inf = propagate(&a, &x, alpha, PropagationStep::Infinite);
        let mut prev_err = f64::INFINITY;
        for m in [1usize, 2, 4, 8, 16, 32] {
            let z_m = propagate(&a, &x, alpha, PropagationStep::Finite(m));
            let err = gcon_linalg::ops::sub(&z_m, &z_inf).max_abs();
            assert!(err <= prev_err + 1e-12, "m={m}: error {err} not decreasing");
            // Geometric envelope: ‖Z_m − Z_∞‖ ≤ (1−α)^m ‖X − Z_∞‖-ish scale.
            assert!(
                err <= (1.0 - alpha).powi(m as i32) * 2.0 + 1e-12,
                "m={m}: error {err} above geometric envelope"
            );
            prev_err = err;
        }
    }

    /// The exact dense PPR limit `α (I − (1−α)Ã)⁻¹ X` by LU.
    fn dense_ppr(a: &Csr, x: &Mat, alpha: f64) -> Mat {
        let n = a.rows();
        let mut m = Mat::eye(n);
        ops::add_scaled_assign(&mut m, -(1.0 - alpha), &a.to_dense());
        let mut z = gcon_linalg::lu::Lu::new(&m).solve_mat(x).expect("Lemma 3: invertible");
        z.map_inplace(|v| v * alpha);
        z
    }

    #[test]
    fn ppr_power_matches_dense_lu_solve() {
        let (_, a) = small_graph();
        let x = Mat::from_fn(6, 3, |i, j| ((i * 2 + j) % 7) as f64 * 0.3 - 0.5);
        for &alpha in &[0.1, 0.4, 0.9] {
            let power = propagate(&a, &x, alpha, PropagationStep::Infinite);
            let exact = dense_ppr(&a, &x, alpha);
            let gap = max_abs_diff(&power, &exact);
            assert!(gap < 1e-8, "α={alpha}: power iteration off the exact limit by {gap}");
        }
    }

    #[test]
    fn ppr_power_on_bigger_random_graph_matches_lu() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let g = generators::erdos_renyi_gnm(150, 450, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(150, 4, 1.0, &mut rng);
        x.normalize_rows_l2();
        let power = propagate(&a, &x, 0.2, PropagationStep::Infinite);
        let gap = max_abs_diff(&power, &dense_ppr(&a, &x, 0.2));
        assert!(gap < 1e-8, "power iteration off the exact limit by {gap}");
    }

    /// A cold solve is the same power iteration whatever [`PprSolver`] is
    /// configured: the solver-taking delegate is bitwise `concat_features`.
    #[test]
    fn concat_features_ignores_the_ppr_solver() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(57);
        let g = generators::erdos_renyi_gnm(50, 150, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(50, 3, 1.0, &mut rng);
        x.normalize_rows_l2();
        let steps = [PropagationStep::Finite(2), PropagationStep::Infinite];
        let plain = concat_features(&a, &x, 0.08, &steps);
        for solver in [PprSolver::Auto, PprSolver::Power, PprSolver::Push] {
            let with = concat_features_with_solver(&a, &x, 0.08, &steps, solver);
            assert_eq!(with.as_slice(), plain.as_slice(), "{solver:?}");
        }
    }

    /// Warm-starting the refresh *at* the fixed point costs the single sweep
    /// that confirms convergence and moves no entry by more than the
    /// tolerance.
    #[test]
    fn refresh_at_the_fixed_point_takes_one_sweep() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = generators::erdos_renyi_gnm(25, 50, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(25, 4, 1.0, &mut rng);
        x.normalize_rows_l2();
        let alpha = 0.3;
        let z = propagate(&a, &x, alpha, PropagationStep::Infinite);
        let refresh = refresh_ppr(&a, &x, alpha, &z);
        assert_eq!(refresh.iterations, 1);
        assert!(max_abs_diff(&refresh.z, &z) < PPR_TOL);
        assert!(refresh.staleness_bound < 1e-8);
    }

    /// Warm-starting from the features themselves is exactly the cold
    /// solve's starting point, so the result is the cold solve bit-for-bit.
    #[test]
    fn refresh_from_the_features_is_bitwise_the_cold_solve() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let g = generators::erdos_renyi_gnm(40, 100, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(40, 5, 1.0, &mut rng);
        x.normalize_rows_l2();
        let cold = propagate(&a, &x, 0.25, PropagationStep::Infinite);
        let refresh = refresh_ppr(&a, &x, 0.25, &x);
        assert_eq!(refresh.z.as_slice(), cold.as_slice());
    }

    /// After a one-edge delta the old fixed point is a far better start
    /// than the features: its certificate on the new graph is much smaller.
    /// (It need not take fewer sweeps; see [`PprRefresh::iterations`].)
    #[test]
    fn warm_start_begins_far_closer_than_a_cold_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let g = generators::erdos_renyi_gnm(60, 150, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(60, 4, 1.0, &mut rng);
        x.normalize_rows_l2();
        let alpha = 0.15;
        let z_old = propagate(&a, &x, alpha, PropagationStep::Infinite);
        let (u, v) = (0..60u32)
            .flat_map(|u| (u + 1..60).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("graph is not complete");
        let a2 = row_stochastic_default(&g.with_edge_added(u, v));
        let warm_start = ppr_staleness_bound(&a2, &x, alpha, &z_old);
        let cold_start = ppr_staleness_bound(&a2, &x, alpha, &x);
        assert!(
            warm_start < 0.1 * cold_start,
            "warm start certifies {warm_start:e}, cold start {cold_start:e}"
        );
        let warm = refresh_ppr(&a2, &x, alpha, &z_old);
        assert!(warm.staleness_bound < 1e-8);
    }

    #[test]
    #[should_panic(expected = "warm iterate shape mismatch")]
    fn refresh_rejects_a_warm_iterate_of_the_wrong_shape() {
        let (_, a) = small_graph();
        let x = Mat::full(6, 2, 1.0);
        let _ = refresh_ppr(&a, &x, 0.5, &Mat::full(6, 3, 1.0));
    }

    #[test]
    #[should_panic(expected = "restart probability")]
    fn propagate_rejects_a_restart_probability_of_zero() {
        let (_, a) = small_graph();
        let _ = propagate(&a, &Mat::full(6, 2, 1.0), 0.0, PropagationStep::Infinite);
    }

    /// The APPR step as three whole-matrix passes, the reference for the
    /// fused step: the sparse product, a `·(1−α)` map, a `+ α·x` axpy.
    fn step_reference(a: &Csr, z: &Mat, x: &Mat, alpha: f64) -> Mat {
        let mut next = a.spmm(z);
        next.map_inplace(|v| v * (1.0 - alpha));
        ops::add_scaled_assign(&mut next, alpha, x);
        next
    }

    /// The multi-scale assembly on reference steps, for any number of
    /// scales: each `Z_m` copied into its column block of an `n × s·d`
    /// matrix, then every element scaled by `1/s`.
    fn concat_reference(a: &Csr, x: &Mat, alpha: f64, steps: &[PropagationStep]) -> Mat {
        let d = x.cols();
        let mut out = Mat::zeros(x.rows(), steps.len() * d);
        let snapshot = |out: &mut Mat, z: &Mat, reached| {
            for (i, _) in steps.iter().enumerate().filter(|(_, &s)| s == reached) {
                out.copy_into_columns(i * d, z);
            }
        };
        let mut z = x.clone();
        snapshot(&mut out, &z, PropagationStep::Finite(0));
        let max_finite = steps.iter().filter_map(|s| match s {
            PropagationStep::Finite(m) => Some(*m),
            PropagationStep::Infinite => None,
        });
        for k in 1..=max_finite.max().unwrap_or(0) {
            z = step_reference(a, &z, x, alpha);
            snapshot(&mut out, &z, PropagationStep::Finite(k));
        }
        if steps.contains(&PropagationStep::Infinite) {
            loop {
                let next = step_reference(a, &z, x, alpha);
                let converged = max_abs_diff(&next, &z) < PPR_TOL;
                z = next;
                if converged {
                    break;
                }
            }
            snapshot(&mut out, &z, PropagationStep::Infinite);
        }
        let inv_s = 1.0 / steps.len() as f64;
        out.map_inplace(|v| v * inv_s);
        out
    }

    /// A graph and 16-wide features whose `Ã·X` product runs on the pool,
    /// with a row count that is a multiple of neither the row block nor a
    /// pool width.
    fn pooled_graph(seed: u64) -> (Csr, Mat) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 23 * gcon_graph::csr::ROW_BLOCK + 1;
        let a = row_stochastic_default(&generators::erdos_renyi_gnm(n, 5 * n, &mut rng));
        let mut x = Mat::uniform(n, 16, 1.0, &mut rng);
        x.normalize_rows_l2();
        assert!(a.nnz() * x.cols() >= gcon_linalg::PAR_THRESHOLD, "runs on the pool");
        (a, x)
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The fused step is bitwise the product → map → axpy reference, from
    /// the features and from a later iterate, into an empty buffer, a
    /// NaN-filled one of the right shape (every element is written) and
    /// one of another shape.
    #[test]
    fn step_is_bitwise_the_product_map_axpy_reference() {
        let (a, x) = pooled_graph(61);
        let alpha = 0.3;
        let later = step_reference(&a, &step_reference(&a, &x, &x, alpha), &x, alpha);
        for z0 in [&x, &later] {
            let want = step_reference(&a, z0, &x, alpha);
            for stale in [Mat::default(), Mat::full(x.rows(), 16, f64::NAN), Mat::full(3, 5, 1.0)] {
                let (mut z, mut scratch) = (z0.clone(), stale);
                step_once_into(&a, &mut z, &mut scratch, &x, alpha);
                assert_eq!(bits(&z), bits(&want));
                assert_eq!(bits(&scratch), bits(z0), "scratch holds the previous iterate");
            }
        }
    }

    /// `concat_features` and `propagate_multi` are bitwise the reference
    /// assembly with one scale (where they return the iterate itself) and
    /// with several.
    #[test]
    fn single_scale_features_are_bitwise_the_multi_scale_assembly() {
        use PropagationStep::{Finite, Infinite};
        let (a, x) = pooled_graph(62);
        let alpha = 0.5;
        for steps in [
            &[Finite(0)][..],
            &[Finite(1)],
            &[Finite(3)],
            &[Infinite],
            &[Finite(0), Finite(2)],
            &[Finite(2), Finite(1), Infinite],
        ] {
            let want = concat_reference(&a, &x, alpha, steps);
            assert_eq!(bits(&concat_features(&a, &x, alpha, steps)), bits(&want), "{steps:?}");
            if let [step] = steps {
                assert_eq!(bits(&propagate_multi(&a, &x, alpha, steps)), bits(&want), "{step}");
            }
        }
    }

    /// The materialized residual reports the same certificate as
    /// `ppr_staleness_bound`, bit-for-bit, and the certificate is its
    /// max-norm over α.
    #[test]
    fn residual_into_reports_the_staleness_bound_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let g = generators::erdos_renyi_gnm(30, 70, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(30, 3, 1.0, &mut rng);
        x.normalize_rows_l2();
        let alpha = 0.35;
        // A partly converged iterate, so the residual is far from zero.
        let z = propagate(&a, &x, alpha, PropagationStep::Finite(3));
        let mut r = Mat::full(2, 2, f64::NAN);
        let bound = ppr_residual_into(&a, &x, alpha, &z, &mut r);
        assert_eq!(bound.to_bits(), ppr_staleness_bound(&a, &x, alpha, &z).to_bits());
        assert_eq!(r.shape(), x.shape());
        assert_eq!(bound.to_bits(), (r.max_abs() / alpha).to_bits());
        assert!(bound > 1e-6, "three sweeps are not converged");
    }

    /// The sweep count stays inside the contraction envelope: successive
    /// iterates differ by at most `2‖X‖_max (1−α)^k` after `k` sweeps, so the
    /// stop test fires by `⌈ln(PPR_TOL / 2‖X‖_max) / ln(1−α)⌉ + 1` sweeps.
    #[test]
    fn power_sweeps_stay_within_the_contraction_envelope() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let a = row_stochastic_default(&generators::cycle(100));
        let x = Mat::uniform(100, 3, 1.0, &mut rng);
        for &alpha in &[0.1, 0.2, 0.5, 0.9] {
            let sweeps = refresh_ppr(&a, &x, alpha, &x).iterations;
            let envelope =
                ((PPR_TOL / (2.0 * x.max_abs())).ln() / (1.0 - alpha).ln()).ceil() as usize + 1;
            assert!(sweeps <= envelope, "α={alpha}: {sweeps} sweeps > envelope {envelope}");
        }
    }

    /// The certificate brackets the true error of a known perturbation
    /// from both sides: `‖e‖ ≤ ‖R‖/α ≤ (2−α)/α · ‖e‖`, because
    /// `R = −(I − (1−α)Ã) e` and `‖I − (1−α)Ã‖_max ≤ 2 − α`.
    #[test]
    fn staleness_bound_brackets_a_known_perturbation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let g = generators::erdos_renyi_gnm(40, 90, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(40, 3, 1.0, &mut rng);
        x.normalize_rows_l2();
        let alpha = 0.3;
        let exact = dense_ppr(&a, &x, alpha);
        let mut z = propagate(&a, &x, alpha, PropagationStep::Infinite);
        z.add_at(7, 1, 1e-3);
        let err = max_abs_diff(&z, &exact);
        let bound = ppr_staleness_bound(&a, &x, alpha, &z);
        assert!(err <= bound + 1e-12, "error {err} above certificate {bound}");
        assert!(
            bound <= (2.0 - alpha) / alpha * err + 1e-12,
            "certificate {bound} looser than (2−α)/α × error {err}"
        );
    }
}
