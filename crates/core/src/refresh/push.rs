//! Forward-push residual maintenance for the `∞`-scale PPR block.
//!
//! The PPR limit solves `(I − (1−α)Ã) Z_∞ = αX` (Eq. 5). This module keeps
//! the **residual** `R = αX − (I − (1−α)Ã) Z` materialized alongside the
//! iterate `Z` and turns a graph delta into strictly local work:
//!
//! 1. **Repair** — a delta that replaces `Ã` rows `T` (plus onboarded rows)
//!    changes `R` only on those rows (`R`'s row `i` reads `Ã` row `i`, `z`
//!    row `i`, the neighbor rows of `z`, and `x` row `i`; all of those are
//!    bitwise unchanged outside `T`). [`repair_residual_rows`] re-derives
//!    exactly the rows in `T` with the `spmm` kernel run on each row
//!    ([`gcon_graph::Csr::spmm_rows_into`]), at `O(vol(T)·d)` cost.
//! 2. **Push** — [`push_refresh`] then sweeps the rows whose residual
//!    exceeds the threshold `ε =` [`push_epsilon`]: pushing row `i` moves
//!    its residual mass into the iterate (`z_i += r_i`, `r_i ← 0`) and
//!    scatters `(1−α)·Ã(j,i)·r_i` onto the in-neighbors `j` (the pattern of
//!    `Ã` is symmetric — undirected graph plus self-loops — so in-neighbors
//!    of `i` are the columns of row `i`, and the value `Ã(j,i)` is fetched
//!    from row `j` by binary search). A full sweep over the active rows in
//!    ascending order is one Gauss–Seidel pass of the Richardson splitting
//!    of the strictly diagonally dominant M-matrix `I − (1−α)Ã`, so the
//!    residual contracts and the active set stays confined to the
//!    neighborhood the perturbation actually reaches: a local edit costs
//!    `O(vol(affected))` instead of the `Θ(nnz)` a single global warm sweep
//!    pays.
//!
//! **Stopping rule and certificate.** Sweeps stop once no row's residual
//! max-norm exceeds `ε = (1−α)·PPR_TOL` — the residual level a converged
//! power iteration leaves behind (its stop test `‖z⁺ − z‖_max < PPR_TOL`
//! implies `‖R(z⁺)‖_max = ‖(1−α)Ã(z − z⁺)‖_max < (1−α)·PPR_TOL`), so a
//! push-refreshed iterate certifies the **same** staleness bound
//! `‖R‖_max/α` as a global power refresh. The bound is then *measured* with a
//! dense scan of the maintained residual — never assumed.
//!
//! **Determinism.** Repair and push are sequential scalar loops over a
//! sorted worklist with a fixed within-row accumulation order, so the
//! result is bitwise identical across `GCON_KERNEL_TIER` × `GCON_THREADS`
//! by construction — pinned by the serving fingerprint matrix.
//!
//! **Fallback.** If the active set fails to drain within the sweep budget
//! (a delta so large that push was the wrong plan), the refresh finishes
//! with warm global power sweeps and a global residual recompute — the
//! module honors the crate-wide contract that no code path returns an
//! unconverged solve.

use crate::propagation::{ppr_residual_into, run_to_fixed_point, PPR_TOL};
use gcon_graph::Csr;
use gcon_linalg::Mat;

/// Hard cap on push sweeps before falling back to global power sweeps; a
/// local perturbation drains in a handful, so hitting this means the plan
/// misjudged the delta.
const PUSH_MAX_SWEEPS: usize = 10_000;

/// The push stopping threshold on `‖R_row‖_max`: `(1−α)·PPR_TOL`, the
/// residual level a converged power iteration certifies (see the
/// [module docs](self)). Rows at or below `ε` are never pushed.
pub fn push_epsilon(alpha: f64) -> f64 {
    (1.0 - alpha) * PPR_TOL
}

/// What a [`push_refresh`] call did.
#[derive(Clone, Debug)]
pub struct PushOutcome {
    /// Full passes over the active set (the `inf_iterations` analogue).
    pub sweeps: usize,
    /// Individual row pushes performed across all sweeps — the actual
    /// volume-proportional work.
    pub rows_pushed: usize,
    /// Certified `‖z − Z_∞‖_max` bound measured on the maintained residual
    /// after the refresh (`‖R‖_max / α`).
    pub staleness_bound: f64,
    /// `false` when the sweep budget ran out and the warm power fallback
    /// finished the solve (the caller should report the power solver).
    pub converged: bool,
}

/// Re-derives rows `rows` of the residual `R = αX − (I − (1−α)Ã) z` in
/// place, with [`ppr_residual_into`]'s per-element arithmetic on the
/// `spmm` kernel's row products — the repaired rows are byte-identical to
/// a global residual recompute on the same `(Ã, x, z)`.
///
/// `rows` must be the rows whose `Ã` (or `x`) rows changed; every other row
/// of a previously consistent residual is still exact, because `R`'s row
/// `i` depends only on row `i` of `Ã`, `x`, `z` and the neighbor rows of
/// `z` — all bitwise unchanged outside the touched set until pushes move
/// them.
pub fn repair_residual_rows(
    a_tilde: &Csr,
    x: &Mat,
    alpha: f64,
    z: &Mat,
    rows: &[u32],
    r: &mut Mat,
) {
    assert_eq!(z.shape(), x.shape(), "repair_residual_rows: iterate shape mismatch");
    assert_eq!(r.shape(), x.shape(), "repair_residual_rows: residual shape mismatch");
    for &u in rows {
        residual_row(a_tilde, z, x, alpha, u as usize, r.row_mut(u as usize));
    }
}

/// Re-derives one residual row `R_i = αX_i − (z_i − (1−α)·(Ãz)_i)`, with
/// `(Ãz)_i` by the `spmm` kernel ([`Csr::spmm_rows_into`]), whose rows have
/// the bits of the whole product [`ppr_residual_into`] forms.
fn residual_row(a_tilde: &Csr, z: &Mat, x: &Mat, alpha: f64, i: usize, out: &mut [f64]) {
    a_tilde.spmm_rows_into(z, i, i + 1, out);
    let one_minus_alpha = 1.0 - alpha;
    for ((o, &zi), &xi) in out.iter_mut().zip(z.row(i)).zip(x.row(i)) {
        let azi = *o;
        *o = alpha * xi - (zi - one_minus_alpha * azi);
    }
}

/// Incrementally refreshes `(z, r)` after a delta whose effective rows are
/// `seed` (sorted ascending; delta-touched plus onboarded rows): repairs the
/// residual on `seed`, then drives local forward-push sweeps until every
/// row's residual max-norm is at or below [`push_epsilon`]. See the
/// [module docs](self) for the algorithm, cost model, certificate, and the
/// global-power fallback on sweep exhaustion.
///
/// On entry `z` and `r` must be consistent for the **previous** graph
/// (`r = αX − (I−(1−α)Ã_old) z` outside `seed`), grown to the new node
/// count, with onboarded `z` rows seeded from `x` and onboarded `r` rows
/// zero (they are repaired here, being part of `seed`).
pub fn push_refresh(
    a_tilde: &Csr,
    x: &Mat,
    alpha: f64,
    z: &mut Mat,
    r: &mut Mat,
    seed: &[u32],
) -> PushOutcome {
    let n = a_tilde.rows();
    assert!(alpha > 0.0 && alpha <= 1.0, "push_refresh: α in (0, 1]");
    assert_eq!(a_tilde.rows(), a_tilde.cols(), "push_refresh: Ã must be square");
    assert_eq!(z.shape(), x.shape(), "push_refresh: iterate shape mismatch");
    assert_eq!(r.shape(), x.shape(), "push_refresh: residual shape mismatch");

    repair_residual_rows(a_tilde, x, alpha, z, seed, r);

    let eps = push_epsilon(alpha);
    let one_minus_alpha = 1.0 - alpha;
    let d = x.cols();
    let row_max = |r: &Mat, u: u32| -> f64 {
        r.row(u as usize).iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
    };

    // Active worklist: rows over threshold, processed in ascending order —
    // the fixed sweep order the bitwise-determinism contract pins.
    let mut active: Vec<u32> = seed.iter().copied().filter(|&u| row_max(r, u) > eps).collect();
    let mut candidate = vec![false; n];
    let mut candidates: Vec<u32> = Vec::new();
    let mut push_mass = vec![0.0_f64; d];
    let mut sweeps = 0usize;
    let mut rows_pushed = 0usize;
    // Scatter weights for row u, aligned with its column pattern: entry k
    // holds `(1−α)·Ã(cols[k], u)`. Ã is fixed for the whole call, so the
    // weights are built lazily on a row's first push (one binary search per
    // neighbor) and reused across sweeps — the same products in the same
    // order, just not re-fetched every sweep.
    let mut weights: Vec<Option<Box<[f64]>>> = vec![None; n];

    while !active.is_empty() && sweeps < PUSH_MAX_SWEEPS {
        sweeps += 1;
        // Every row that holds or receives residual mass this sweep is a
        // candidate for the next; collected with a mask, then sorted.
        for &u in &active {
            if !candidate[u as usize] {
                candidate[u as usize] = true;
                candidates.push(u);
            }
        }
        for &u in &active {
            let ui = u as usize;
            // Pushing z_i += r_i zeroes r_i exactly and scatters
            // (1−α)·Ã(j,i)·r_i onto the in-neighbors j — by pattern
            // symmetry, the columns of row i (self-loop included).
            let mut mass_max = 0.0_f64;
            for (m, &v) in push_mass.iter_mut().zip(r.row(ui)) {
                *m = v;
                mass_max = mass_max.max(v.abs());
            }
            if mass_max <= eps {
                // Drained by an earlier push this sweep.
                continue;
            }
            rows_pushed += 1;
            for (zi, &c) in z.row_mut(ui).iter_mut().zip(&push_mass) {
                *zi += c;
            }
            r.row_mut(ui).fill(0.0);
            let (cols, _) = a_tilde.row(ui);
            let w_row = weights[ui].get_or_insert_with(|| {
                cols.iter()
                    .map(|&j| {
                        let (jcols, jvals) = a_tilde.row(j as usize);
                        let p = jcols.partition_point(|&c| c < u);
                        debug_assert!(
                            p < jcols.len() && jcols[p] == u,
                            "push_refresh: Ã pattern must be symmetric"
                        );
                        one_minus_alpha * jvals[p]
                    })
                    .collect()
            });
            for (&j, &w) in cols.iter().zip(w_row.iter()) {
                let ji = j as usize;
                for (rj, &c) in r.row_mut(ji).iter_mut().zip(&push_mass) {
                    *rj += w * c;
                }
                if !candidate[ji] {
                    candidate[ji] = true;
                    candidates.push(j);
                }
            }
        }
        candidates.sort_unstable();
        active.clear();
        for &u in &candidates {
            candidate[u as usize] = false;
            if row_max(r, u) > eps {
                active.push(u);
            }
        }
        candidates.clear();
    }

    if !active.is_empty() {
        // Sweep budget exhausted: the delta was too volumetric for push.
        // Finish with warm global power sweeps and recompute the residual
        // globally so the maintained invariant holds again.
        eprintln!(
            "gcon-core: push refresh left {} rows over threshold after {PUSH_MAX_SWEEPS} sweeps; \
             falling back to warm power sweeps",
            active.len(),
        );
        let mut scratch = Mat::default();
        let power_sweeps = run_to_fixed_point(a_tilde, z, &mut scratch, x, alpha);
        let staleness_bound = ppr_residual_into(a_tilde, x, alpha, z, r);
        return PushOutcome {
            sweeps: sweeps + power_sweeps,
            rows_pushed,
            staleness_bound,
            converged: false,
        };
    }

    // Measured certificate: a dense scan of the maintained residual (no
    // sparse product — the whole point of maintaining R).
    let r_max = r.as_slice().iter().fold(0.0_f64, |acc, v| acc.max(v.abs()));
    PushOutcome { sweeps, rows_pushed, staleness_bound: r_max / alpha, converged: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::{max_abs_diff, ppr_staleness_bound, propagate, PropagationStep};
    use gcon_graph::normalize::row_stochastic_default;
    use gcon_graph::{generators, CsrDelta, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const P_DEFAULT: f64 = 0.5;

    fn features(n: usize, d: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Mat::uniform(n, d, 1.0, &mut rng);
        x.normalize_rows_l2();
        x
    }

    /// `Ã`, the power-iteration limit and its materialized residual on `g`.
    fn converged(g: &Graph, x: &Mat, alpha: f64) -> (Csr, Mat, Mat) {
        let a = row_stochastic_default(g);
        let z = propagate(&a, x, alpha, PropagationStep::Infinite);
        let mut r = Mat::zeros(0, 0);
        ppr_residual_into(&a, x, alpha, &z, &mut r);
        (a, z, r)
    }

    fn absent_edge(g: &Graph) -> (u32, u32) {
        let n = g.num_nodes() as u32;
        (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("graph is not complete")
    }

    /// Repairing only the touched rows after a delta reproduces a global
    /// residual recompute on the new graph bit for bit.
    #[test]
    fn repaired_rows_are_bitwise_a_global_recompute() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = generators::erdos_renyi_gnm(50, 120, &mut rng);
        let x = features(50, 4, 4);
        let alpha = 0.2;
        let (a, z, mut r) = converged(&g, &x, alpha);
        let (u, v) = absent_edge(&g);
        let mut delta = CsrDelta::new();
        delta.insert_edge(u, v);
        let result = delta.apply(&mut g, &a, P_DEFAULT);
        assert_eq!(result.touched, vec![u, v]);
        repair_residual_rows(&result.a_tilde, &x, alpha, &z, &result.touched, &mut r);
        let mut global = Mat::zeros(0, 0);
        ppr_residual_into(&result.a_tilde, &x, alpha, &z, &mut global);
        for (i, (p, q)) in r.as_slice().iter().zip(global.as_slice()).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "element {i}: repaired {p} vs global {q}");
        }
    }

    /// An empty seed does nothing: no sweep, no push, `z` and `r`
    /// untouched, and the certificate is the dense scan of `r`.
    #[test]
    fn an_empty_seed_pushes_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::erdos_renyi_gnm(30, 70, &mut rng);
        let x = features(30, 3, 6);
        let alpha = 0.3;
        let (a, mut z, mut r) = converged(&g, &x, alpha);
        let (z0, r0) = (z.clone(), r.clone());
        let out = push_refresh(&a, &x, alpha, &mut z, &mut r, &[]);
        assert_eq!((out.sweeps, out.rows_pushed), (0, 0));
        assert!(out.converged);
        assert_eq!(z.as_slice(), z0.as_slice());
        assert_eq!(r.as_slice(), r0.as_slice());
        assert_eq!(out.staleness_bound.to_bits(), (r0.max_abs() / alpha).to_bits());
    }

    /// A converged power iterate already sits under the push threshold: its
    /// stop test `‖z⁺ − z‖_max < PPR_TOL` leaves `‖R‖_max < (1−α)·PPR_TOL`,
    /// so seeding every row pushes none of them.
    #[test]
    fn a_converged_power_iterate_needs_no_push() {
        for (seed, alpha) in [(7u64, 0.1), (8, 0.25), (9, 0.6)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::erdos_renyi_gnm(80, 200, &mut rng);
            let x = features(80, 4, seed + 100);
            let (a, mut z, mut r) = converged(&g, &x, alpha);
            assert!(r.max_abs() <= push_epsilon(alpha), "α={alpha}: ‖R‖ {}", r.max_abs());
            let all: Vec<u32> = (0..80).collect();
            let out = push_refresh(&a, &x, alpha, &mut z, &mut r, &all);
            assert_eq!((out.sweeps, out.rows_pushed), (0, 0), "α={alpha}");
            assert!(out.converged);
        }
    }

    /// A local edit on a long ring drains near the edit: rows far from it
    /// are never written, and the result agrees with a cold solve on the
    /// new graph within the two certificates.
    #[test]
    fn push_stays_local_on_a_long_ring() {
        let n = 400;
        let mut g = generators::cycle(n);
        let x = features(n, 3, 10);
        let alpha = 0.5;
        let (a, mut z, mut r) = converged(&g, &x, alpha);
        let z_before = z.clone();
        let mut delta = CsrDelta::new();
        delta.insert_edge(0, 2);
        let result = delta.apply(&mut g, &a, P_DEFAULT);
        let out = push_refresh(&result.a_tilde, &x, alpha, &mut z, &mut r, &result.touched);
        assert!(out.converged);
        assert!(out.rows_pushed > 0, "the chord perturbs the limit");
        assert!(out.staleness_bound <= push_epsilon(alpha) / alpha);
        for i in 150..250 {
            assert_eq!(z.row(i), z_before.row(i), "row {i} is far from the edit");
        }
        let cold = propagate(&result.a_tilde, &x, alpha, PropagationStep::Infinite);
        let cold_bound = ppr_staleness_bound(&result.a_tilde, &x, alpha, &cold);
        let gap = max_abs_diff(&z, &cold);
        assert!(gap <= out.staleness_bound + cold_bound, "push vs cold differ by {gap}");
    }

    #[test]
    #[should_panic(expected = "residual shape mismatch")]
    fn push_refresh_rejects_a_residual_of_the_wrong_shape() {
        let a = row_stochastic_default(&generators::cycle(5));
        let x = Mat::full(5, 2, 1.0);
        let mut z = x.clone();
        let mut r = Mat::zeros(5, 3);
        let _ = push_refresh(&a, &x, 0.5, &mut z, &mut r, &[0]);
    }
}
