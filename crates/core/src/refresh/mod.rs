//! Incremental propagation refresh for dynamic graphs.
//!
//! [`ApprChain`] keeps the per-scale iterates `Z_0, Z_1, …, Z_{max(m)}`
//! (and the `∞` limit, when requested) of the multi-scale propagation of
//! Eq. (10–11) alive between graph updates. After a
//! [`gcon_graph::CsrDelta`] patches the row-stochastic `Ã`,
//! [`ApprChain::refresh`] re-derives only the rows the delta can reach:
//!
//! - **Finite scales are re-derived bitwise.** The recursion
//!   `Z_k(i) = (1−α) Σ_j Ã(i,j) Z_{k−1}(j) + α X(i)` means row `i` of
//!   level `k` changes only if `Ã` row `i` changed, `X` row `i` changed,
//!   or a pattern-neighbor `j` changed at level `k−1`. The affected set
//!   therefore grows by one pattern-neighborhood per level
//!   (`C_k = C_{k−1} ∪ N(C_{k−1})`, seeded with the delta's touched rows),
//!   and each affected row is recomputed by the `spmm` kernel itself on
//!   that one row ([`gcon_graph::Csr::spmm_rows_into`]) followed by the
//!   step's elementwise `v·(1−α) + α·x` — same four-nonzero chunking, same
//!   accumulation order — so a refreshed chain is byte-identical to
//!   re-running
//!   [`propagate_multi`](crate::propagation::propagate_multi) from scratch, at
//!   `O(Σ_k |C_k| · nnz-per-row · d)` cost instead of `O(max(m) · nnz · d)`.
//! - **The `∞` scale is refreshed by the cheapest sound plan.** The chain
//!   maintains the residual `R = αX − (I−(1−α)Ã)Z_∞` alongside the limit
//!   iterate, and [`plan_inf_refresh`] resolves the configured
//!   [`PprSolver`] against the delta's touched-set volume: a strictly
//!   local edit repairs `R` on the touched rows and drains it with
//!   forward-push sweeps ([`push`]) at `O(vol(affected))` cost, while a
//!   volumetric edit warm-starts global power sweeps ([`refresh_ppr`]) from
//!   the previous fixed point (new rows seeded from `X`). Either way the
//!   result carries the certified max-norm staleness certificate of
//!   [`crate::propagation::ppr_staleness_bound`] instead of a bitwise
//!   guarantee — measured, never assumed.
//!
//! The memory cost of incrementality is explicit: the chain owns
//! `max(m)+1` dense `n × d` iterates (plus the `∞` limit), because a row
//! re-derivation at level `k` reads *neighbor* rows of level `k−1`, which a
//! concatenated output alone cannot provide.
//!
//! The contract callers must uphold: between `build`/`refresh` calls, `x`
//! rows outside the delta's touched/onboarded set must be bitwise
//! unchanged (row-local encoders — `encode_normalized` — guarantee this),
//! and `a_tilde` must be the patched matrix whose non-touched rows are
//! bitwise identical to the previous one (what [`gcon_graph::CsrDelta`]
//! produces).

use crate::propagation::{
    appr_element, appr_step_into, plan_inf_refresh, ppr_residual_into, refresh_ppr,
    run_to_fixed_point, InfRefreshKind, PprSolver, PropagationStep,
};
use gcon_graph::Csr;
use gcon_linalg::Mat;

pub mod push;

/// The live per-scale iterate chain of a multi-scale propagation, the unit
/// of incremental refresh (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct ApprChain {
    alpha: f64,
    steps: Vec<PropagationStep>,
    solver: PprSolver,
    max_finite: usize,
    has_infinite: bool,
    /// `iterates[k]` is `Z_k`, for every `k ∈ [0, max_finite]` — including
    /// scales not requested in `steps`, which later levels need as inputs.
    iterates: Vec<Mat>,
    z_inf: Option<Mat>,
    /// Maintained residual `R = αX − (I−(1−α)Ã)Z_∞` (present iff `z_inf`
    /// is): the staleness certificate is a dense scan of it, and the push
    /// refresh repairs it in O(touched) instead of recomputing globally.
    r_inf: Option<Mat>,
    staleness_bound: f64,
    cumulative_staleness_bound: f64,
}

/// What a [`ApprChain::refresh`] call actually did — the observability the
/// serving layer and `bench_updates` report.
#[derive(Clone, Debug)]
pub struct RefreshStats {
    /// Rows re-derived across all finite levels (the incremental work; a
    /// full rebuild would have been `max_finite · n`).
    pub rows_recomputed: usize,
    /// Rows re-derived at each finite level `k = 1..=max(m)`, in level
    /// order — the affected-set growth profile (`C_k = C_{k−1} ∪ N(C_{k−1})`)
    /// a capacity planner watches.
    pub rows_per_level: Vec<usize>,
    /// The affected set at the deepest finite level, sorted ascending —
    /// exactly the rows whose finite-scale iterates may have changed (a
    /// serving layer patches only these store rows).
    pub affected: Vec<u32>,
    /// Sweeps of the `∞` refresh (push sweeps or power sweeps; 0 when no `∞`
    /// scale or nothing to do).
    pub inf_iterations: usize,
    /// The solver the `∞` refresh **actually ran** — which can differ from
    /// the configured [`PprSolver`]: `Auto` resolves per delta, a push
    /// attempt that exhausts its budget falls back to power sweeps, and
    /// `None` means no `∞` scale (or an empty delta skipped the solve).
    pub inf_solver: Option<InfRefreshKind>,
    /// Certified `‖Z_∞-block − exact‖_max` bound after this refresh
    /// (`0.0` when the chain has no `∞` scale — finite levels are exact).
    pub staleness_bound: f64,
    /// Sum of the certified bounds of every `∞` state this chain has
    /// published (build + each effective refresh, this one included). Each
    /// generation's iterate deviates from **its own** exact limit by at
    /// most that generation's bound, so by the triangle inequality this sum
    /// is the tolerance budget for comparing any two refresh histories that
    /// end at the same graph — e.g. one coalesced burst vs its sequential
    /// replay (`0.0` for finite-only chains, which are exact).
    pub cumulative_staleness_bound: f64,
}

impl ApprChain {
    /// Runs the full multi-scale sweep once and captures every iterate.
    ///
    /// The per-level arithmetic is the same APPR step that
    /// [`propagate_multi`] runs, so
    /// [`assemble`](Self::assemble)/[`assemble_concat`](Self::assemble_concat)
    /// of a freshly built chain are byte-identical to [`propagate_multi`] /
    /// [`concat_features`] outputs, the `∞` block included (it is the
    /// identical code path). `solver` only steers later
    /// [`refresh`](Self::refresh) calls.
    ///
    /// [`propagate_multi`]: crate::propagation::propagate_multi
    /// [`concat_features`]: crate::propagation::concat_features
    pub fn build(
        a_tilde: &Csr,
        x: &Mat,
        alpha: f64,
        steps: &[PropagationStep],
        solver: PprSolver,
    ) -> Self {
        assert!(!steps.is_empty(), "ApprChain: need at least one step");
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "ApprChain: restart probability α must lie in (0, 1], got {alpha}"
        );
        assert_eq!(a_tilde.rows(), a_tilde.cols(), "ApprChain: Ã must be square");
        assert_eq!(a_tilde.rows(), x.rows(), "ApprChain: dimension mismatch");
        let max_finite = steps
            .iter()
            .filter_map(|s| match s {
                PropagationStep::Finite(m) => Some(*m),
                PropagationStep::Infinite => None,
            })
            .max()
            .unwrap_or(0);
        let has_infinite = steps.contains(&PropagationStep::Infinite);

        let mut iterates = Vec::with_capacity(max_finite + 1);
        iterates.push(x.clone());
        for k in 1..=max_finite {
            let mut z = Mat::default();
            appr_step_into(a_tilde, &iterates[k - 1], x, alpha, &mut z);
            iterates.push(z);
        }
        let mut scratch = Mat::default();

        let (z_inf, r_inf, staleness_bound) = if has_infinite {
            // Continue from the deepest finite iterate, exactly like the
            // single-sweep propagate_multi (the recursion contracts to the
            // same limit from any start). PprSolver::Push lands here too: a
            // cold build has no residual to push against.
            let mut z = iterates.last().expect("chain starts at Z_0").clone();
            run_to_fixed_point(a_tilde, &mut z, &mut scratch, x, alpha);
            // Materialize the residual the push refresh maintains; the
            // returned bound is bit-identical to `ppr_staleness_bound`
            // (same arithmetic, one sparse product).
            let mut r = Mat::zeros(0, 0);
            let bound = ppr_residual_into(a_tilde, x, alpha, &z, &mut r);
            (Some(z), Some(r), bound)
        } else {
            (None, None, 0.0)
        };

        Self {
            alpha,
            steps: steps.to_vec(),
            solver,
            max_finite,
            has_infinite,
            iterates,
            z_inf,
            r_inf,
            staleness_bound,
            cumulative_staleness_bound: staleness_bound,
        }
    }

    /// Re-derives the chain after a graph delta. `a_tilde` is the patched
    /// row-stochastic matrix (possibly grown by onboarded nodes), `x` the
    /// matching encoded features, and `touched` the rows the delta changed
    /// (what [`gcon_graph::DeltaResult::touched`] reports — it already
    /// includes onboarded rows). See the module docs for the exactness
    /// contract: finite levels come out bitwise equal to a from-scratch
    /// rebuild; the `∞` level carries a refreshed staleness certificate.
    pub fn refresh(&mut self, a_tilde: &Csr, x: &Mat, touched: &[u32]) -> RefreshStats {
        let n = a_tilde.rows();
        assert_eq!(a_tilde.rows(), a_tilde.cols(), "ApprChain::refresh: Ã must be square");
        assert_eq!(x.rows(), n, "ApprChain::refresh: feature rows must match Ã");
        let d = self.iterates[0].cols();
        assert_eq!(x.cols(), d, "ApprChain::refresh: feature width changed");
        let n_old = self.iterates[0].rows();
        assert!(n >= n_old, "ApprChain::refresh: the node set never shrinks");

        // Early out: an empty effective delta with no onboarding means `Ã`
        // and `x` are bitwise unchanged (every row a byte copy), so the
        // whole chain — including the maintained residual and its
        // certificate — is still exact. A coalescing window whose
        // operations cancelled lands here and costs nothing.
        if touched.is_empty() && n == n_old {
            return RefreshStats {
                rows_recomputed: 0,
                rows_per_level: vec![0; self.max_finite],
                affected: Vec::new(),
                inf_iterations: 0,
                inf_solver: None,
                staleness_bound: self.staleness_bound,
                cumulative_staleness_bound: self.cumulative_staleness_bound,
            };
        }

        // Grow every iterate row-wise; old rows keep their bits, onboarded
        // rows start at zero (finite levels recompute them below; the warm
        // ∞ start seeds them from `x` instead).
        if n > n_old {
            for z in &mut self.iterates {
                *z = grow_rows(z, n);
            }
        }

        // Seed the affected set: delta-touched rows plus every onboarded
        // row (defensively — `DeltaResult::touched` already contains them).
        let mut mask = vec![false; n];
        let mut affected: Vec<u32> = Vec::new();
        for &u in touched {
            let ui = u as usize;
            assert!(ui < n, "ApprChain::refresh: touched row {u} out of range for {n} nodes");
            if !mask[ui] {
                mask[ui] = true;
                affected.push(u);
            }
        }
        for u in n_old as u32..n as u32 {
            if !mask[u as usize] {
                mask[u as usize] = true;
                affected.push(u);
            }
        }
        affected.sort_unstable();
        // The seed set (delta-touched ∪ onboarded) and its volume — what
        // the ∞ plan judges and the push repair re-derives.
        let seed = affected.clone();
        let touched_volume: usize = seed.iter().map(|&u| a_tilde.row(u as usize).0.len()).sum();

        // Level 0 is X itself: re-copy the seed rows (onboarded rows get
        // their features; touched old rows are bitwise no-ops by contract).
        for &u in &affected {
            self.iterates[0].row_mut(u as usize).copy_from_slice(x.row(u as usize));
        }

        let mut rows_recomputed = 0usize;
        let mut rows_per_level = Vec::with_capacity(self.max_finite);
        let mut saturated = affected.len() == n;
        for k in 1..=self.max_finite {
            // C_k = C_{k−1} ∪ N(C_{k−1}): one pattern-neighborhood of
            // growth per level. Ã's pattern is symmetric (undirected graph
            // plus self-loops), so out-neighbors are exactly the rows that
            // read a changed row.
            if !saturated {
                let mut grown = Vec::new();
                for &u in &affected {
                    let (cols, _) = a_tilde.row(u as usize);
                    for &v in cols {
                        if !mask[v as usize] {
                            mask[v as usize] = true;
                            grown.push(v);
                        }
                    }
                }
                affected.extend(grown);
                affected.sort_unstable();
                saturated = affected.len() == n;
            }
            let (prev, rest) = self.iterates.split_at_mut(k);
            let z_prev = &prev[k - 1];
            let z_k = &mut rest[0];
            for &u in &affected {
                recompute_row(a_tilde, z_prev, x, self.alpha, u as usize, z_k.row_mut(u as usize));
            }
            rows_recomputed += affected.len();
            rows_per_level.push(affected.len());
        }

        let (inf_iterations, inf_solver) = if self.has_infinite {
            let mut z = match self.z_inf.take() {
                Some(old) if old.rows() == n => old,
                Some(old) => {
                    // Seed onboarded rows from `x`: exact for isolated new
                    // nodes, and a contraction-friendly start otherwise.
                    let mut grown = grow_rows(&old, n);
                    for u in n_old..n {
                        grown.row_mut(u).copy_from_slice(x.row(u));
                    }
                    grown
                }
                None => unreachable!("has_infinite chains always carry z_inf"),
            };
            let mut r = match self.r_inf.take() {
                Some(old) if old.rows() == n => old,
                // Onboarded residual rows start at zero; they are part of
                // the seed set, so the push path repairs them and the
                // global paths recompute them wholesale.
                Some(old) => grow_rows(&old, n),
                None => unreachable!("has_infinite chains always carry r_inf"),
            };
            let plan = plan_inf_refresh(self.solver, a_tilde, touched_volume);
            let (iterations, used) = match plan {
                InfRefreshKind::Push => {
                    let outcome = push::push_refresh(a_tilde, x, self.alpha, &mut z, &mut r, &seed);
                    self.staleness_bound = outcome.staleness_bound;
                    self.z_inf = Some(z);
                    let used = if outcome.converged {
                        InfRefreshKind::Push
                    } else {
                        // Sweep budget ran out; push_refresh finished with
                        // global power sweeps and a global residual.
                        InfRefreshKind::Power
                    };
                    (outcome.sweeps, used)
                }
                InfRefreshKind::Power => {
                    let refreshed = refresh_ppr(a_tilde, x, self.alpha, &z);
                    // Re-materialize the maintained residual; the returned
                    // bound is the same number `refresh_ppr` measured (the
                    // identical arithmetic over the identical iterate).
                    let bound = ppr_residual_into(a_tilde, x, self.alpha, &refreshed.z, &mut r);
                    debug_assert_eq!(bound.to_bits(), refreshed.staleness_bound.to_bits());
                    self.staleness_bound = bound;
                    self.z_inf = Some(refreshed.z);
                    (refreshed.iterations, InfRefreshKind::Power)
                }
            };
            self.r_inf = Some(r);
            self.cumulative_staleness_bound += self.staleness_bound;
            (iterations, Some(used))
        } else {
            (0, None)
        };

        RefreshStats {
            rows_recomputed,
            rows_per_level,
            affected,
            inf_iterations,
            inf_solver,
            staleness_bound: self.staleness_bound,
            cumulative_staleness_bound: self.cumulative_staleness_bound,
        }
    }

    /// The unweighted multi-scale concatenation in `steps` order — the
    /// [`propagate_multi`](crate::propagation::propagate_multi) layout.
    pub fn assemble(&self) -> Mat {
        let (n, d) = self.iterates[0].shape();
        let mut out = Mat::zeros(n, self.steps.len() * d);
        for (i, &s) in self.steps.iter().enumerate() {
            out.copy_into_columns(i * d, self.block(s));
        }
        out
    }

    /// The `1/s`-weighted concatenation of Eq. (11) — the
    /// [`concat_features`](crate::propagation::concat_features) layout that
    /// feeds the private head.
    pub fn assemble_concat(&self) -> Mat {
        let mut z = self.assemble();
        let inv_s = 1.0 / self.steps.len() as f64;
        z.map_inplace(|v| v * inv_s);
        z
    }

    fn block(&self, step: PropagationStep) -> &Mat {
        match step {
            PropagationStep::Finite(m) => &self.iterates[m],
            PropagationStep::Infinite => {
                self.z_inf.as_ref().expect("has_infinite chains always carry z_inf")
            }
        }
    }

    /// The stored iterate `Z_k` (`k ≤ max(m)` of the requested steps).
    pub fn iterate(&self, k: usize) -> &Mat {
        &self.iterates[k]
    }

    /// The `∞`-limit iterate, when the chain has an `∞` scale.
    pub fn z_inf(&self) -> Option<&Mat> {
        self.z_inf.as_ref()
    }

    /// Certified `‖Z_∞-block − exact‖_max` bound of the current state
    /// (`0.0` for finite-only chains, whose levels are exact).
    pub fn staleness_bound(&self) -> f64 {
        self.staleness_bound
    }

    /// Sum of the certified bounds of every `∞` state the chain has
    /// published since build — see
    /// [`RefreshStats::cumulative_staleness_bound`] for the compounding
    /// contract it certifies.
    pub fn cumulative_staleness_bound(&self) -> f64 {
        self.cumulative_staleness_bound
    }

    /// The maintained `∞` residual `R = αX − (I−(1−α)Ã)Z_∞`, when the chain
    /// has an `∞` scale. `staleness_bound() == ‖R‖_max / α` by construction.
    pub fn residual(&self) -> Option<&Mat> {
        self.r_inf.as_ref()
    }

    /// Number of graph nodes the chain currently covers.
    pub fn num_nodes(&self) -> usize {
        self.iterates[0].rows()
    }

    /// The requested propagation scales, in assembly order.
    pub fn steps(&self) -> &[PropagationStep] {
        &self.steps
    }

    /// The restart probability the chain propagates with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// Copies `z` into a taller zero matrix (row growth for onboarding).
fn grow_rows(z: &Mat, new_rows: usize) -> Mat {
    let (rows, cols) = z.shape();
    debug_assert!(new_rows >= rows);
    let mut out = Mat::zeros(new_rows, cols);
    out.as_mut_slice()[..rows * cols].copy_from_slice(z.as_slice());
    out
}

/// Re-derives row `i` of `Z_k = (1−α) Ã Z_{k−1} + α X` into `out`: the
/// row's sparse product by the `spmm` kernel ([`Csr::spmm_rows_into`]),
/// then [`appr_element`], the arithmetic the APPR step applies to every
/// row block. The kernel's rows do not depend on threading, tier or block
/// boundaries, so the row is byte-identical to the batch sweep's.
fn recompute_row(a_tilde: &Csr, z_prev: &Mat, x: &Mat, alpha: f64, i: usize, out: &mut [f64]) {
    a_tilde.spmm_rows_into(z_prev, i, i + 1, out);
    for (o, &xi) in out.iter_mut().zip(x.row(i)) {
        *o = appr_element(*o, xi, alpha);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::{concat_features, propagate_multi};
    use gcon_graph::normalize::row_stochastic_default;
    use gcon_graph::{generators, CsrDelta, Graph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const P_DEFAULT: f64 = 0.5;

    fn setup(n: usize, m: usize, d: usize, seed: u64) -> (Graph, Csr, Mat) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_gnm(n, m, &mut rng);
        let a = row_stochastic_default(&g);
        let mut x = Mat::uniform(n, d, 1.0, &mut rng);
        x.normalize_rows_l2();
        (g, a, x)
    }

    #[test]
    fn fresh_chain_matches_propagate_multi_bitwise() {
        let (_, a, x) = setup(30, 70, 5, 3);
        let steps =
            [PropagationStep::Finite(0), PropagationStep::Finite(2), PropagationStep::Finite(3)];
        let chain = ApprChain::build(&a, &x, 0.25, &steps, PprSolver::Power);
        let direct = propagate_multi(&a, &x, 0.25, &steps);
        assert_eq!(chain.assemble().as_slice(), direct.as_slice());
        let concat = concat_features(&a, &x, 0.25, &steps);
        assert_eq!(chain.assemble_concat().as_slice(), concat.as_slice());
    }

    #[test]
    fn fresh_chain_matches_propagate_multi_with_infinity() {
        let (_, a, x) = setup(24, 55, 4, 9);
        let steps = [PropagationStep::Finite(1), PropagationStep::Infinite];
        let chain = ApprChain::build(&a, &x, 0.3, &steps, PprSolver::Power);
        let direct = propagate_multi(&a, &x, 0.3, &steps);
        // The ∞ segment is the identical continuation code path: bitwise.
        assert_eq!(chain.assemble().as_slice(), direct.as_slice());
        assert!(chain.staleness_bound() < 1e-8, "converged limit certifies tightly");
    }

    #[test]
    fn refresh_is_bitwise_equal_to_rebuild_on_finite_chain() {
        let (mut g, a, x) = setup(40, 90, 6, 21);
        let steps = [PropagationStep::Finite(1), PropagationStep::Finite(3)];
        let mut chain = ApprChain::build(&a, &x, 0.2, &steps, PprSolver::Power);

        let u0 = (0..40u32).find(|&u| !g.neighbors(u).is_empty()).expect("graph has edges");
        let v0 = g.neighbors(u0)[0];
        let mut delta = CsrDelta::new();
        delta.insert_edge(2, 31).remove_edge(u0, v0).insert_edge(7, 19);
        let result = delta.apply(&mut g, &a, P_DEFAULT);
        let stats = chain.refresh(&result.a_tilde, &x, &result.touched);

        let rebuilt = ApprChain::build(&result.a_tilde, &x, 0.2, &steps, PprSolver::Power);
        assert_eq!(chain.assemble().as_slice(), rebuilt.assemble().as_slice());
        assert!(
            stats.rows_recomputed < 3 * 40,
            "a sparse delta must not recompute every row at every level"
        );
        assert_eq!(stats.staleness_bound, 0.0, "finite-only chains are exact");
    }

    #[test]
    fn refresh_with_onboarding_matches_rebuild_bitwise() {
        let (mut g, a, x) = setup(30, 60, 4, 14);
        let steps = [PropagationStep::Finite(0), PropagationStep::Finite(2)];
        let mut chain = ApprChain::build(&a, &x, 0.15, &steps, PprSolver::Power);

        let mut delta = CsrDelta::new();
        delta.add_nodes(2).insert_edge(30, 5).insert_edge(31, 30).insert_edge(12, 17);
        let result = delta.apply(&mut g, &a, P_DEFAULT);

        // Extend the features: old rows bitwise unchanged (the refresh
        // contract), new rows drawn fresh and unit-normalized in place.
        let mut rng = StdRng::seed_from_u64(99);
        let mut x2 = Mat::zeros(32, 4);
        x2.as_mut_slice()[..30 * 4].copy_from_slice(x.as_slice());
        for u in 30..32 {
            let mut row = [0.0_f64; 4];
            for v in row.iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
            let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
            for (c, v) in row.iter().enumerate() {
                x2.set(u, c, v / norm);
            }
        }

        let stats = chain.refresh(&result.a_tilde, &x2, &result.touched);
        let rebuilt = ApprChain::build(&result.a_tilde, &x2, 0.15, &steps, PprSolver::Power);
        assert_eq!(chain.num_nodes(), 32);
        assert_eq!(chain.assemble_concat().as_slice(), rebuilt.assemble_concat().as_slice());
        assert!(stats.affected.len() >= 2, "onboarded rows are always affected");
    }

    #[test]
    fn refresh_sequence_of_deltas_stays_bitwise() {
        let (mut g, a, x) = setup(36, 80, 5, 7);
        let steps = [PropagationStep::Finite(2)];
        let mut chain = ApprChain::build(&a, &x, 0.4, &steps, PprSolver::Power);
        let mut current = a;
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..8 {
            let u = rng.gen_range(0..36u32);
            let v = rng.gen_range(0..36u32);
            if u == v {
                continue;
            }
            let mut delta = CsrDelta::new();
            if g.neighbors(u).contains(&v) {
                delta.remove_edge(u, v);
            } else {
                delta.insert_edge(u, v);
            }
            let result = delta.apply(&mut g, &current, P_DEFAULT);
            chain.refresh(&result.a_tilde, &x, &result.touched);
            current = result.a_tilde;
        }
        let rebuilt = ApprChain::build(&current, &x, 0.4, &steps, PprSolver::Power);
        assert_eq!(chain.assemble().as_slice(), rebuilt.assemble().as_slice());
    }

    #[test]
    fn refresh_with_infinity_stays_within_certificate() {
        let (mut g, a, x) = setup(32, 70, 4, 55);
        let steps = [PropagationStep::Finite(1), PropagationStep::Infinite];
        let alpha = 0.2;
        let mut chain = ApprChain::build(&a, &x, alpha, &steps, PprSolver::Power);

        // A guaranteed-absent edge: a present one would make the delta a
        // no-op, which the refresh now short-circuits entirely.
        let (eu, ev) = (0..32u32)
            .flat_map(|u| (u + 1..32).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("graph is not complete");
        let mut delta = CsrDelta::new();
        delta.insert_edge(eu, ev);
        let result = delta.apply(&mut g, &a, P_DEFAULT);
        let stats = chain.refresh(&result.a_tilde, &x, &result.touched);
        assert!(stats.inf_iterations > 0);
        assert_eq!(stats.inf_solver, Some(crate::propagation::InfRefreshKind::Power));

        let rebuilt = ApprChain::build(&result.a_tilde, &x, alpha, &steps, PprSolver::Power);
        // Finite block: bitwise. ∞ block: both converged, certificates add.
        assert_eq!(chain.iterate(1).as_slice(), rebuilt.iterate(1).as_slice());
        let ours = chain.z_inf().expect("∞ chain");
        let theirs = rebuilt.z_inf().expect("∞ chain");
        let worst = ours
            .as_slice()
            .iter()
            .zip(theirs.as_slice())
            .fold(0.0_f64, |acc, (u, v)| acc.max((u - v).abs()));
        assert!(
            worst <= stats.staleness_bound + rebuilt.staleness_bound(),
            "∞ blocks differ by {worst}, certificates allow {} + {}",
            stats.staleness_bound,
            rebuilt.staleness_bound()
        );
    }

    fn absent_edge(g: &Graph, n: u32) -> (u32, u32) {
        (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("graph is not complete")
    }

    fn max_abs_gap(a: &Mat, b: &Mat) -> f64 {
        a.as_slice().iter().zip(b.as_slice()).fold(0.0_f64, |acc, (x, y)| acc.max((x - y).abs()))
    }

    #[test]
    fn push_refresh_stays_within_certificate_and_reports_push() {
        let (mut g, a, x) = setup(40, 90, 4, 77);
        let steps = [PropagationStep::Finite(1), PropagationStep::Infinite];
        let alpha = 0.2;
        let mut chain = ApprChain::build(&a, &x, alpha, &steps, PprSolver::Push);

        let (eu, ev) = absent_edge(&g, 40);
        let mut delta = CsrDelta::new();
        delta.insert_edge(eu, ev);
        let result = delta.apply(&mut g, &a, P_DEFAULT);
        let stats = chain.refresh(&result.a_tilde, &x, &result.touched);
        assert_eq!(stats.inf_solver, Some(crate::propagation::InfRefreshKind::Push));
        assert!(stats.inf_iterations > 0, "a local edit needs at least one push sweep");
        assert_eq!(stats.rows_per_level, vec![stats.affected.len()]);

        let rebuilt = ApprChain::build(&result.a_tilde, &x, alpha, &steps, PprSolver::Power);
        // Finite block: bitwise (push touches only the ∞ state).
        assert_eq!(chain.iterate(1).as_slice(), rebuilt.iterate(1).as_slice());
        let worst = max_abs_gap(chain.z_inf().expect("∞ chain"), rebuilt.z_inf().expect("∞ chain"));
        assert!(
            worst <= stats.staleness_bound + rebuilt.staleness_bound(),
            "push ∞ block off by {worst}, certificates allow {} + {}",
            stats.staleness_bound,
            rebuilt.staleness_bound()
        );
    }

    #[test]
    fn push_refresh_certificate_matches_global_residual() {
        // The maintained residual drifts from the true residual only by
        // incremental-update rounding; the certified bound must agree with
        // a from-scratch residual recompute to far below the threshold.
        let (mut g, a, x) = setup(36, 80, 5, 78);
        let steps = [PropagationStep::Infinite];
        let alpha = 0.15;
        let mut chain = ApprChain::build(&a, &x, alpha, &steps, PprSolver::Push);
        let mut current = a;
        for k in 0..4 {
            let (eu, ev) = absent_edge(&g, 36);
            let mut delta = CsrDelta::new();
            delta.insert_edge(eu, ev);
            let result = delta.apply(&mut g, &current, P_DEFAULT);
            let stats = chain.refresh(&result.a_tilde, &x, &result.touched);
            assert_eq!(
                stats.inf_solver,
                Some(crate::propagation::InfRefreshKind::Push),
                "edit {k}"
            );
            current = result.a_tilde;

            let mut r_true = Mat::zeros(0, 0);
            let true_bound = crate::propagation::ppr_residual_into(
                &current,
                &x,
                alpha,
                chain.z_inf().expect("∞ chain"),
                &mut r_true,
            );
            let drift = max_abs_gap(chain.residual().expect("maintained residual"), &r_true);
            assert!(drift < 1e-13, "maintained residual drifted by {drift} after edit {k}");
            assert!((stats.staleness_bound - true_bound).abs() < 1e-13);
        }
    }

    #[test]
    fn empty_delta_refresh_is_a_no_op() {
        let (g, a, x) = setup(28, 60, 4, 79);
        let steps = [PropagationStep::Finite(1), PropagationStep::Infinite];
        let mut chain = ApprChain::build(&a, &x, 0.25, &steps, PprSolver::Push);
        let z_before = chain.z_inf().expect("∞ chain").clone();
        let bound_before = chain.staleness_bound();
        let cumulative_before = chain.cumulative_staleness_bound();
        drop(g);

        let stats = chain.refresh(&a, &x, &[]);
        assert_eq!(stats.rows_recomputed, 0);
        assert_eq!(stats.rows_per_level, vec![0]);
        assert_eq!(stats.inf_iterations, 0);
        assert_eq!(stats.inf_solver, None);
        assert_eq!(stats.staleness_bound, bound_before);
        assert_eq!(stats.cumulative_staleness_bound, cumulative_before);
        assert_eq!(chain.z_inf().expect("∞ chain").as_slice(), z_before.as_slice());
    }

    #[test]
    fn cumulative_bound_compounds_across_refreshes() {
        let (mut g, a, x) = setup(30, 70, 4, 80);
        let steps = [PropagationStep::Infinite];
        let alpha = 0.3;
        let mut chain = ApprChain::build(&a, &x, alpha, &steps, PprSolver::Push);
        let mut expected = chain.staleness_bound();
        assert_eq!(chain.cumulative_staleness_bound(), expected);
        let mut current = a;
        for _ in 0..3 {
            let (eu, ev) = absent_edge(&g, 30);
            let mut delta = CsrDelta::new();
            delta.insert_edge(eu, ev);
            let result = delta.apply(&mut g, &current, P_DEFAULT);
            let stats = chain.refresh(&result.a_tilde, &x, &result.touched);
            expected += stats.staleness_bound;
            assert_eq!(stats.cumulative_staleness_bound, expected);
            current = result.a_tilde;
        }
        assert!(chain.cumulative_staleness_bound() >= chain.staleness_bound());
    }

    /// Far below the paper's α range: `Auto` at α = 0.01 on a gapless ring.
    /// The cold solve and a refresh after a delta that touches every row
    /// both run power sweeps and certify a converged limit.
    #[test]
    fn auto_at_small_alpha_on_a_ring_converges_by_power() {
        let n = 400;
        let mut g = generators::cycle(n);
        let a = row_stochastic_default(&g);
        let mut rng = StdRng::seed_from_u64(82);
        let mut x = Mat::uniform(n, 4, 1.0, &mut rng);
        x.normalize_rows_l2();
        let alpha = 0.01;
        let cold = crate::propagation::propagate(&a, &x, alpha, PropagationStep::Infinite);
        let cold_bound = crate::propagation::ppr_staleness_bound(&a, &x, alpha, &cold);
        assert!(cold_bound < 1e-8, "cold solve certifies {cold_bound:e}");

        let steps = [PropagationStep::Infinite];
        let mut chain = ApprChain::build(&a, &x, alpha, &steps, PprSolver::Auto);
        let half = (n / 2) as u32;
        let mut chords = CsrDelta::new();
        for u in 0..half {
            chords.insert_edge(u, u + half);
        }
        let result = chords.apply(&mut g, &a, P_DEFAULT);
        assert_eq!(result.touched.len(), n, "the chords touch every row");
        let stats = chain.refresh(&result.a_tilde, &x, &result.touched);
        assert_eq!(stats.inf_solver, Some(crate::propagation::InfRefreshKind::Power));
        assert!(stats.staleness_bound < 1e-8, "refresh certifies {:e}", stats.staleness_bound);
    }

    /// Forced `Power` and forced `Push` refresh the same local edit to the
    /// same limit within their certificates, and each reports what it ran;
    /// the finite levels do not depend on the solver at all.
    #[test]
    fn forced_power_and_push_agree_within_certificates() {
        let (mut g, a, x) = setup(60, 150, 4, 83);
        let steps = [PropagationStep::Finite(2), PropagationStep::Infinite];
        let alpha = 0.2;
        let mut power = ApprChain::build(&a, &x, alpha, &steps, PprSolver::Power);
        let mut push = ApprChain::build(&a, &x, alpha, &steps, PprSolver::Push);
        let (eu, ev) = absent_edge(&g, 60);
        let mut delta = CsrDelta::new();
        delta.insert_edge(eu, ev);
        let result = delta.apply(&mut g, &a, P_DEFAULT);
        let by_power = power.refresh(&result.a_tilde, &x, &result.touched);
        let by_push = push.refresh(&result.a_tilde, &x, &result.touched);
        assert_eq!(by_power.inf_solver, Some(crate::propagation::InfRefreshKind::Power));
        assert_eq!(by_push.inf_solver, Some(crate::propagation::InfRefreshKind::Push));
        assert_eq!(by_power.affected, by_push.affected);
        assert_eq!(power.iterate(2).as_slice(), push.iterate(2).as_slice());
        let gap = max_abs_gap(power.z_inf().expect("∞ chain"), push.z_inf().expect("∞ chain"));
        assert!(
            gap <= by_power.staleness_bound + by_push.staleness_bound,
            "power and push ∞ blocks differ by {gap}, certificates allow {} + {}",
            by_power.staleness_bound,
            by_push.staleness_bound
        );
    }

    /// Onboarded nodes join the `∞` block too: after a delta that adds two
    /// connected nodes, the refreshed limit matches a rebuild within the
    /// certificates and the finite level stays bitwise.
    #[test]
    fn onboarding_refresh_with_infinity_stays_within_certificate() {
        let (mut g, a, x) = setup(40, 90, 3, 84);
        let steps = [PropagationStep::Finite(1), PropagationStep::Infinite];
        let alpha = 0.25;
        let mut chain = ApprChain::build(&a, &x, alpha, &steps, PprSolver::Auto);
        let mut delta = CsrDelta::new();
        delta.add_nodes(2).insert_edge(40, 3).insert_edge(41, 40).insert_edge(41, 17);
        let result = delta.apply(&mut g, &a, P_DEFAULT);
        let mut x2 = Mat::zeros(42, 3);
        x2.as_mut_slice()[..40 * 3].copy_from_slice(x.as_slice());
        x2.row_mut(40).copy_from_slice(&[0.6, 0.8, 0.0]);
        x2.row_mut(41).copy_from_slice(&[0.0, 0.6, 0.8]);

        let stats = chain.refresh(&result.a_tilde, &x2, &result.touched);
        assert_eq!(chain.num_nodes(), 42);
        assert!(stats.inf_solver.is_some(), "the ∞ block must be refreshed");
        let rebuilt = ApprChain::build(&result.a_tilde, &x2, alpha, &steps, PprSolver::Power);
        assert_eq!(chain.iterate(1).as_slice(), rebuilt.iterate(1).as_slice());
        let gap = max_abs_gap(chain.z_inf().expect("∞ chain"), rebuilt.z_inf().expect("∞ chain"));
        assert!(
            gap <= stats.staleness_bound + rebuilt.staleness_bound(),
            "onboarded ∞ block off by {gap}, certificates allow {} + {}",
            stats.staleness_bound,
            rebuilt.staleness_bound()
        );
    }

    #[test]
    fn auto_routes_local_edit_to_push_and_volumetric_to_global() {
        let (mut g, a, x) = setup(200, 500, 3, 81);
        let steps = [PropagationStep::Infinite];
        let alpha = 0.25;
        let mut chain = ApprChain::build(&a, &x, alpha, &steps, PprSolver::Auto);

        // One absent edge: touched volume is two rows — strictly local.
        let (eu, ev) = absent_edge(&g, 200);
        let mut delta = CsrDelta::new();
        delta.insert_edge(eu, ev);
        let result = delta.apply(&mut g, &a, P_DEFAULT);
        let stats = chain.refresh(&result.a_tilde, &x, &result.touched);
        assert_eq!(stats.inf_solver, Some(crate::propagation::InfRefreshKind::Push));

        // A delta touching most rows: volumetric, must go global (power at
        // this α).
        let mut big = CsrDelta::new();
        for u in 0..199u32 {
            if !g.has_edge(u, u + 1) {
                big.insert_edge(u, u + 1);
            }
        }
        let result = big.apply(&mut g, &result.a_tilde, P_DEFAULT);
        let stats = chain.refresh(&result.a_tilde, &x, &result.touched);
        assert_eq!(stats.inf_solver, Some(crate::propagation::InfRefreshKind::Power));
    }
}
