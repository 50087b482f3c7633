//! Staleness-aware dynamic serving: versioned store generations over a
//! live [`gcon_core::ApprChain`].
//!
//! [`DynamicServingModel`] wraps the frozen-store serving path with a
//! mutation API: [`DynamicServingModel::apply_delta`] takes a
//! [`gcon_graph::CsrDelta`] (edge inserts/removes + node onboarding),
//! patches the row-stochastic `Ã` in O(Δ) touched rows, incrementally
//! refreshes the propagation chain (finite scales bitwise, the `∞` scale
//! warm-started with a certified staleness bound), patches only the
//! affected rows of the assembled store, and publishes the result as a new
//! immutable [`ServingGeneration`].
//!
//! # Concurrency model
//!
//! Refreshes serialize on an internal mutex; queries never wait on it.
//! [`DynamicServingModel::snapshot`] hands out an
//! `Arc<`[`ServingGeneration`]`>` under a brief read lock — a query running
//! against generation `g` keeps answering from `g`'s frozen store even
//! while `apply_delta` builds generation `g+1`, and sees the new store only
//! when it next snapshots. Every generation carries its own certified
//! staleness bound ([`ServingGeneration::staleness_bound`]), so a client
//! can report per-query staleness: the answer it got is from generation
//! `g`, whose `∞`-scale block is within that bound of exact (`0.0` for
//! finite-only models — those generations are bitwise exact).
//!
//! # Onboarding without a store rebuild
//!
//! Two tiers, matching how much work the caller wants to pay:
//!
//! - [`DynamicServingModel::onboard_logits`] answers queries for **unseen**
//!   nodes immediately: a batched one-hop gather (Eq. 16 semantics — only
//!   the query node's own edges) against the live encoded features, no
//!   store mutation at all. Exactly the private-mode aggregation; for
//!   public-mode stores it is the admissible one-hop approximation.
//! - [`CsrDelta::add_nodes`](gcon_graph::CsrDelta::add_nodes) +
//!   [`apply_delta`](DynamicServingModel::apply_delta) onboards nodes into
//!   the store itself (they become ordinary query targets of the next
//!   generation).
//!
//! # Solver knob
//!
//! The chain's `∞`-scale solver follows the trained model's
//! `GconConfig::ppr_solver`; `GCON_REFRESH_SOLVER=auto|power|push`
//! overrides it process-wide (resolved once, like `GCON_STORE_DTYPE`).
//! `push` forces local forward-push residual maintenance on every refresh;
//! `auto` picks push or warm power per delta from the touched-set volume
//! (see `gcon_core::propagation::plan_inf_refresh`).

use crate::model::{ServingMode, ServingModel, StoreDtype};
use gcon_core::propagation::PropagationStep;
use gcon_core::{ApprChain, InfRefreshKind, PprSolver, TrainedGcon};
use gcon_graph::normalize::row_stochastic;
use gcon_graph::{Csr, CsrDelta, Graph};
use gcon_linalg::{ops, Mat};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// One immutable published store version: the frozen [`ServingModel`] plus
/// the generation's provenance (counter + staleness certificate). Obtained
/// from [`DynamicServingModel::snapshot`]; queries run through
/// [`ServingGeneration::model`] exactly like on a static store.
#[derive(Clone, Debug)]
pub struct ServingGeneration {
    model: ServingModel,
    generation: u64,
    staleness_bound: f64,
}

impl ServingGeneration {
    /// The frozen store this generation serves queries from.
    pub fn model(&self) -> &ServingModel {
        &self.model
    }

    /// Monotone generation counter (0 = the initial build; each
    /// successfully applied delta increments it).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Certified bound on how far this generation's `∞`-scale store block
    /// is from the exact fixed point, in feature max-norm *before* the
    /// `1/s` concatenation scaling and head product (`0.0` for finite-only
    /// models: those blocks are bitwise exact). A served logit inherits at
    /// most `bound/s · ‖Θ column‖₁` of drift from staleness.
    pub fn staleness_bound(&self) -> f64 {
        self.staleness_bound
    }
}

/// What one [`DynamicServingModel::apply_delta`] call did — returned to the
/// caller and what `bench_updates` reports.
#[derive(Clone, Debug)]
pub struct DeltaOutcome {
    /// The generation the delta published (queries snapshotting from now on
    /// see it).
    pub generation: u64,
    /// The published generation's staleness certificate (see
    /// [`ServingGeneration::staleness_bound`]).
    pub staleness_bound: f64,
    /// Rows re-derived across all finite propagation levels.
    pub rows_recomputed: usize,
    /// Rows re-derived per finite level, outermost first (sums to
    /// `rows_recomputed`).
    pub rows_per_level: Vec<usize>,
    /// Distinct store rows patched (the affected set at the deepest level).
    pub affected_rows: usize,
    /// Warm iterations/sweeps of the `∞`-scale refresh (0 without `∞`).
    pub inf_iterations: usize,
    /// The solver the `∞`-scale refresh actually ran (`None` without `∞` or
    /// when the delta was fully ineffective).
    pub inf_solver: Option<InfRefreshKind>,
    /// Sum of the certified staleness bounds of every `∞` state this model
    /// has published (build + each effective refresh) — the triangle-
    /// inequality budget for comparing refresh histories (see
    /// [`gcon_core::RefreshStats::cumulative_staleness_bound`]).
    pub cumulative_staleness_bound: f64,
    /// Node ids onboarded by this delta (empty range when none).
    pub onboarded: Range<u32>,
}

/// A query for a node the store has never seen: its raw feature vector and
/// its own edge list into the *existing* node set (Eq. 16 admissibility —
/// the query node knows exactly its own edges).
#[derive(Clone, Debug)]
pub struct OnboardQuery {
    /// Raw (un-encoded) feature vector, same width the model was trained
    /// on.
    pub features: Vec<f64>,
    /// Neighbor ids among the currently stored nodes (sorted, deduplicated;
    /// may be empty for an isolated node).
    pub neighbors: Vec<u32>,
}

/// The heavy mutable half: the live graph, the encoded features, the
/// propagation chain, and the assembled f64 master store. Guarded by one
/// mutex so deltas serialize; the query path never touches it.
#[derive(Debug)]
struct RefreshState {
    graph: Graph,
    a_tilde: Csr,
    /// Encoded + row-normalized features `X̄` (grows with onboarding).
    x_enc: Mat,
    chain: ApprChain,
    /// Assembled, `1/s`-scaled f64 store (the master each generation's
    /// [`ServingModel`] is frozen from).
    store: Mat,
    generation: u64,
}

/// A mutable, versioned serving store over a dynamic graph. See
/// [`Self::apply_delta`] and [`Self::snapshot`] for the concurrency and
/// staleness contract.
#[derive(Debug)]
pub struct DynamicServingModel {
    state: Mutex<RefreshState>,
    current: RwLock<Arc<ServingGeneration>>,
    /// Latched when a poisoned `current` lock was recovered: the last
    /// published generation is still served, but a writer (or a reader
    /// holding the lock) has panicked since. Surfaced via
    /// [`Self::is_degraded`] and the server's stats frame.
    degraded: AtomicBool,
    model: TrainedGcon,
    mode: ServingMode,
    dtype: StoreDtype,
}

impl DynamicServingModel {
    /// Builds generation 0 in the process-wide default dtype
    /// ([`StoreDtype::from_env`]). Takes the graph by value — the dynamic
    /// model owns and mutates it from here on.
    pub fn build(model: &TrainedGcon, graph: Graph, features: &Csr, mode: ServingMode) -> Self {
        Self::build_with_dtype(model, graph, features, mode, StoreDtype::from_env())
    }

    /// [`DynamicServingModel::build`] with an explicit store dtype.
    ///
    /// Generation 0 is **bitwise identical** to
    /// [`ServingModel::build_with_dtype`] on the same inputs (the chain
    /// replays the identical feature-stage arithmetic), so going dynamic
    /// costs no exactness — pinned by this module's tests and the
    /// `serving_equivalence` fingerprint matrix.
    pub fn build_with_dtype(
        model: &TrainedGcon,
        graph: Graph,
        features: &Csr,
        mode: ServingMode,
        dtype: StoreDtype,
    ) -> Self {
        assert_eq!(
            graph.num_nodes(),
            features.rows(),
            "DynamicServingModel::build: graph has {} nodes but features have {} rows",
            graph.num_nodes(),
            features.rows()
        );
        let solver = refresh_solver_env().unwrap_or(model.config.ppr_solver);
        let mut x_enc = model.encoder.encode(features);
        x_enc.normalize_rows_l2();
        let a_tilde = row_stochastic(&graph, model.config.clip_p);
        let chain = ApprChain::build(
            &a_tilde,
            &x_enc,
            chain_alpha(model, mode),
            &chain_steps(model, mode),
            solver,
        );
        let store = assemble_store(&chain, &model.config.steps, mode);
        let generation = ServingGeneration {
            model: ServingModel::from_store(store.clone(), &model.theta, mode, dtype),
            generation: 0,
            staleness_bound: chain.staleness_bound(),
        };
        Self {
            state: Mutex::new(RefreshState { graph, a_tilde, x_enc, chain, store, generation: 0 }),
            current: RwLock::new(Arc::new(generation)),
            degraded: AtomicBool::new(false),
            model: model.clone(),
            mode,
            dtype,
        }
    }

    /// The current published generation. The returned `Arc` stays valid
    /// (and keeps answering from its frozen store) across any number of
    /// later [`apply_delta`](Self::apply_delta) calls.
    ///
    /// A poisoned generation lock (some thread panicked while holding it)
    /// does **not** cascade into readers: the slot always holds a
    /// fully-constructed `Arc` — it is only ever replaced whole, never
    /// mutated in place — so the last published generation is still
    /// internally consistent. `snapshot` recovers it via
    /// [`std::sync::PoisonError::into_inner`] and latches
    /// [`Self::is_degraded`] so operators see that a panic happened.
    pub fn snapshot(&self) -> Arc<ServingGeneration> {
        match self.current.read() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => {
                self.degraded.store(true, Ordering::Relaxed);
                poisoned.into_inner().clone()
            }
        }
    }

    /// True once a poisoned generation lock has been observed (a refresh or
    /// query thread panicked). Serving continues from the last published
    /// generation, but the process deserves a restart/investigation; the
    /// `gcond` stats frame forwards this flag.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Which inference protocol the store reproduces.
    pub fn mode(&self) -> ServingMode {
        self.mode
    }

    /// The dtype generations are frozen in.
    pub fn store_dtype(&self) -> StoreDtype {
        self.dtype
    }

    /// Applies a batched graph delta and publishes the next generation.
    ///
    /// `onboard_features` carries one raw feature row per node the delta
    /// onboards (`None` when it onboards none); rows are encoded with the
    /// model's public encoder, which is row-local, so existing nodes'
    /// encodings are untouched bitwise. Edge mutations re-derive only
    /// delta-reachable rows (see [`gcon_core::refresh`]); for finite-step
    /// models the published store is **bitwise identical** to a full
    /// rebuild on the mutated graph, at O(affected) cost.
    ///
    /// Refreshes serialize; concurrent queries keep reading the previous
    /// generation until this returns.
    ///
    /// A **fully ineffective** delta — every edge operation cancels against
    /// the current graph (e.g. a coalesced pass whose inserts and removes
    /// netted out) and no nodes are onboarded — publishes nothing: the store
    /// is bitwise unchanged, so the returned outcome carries the *current*
    /// generation and zero work counters instead of burning a generation on
    /// a no-op.
    pub fn apply_delta(&self, delta: &CsrDelta, onboard_features: Option<&Csr>) -> DeltaOutcome {
        let mut state = self.state.lock().expect("refresh state poisoned");
        let result = {
            let RefreshState { graph, a_tilde, .. } = &mut *state;
            delta.apply(graph, a_tilde, self.model.config.clip_p)
        };
        let onboarded = result.onboarded.clone();
        let num_new = (onboarded.end - onboarded.start) as usize;
        let provided = onboard_features.map_or(0, Csr::rows);
        assert_eq!(
            provided, num_new,
            "apply_delta: delta onboards {num_new} nodes but {provided} feature rows were given"
        );
        if num_new > 0 {
            let raw = onboard_features.expect("checked above");
            let mut enc = self.model.encoder.encode(raw);
            enc.normalize_rows_l2();
            let (n_old, d1) = state.x_enc.shape();
            let mut grown = Mat::zeros(n_old + num_new, d1);
            grown.as_mut_slice()[..n_old * d1].copy_from_slice(state.x_enc.as_slice());
            grown.as_mut_slice()[n_old * d1..].copy_from_slice(enc.as_slice());
            state.x_enc = grown;
        }

        let stats = {
            let RefreshState { chain, x_enc, .. } = &mut *state;
            chain.refresh(&result.a_tilde, x_enc, &result.touched)
        };
        state.a_tilde = result.a_tilde;
        if result.touched.is_empty() && num_new == 0 {
            // Fully ineffective delta: `Ã` and every chain iterate are
            // bitwise unchanged (the chain refresh early-outed the same
            // way), so there is nothing to publish.
            return DeltaOutcome {
                generation: state.generation,
                staleness_bound: stats.staleness_bound,
                rows_recomputed: 0,
                rows_per_level: stats.rows_per_level,
                affected_rows: 0,
                inf_iterations: 0,
                inf_solver: None,
                cumulative_staleness_bound: stats.cumulative_staleness_bound,
                onboarded,
            };
        }
        {
            let RefreshState { chain, store, .. } = &mut *state;
            patch_store(store, chain, &self.model.config.steps, self.mode, &stats.affected);
        }
        state.generation += 1;
        let generation = ServingGeneration {
            model: ServingModel::from_store(
                state.store.clone(),
                &self.model.theta,
                self.mode,
                self.dtype,
            ),
            generation: state.generation,
            staleness_bound: stats.staleness_bound,
        };
        // Publishing replaces the whole Arc, so a poisoned lock is safe to
        // recover here too — the new generation is already fully built.
        let generation = Arc::new(generation);
        match self.current.write() {
            Ok(mut guard) => *guard = generation,
            Err(poisoned) => {
                self.degraded.store(true, Ordering::Relaxed);
                *poisoned.into_inner() = generation;
            }
        }
        DeltaOutcome {
            generation: state.generation,
            staleness_bound: stats.staleness_bound,
            rows_recomputed: stats.rows_recomputed,
            rows_per_level: stats.rows_per_level,
            affected_rows: stats.affected.len(),
            inf_iterations: stats.inf_iterations,
            inf_solver: stats.inf_solver,
            cumulative_staleness_bound: stats.cumulative_staleness_bound,
            onboarded,
        }
    }

    /// Batched logits for nodes the store has never seen — the PR 5 open
    /// item. Each query is answered by the Eq. 16 one-hop gather against
    /// the live encoded features (`off = min(1/(k+1), clip_p)` per neighbor,
    /// exactly the training-side normalization), assembled per the model's
    /// steps, `1/s`-scaled, and pushed through the f64 head. No store
    /// mutation, no generation bump: the store answers as if the node
    /// existed, using only edges the query node itself knows.
    ///
    /// Runs in f64 regardless of the store dtype (one small `q × d` block;
    /// the result is deterministic for a given query and state but not part
    /// of the stored-node bitwise contract). Row `r` answers `queries[r]`.
    pub fn onboard_logits(&self, queries: &[OnboardQuery]) -> Mat {
        let state = self.state.lock().expect("refresh state poisoned");
        let steps = &self.model.config.steps;
        let alpha_i = self.model.config.alpha_inference;
        let clip_p = self.model.config.clip_p;
        let d1 = state.x_enc.cols();
        let n = state.x_enc.rows();
        let d0 = queries.first().map_or(0, |q| q.features.len());
        // Query rows arrive dense (the wire format); the encoder reads their
        // nonzero entries.
        let mut raw = Csr::new(d0);
        for q in queries {
            assert_eq!(q.features.len(), d0, "onboard_logits: ragged feature rows");
            raw.push_dense_row(&q.features);
        }
        let mut xq = self.model.encoder.encode(&raw);
        xq.normalize_rows_l2();

        let needs_hop = steps.iter().any(|s| !matches!(s, PropagationStep::Finite(0)));
        let mut z = Mat::zeros(queries.len(), steps.len() * d1);
        let mut hop = vec![0.0_f64; d1];
        for (r, q) in queries.iter().enumerate() {
            if needs_hop {
                // Ã row of the hypothetical node: `off` per neighbor plus the
                // Lemma-1 self weight, mirroring `row_stochastic`.
                let k = q.neighbors.len();
                let off = (1.0 / (k as f64 + 1.0)).min(clip_p);
                let mut off_sum = 0.0;
                for _ in 0..k {
                    off_sum += off;
                }
                let self_w = 1.0 - off_sum;
                hop.iter_mut().for_each(|h| *h = 0.0);
                for &v in &q.neighbors {
                    assert!(
                        (v as usize) < n,
                        "onboard_logits: neighbor {v} not in the {n}-node store"
                    );
                    for (h, &xv) in hop.iter_mut().zip(state.x_enc.row(v as usize)) {
                        *h += off * xv;
                    }
                }
                // R̂ = (1−α_I)Ã + α_I·I applied to the query row.
                for (h, &xqv) in hop.iter_mut().zip(xq.row(r)) {
                    *h = (1.0 - alpha_i) * (*h + self_w * xqv) + alpha_i * xqv;
                }
            }
            let zrow = z.row_mut(r);
            for (i, step) in steps.iter().enumerate() {
                let src: &[f64] = match step {
                    PropagationStep::Finite(0) => xq.row(r),
                    _ => &hop,
                };
                zrow[i * d1..(i + 1) * d1].copy_from_slice(src);
            }
        }
        drop(state);
        let inv_s = 1.0 / steps.len() as f64;
        z.map_inplace(|v| v * inv_s);
        ops::matmul(&z, &self.model.theta)
    }
}

/// The restart probability the chain propagates with in each mode: training
/// `α` for the full public propagation, `α_I` for the private one-hop.
fn chain_alpha(model: &TrainedGcon, mode: ServingMode) -> f64 {
    match mode {
        ServingMode::Public => model.config.alpha,
        ServingMode::Private => model.config.alpha_inference,
    }
}

/// The iterate levels the chain must keep per mode. Public: the model's own
/// steps. Private: level 0 (`X̄`) plus — when any step aggregates — level 1,
/// whose recursion step `(1−α_I)ÃZ₀ + α_I X̄` *is* the Eq. 16 one-hop.
fn chain_steps(model: &TrainedGcon, mode: ServingMode) -> Vec<PropagationStep> {
    match mode {
        ServingMode::Public => model.config.steps.clone(),
        ServingMode::Private => {
            let needs_hop =
                model.config.steps.iter().any(|s| !matches!(s, PropagationStep::Finite(0)));
            if needs_hop {
                vec![PropagationStep::Finite(0), PropagationStep::Finite(1)]
            } else {
                vec![PropagationStep::Finite(0)]
            }
        }
    }
}

/// The chain block a concatenation slot reads in each mode (private maps
/// every aggregating step to the one-hop level, mirroring
/// `gcon_core::infer::private_features`).
fn block_for(chain: &ApprChain, mode: ServingMode, step: PropagationStep) -> &Mat {
    match (mode, step) {
        (ServingMode::Public, PropagationStep::Finite(m)) => chain.iterate(m),
        (ServingMode::Public, PropagationStep::Infinite) => {
            chain.z_inf().expect("public ∞ chains carry z_inf")
        }
        (ServingMode::Private, PropagationStep::Finite(0)) => chain.iterate(0),
        (ServingMode::Private, _) => chain.iterate(1),
    }
}

/// Assembles the full `1/s`-scaled store from the chain — bitwise the same
/// per-element arithmetic (block copy, then one `·1/s` multiply) as the
/// feature-stage entry points.
fn assemble_store(chain: &ApprChain, steps: &[PropagationStep], mode: ServingMode) -> Mat {
    let (n, d) = (chain.num_nodes(), chain.iterate(0).cols());
    let mut out = Mat::zeros(n, steps.len() * d);
    for (i, &s) in steps.iter().enumerate() {
        out.copy_into_columns(i * d, block_for(chain, mode, s));
    }
    let inv_s = 1.0 / steps.len() as f64;
    out.map_inplace(|v| v * inv_s);
    out
}

/// Patches the master store after a chain refresh: affected rows of finite
/// blocks are rewritten (each element one block read + one `·1/s` multiply,
/// the same arithmetic the full assembly performs — so the patched store
/// stays bitwise equal to a from-scratch assembly); `∞` blocks are
/// rewritten for every row (a warm solve perturbs all of them). Grows the
/// store first when the chain onboarded nodes.
fn patch_store(
    store: &mut Mat,
    chain: &ApprChain,
    steps: &[PropagationStep],
    mode: ServingMode,
    affected: &[u32],
) {
    let n = chain.num_nodes();
    let d = chain.iterate(0).cols();
    let inv_s = 1.0 / steps.len() as f64;
    if store.rows() < n {
        let old = store.rows();
        let mut grown = Mat::zeros(n, steps.len() * d);
        grown.as_mut_slice()[..old * steps.len() * d].copy_from_slice(store.as_slice());
        *store = grown;
    }
    for (i, &s) in steps.iter().enumerate() {
        let block = block_for(chain, mode, s);
        let full_rewrite = matches!(s, PropagationStep::Infinite);
        let mut write_row = |u: usize| {
            let dst = &mut store.row_mut(u)[i * d..(i + 1) * d];
            for (o, &v) in dst.iter_mut().zip(block.row(u)) {
                *o = v * inv_s;
            }
        };
        if full_rewrite {
            (0..n).for_each(&mut write_row);
        } else {
            affected.iter().for_each(|&u| write_row(u as usize));
        }
    }
}

/// Parses a `GCON_REFRESH_SOLVER` value. Pure and unit-tested; `None` means
/// "unrecognized — fall back to the model's configured solver".
pub(crate) fn parse_refresh_solver(value: &str) -> Option<PprSolver> {
    match value.to_ascii_lowercase().as_str() {
        "auto" => Some(PprSolver::Auto),
        "power" => Some(PprSolver::Power),
        "push" => Some(PprSolver::Push),
        _ => None,
    }
}

/// The process-wide `GCON_REFRESH_SOLVER` override, resolved once.
fn refresh_solver_env() -> Option<PprSolver> {
    static INIT: OnceLock<Option<PprSolver>> = OnceLock::new();
    *INIT.get_or_init(|| {
        gcon_runtime::envknob::env_knob(
            "gcon-serve",
            "GCON_REFRESH_SOLVER",
            None,
            "auto|power|push",
            "the model's solver",
            |v| parse_refresh_solver(v).map(Some),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_trained;
    use gcon_linalg::vecops;

    fn onboard_row(seed: usize, d0: usize) -> Vec<f64> {
        (0..d0).map(|j| (((seed * 31 + j * 7) % 23) as f64 / 23.0) - 0.4).collect()
    }

    #[test]
    fn generation_zero_is_bitwise_static_build() {
        let (model, graph, x) = tiny_trained();
        for dtype in [StoreDtype::F64, StoreDtype::F32] {
            for mode in [ServingMode::Public, ServingMode::Private] {
                let dynamic =
                    DynamicServingModel::build_with_dtype(model, graph.clone(), x, mode, dtype);
                let snap = dynamic.snapshot();
                assert_eq!(snap.generation(), 0);
                let fixed = ServingModel::build_with_dtype(model, graph, x, mode, dtype);
                match dtype {
                    StoreDtype::F64 => assert_eq!(
                        snap.model().store_f64().unwrap().as_slice(),
                        fixed.store_f64().unwrap().as_slice(),
                        "{} f64 store must match the static build bitwise",
                        mode.name()
                    ),
                    StoreDtype::F32 => assert_eq!(
                        snap.model().store_f32().unwrap().as_slice(),
                        fixed.store_f32().unwrap().as_slice(),
                        "{} f32 store must match the static build bitwise",
                        mode.name()
                    ),
                }
                assert_eq!(snap.staleness_bound(), 0.0, "finite-only model is exact");
            }
        }
    }

    /// Regression for the poison cascade: a thread panicking while holding
    /// the generation lock must not take down every later reader. The old
    /// `snapshot()` `expect`ed the lock and propagated the poison forever.
    #[test]
    fn snapshot_survives_poisoned_generation_lock() {
        let (model, graph, x) = tiny_trained();
        let dynamic = DynamicServingModel::build_with_dtype(
            model,
            graph.clone(),
            x,
            ServingMode::Private,
            StoreDtype::F64,
        );
        let before = dynamic.snapshot();
        assert!(!dynamic.is_degraded());

        // Poison `current` the way a crashing publisher would: panic while
        // holding the write guard.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = dynamic.current.write().unwrap();
            panic!("simulated publisher crash");
        }));
        assert!(poison.is_err());
        assert!(dynamic.current.is_poisoned());

        // Readers recover the last published generation and flag degraded.
        let after = dynamic.snapshot();
        assert_eq!(after.generation(), before.generation());
        assert_eq!(
            after.model().store_f64().unwrap().as_slice(),
            before.model().store_f64().unwrap().as_slice(),
            "recovered generation must be the same published store"
        );
        assert!(dynamic.is_degraded(), "poison recovery must latch the degraded flag");

        // Publishing still works over the poisoned lock too.
        let mut delta = CsrDelta::new();
        delta.insert_edge(1, 5);
        let outcome = dynamic.apply_delta(&delta, None);
        assert_eq!(outcome.generation, 1);
        assert_eq!(dynamic.snapshot().generation(), 1);
    }

    #[test]
    fn apply_delta_matches_static_rebuild_bitwise() {
        let (model, graph, x) = tiny_trained();
        for mode in [ServingMode::Public, ServingMode::Private] {
            let dynamic = DynamicServingModel::build_with_dtype(
                model,
                graph.clone(),
                x,
                mode,
                StoreDtype::F64,
            );
            let mut reference_graph = graph.clone();
            let mut delta = CsrDelta::new();
            let (u, v) = (3u32, 29u32);
            if reference_graph.neighbors(u).contains(&v) {
                delta.remove_edge(u, v);
            } else {
                delta.insert_edge(u, v);
            }
            delta.insert_edge(10, 40);
            let outcome = dynamic.apply_delta(&delta, None);
            assert_eq!(outcome.generation, 1);
            assert!(outcome.onboarded.is_empty());
            assert!(outcome.affected_rows < graph.num_nodes());
            assert_eq!(outcome.staleness_bound, 0.0);

            // Reference: mutate a fresh graph the same way, rebuild statically.
            let mut d2 = CsrDelta::new();
            if graph.neighbors(u).contains(&v) {
                d2.remove_edge(u, v);
            } else {
                d2.insert_edge(u, v);
            }
            d2.insert_edge(10, 40);
            let a0 = row_stochastic(&reference_graph, model.config.clip_p);
            let _ = d2.apply(&mut reference_graph, &a0, model.config.clip_p);
            let rebuilt =
                ServingModel::build_with_dtype(model, &reference_graph, x, mode, StoreDtype::F64);
            let snap = dynamic.snapshot();
            assert_eq!(
                snap.model().store_f64().unwrap().as_slice(),
                rebuilt.store_f64().unwrap().as_slice(),
                "{}: refreshed store must equal a from-scratch rebuild bitwise",
                mode.name()
            );
        }
    }

    #[test]
    fn onboarding_delta_grows_store_and_matches_rebuild() {
        let (model, graph, x) = tiny_trained();
        let n0 = graph.num_nodes();
        let d0 = x.cols();
        let dynamic = DynamicServingModel::build_with_dtype(
            model,
            graph.clone(),
            x,
            ServingMode::Public,
            StoreDtype::F64,
        );
        let mut delta = CsrDelta::new();
        delta.add_nodes(2);
        delta.insert_edge(n0 as u32, 0).insert_edge(n0 as u32 + 1, n0 as u32);
        let new_feats = Csr::from_dense(&Mat::from_fn(2, d0, |r, c| onboard_row(r + 1, d0)[c]));
        let outcome = dynamic.apply_delta(&delta, Some(&new_feats));
        assert_eq!(outcome.onboarded, n0 as u32..n0 as u32 + 2);
        let snap = dynamic.snapshot();
        assert_eq!(snap.model().num_nodes(), n0 + 2);

        // Reference: the same world built statically.
        let mut g2 = graph.clone();
        let a0 = row_stochastic(&g2, model.config.clip_p);
        let mut d2 = CsrDelta::new();
        d2.add_nodes(2);
        d2.insert_edge(n0 as u32, 0).insert_edge(n0 as u32 + 1, n0 as u32);
        let _ = d2.apply(&mut g2, &a0, model.config.clip_p);
        let mut x2 = x.clone();
        for r in 0..2 {
            let (cols, vals) = new_feats.row(r);
            x2.push_row(cols.iter().copied().zip(vals.iter().copied()));
        }
        let rebuilt =
            ServingModel::build_with_dtype(model, &g2, &x2, ServingMode::Public, StoreDtype::F64);
        assert_eq!(
            snap.model().store_f64().unwrap().as_slice(),
            rebuilt.store_f64().unwrap().as_slice(),
            "onboarded store must equal a from-scratch rebuild bitwise"
        );
    }

    #[test]
    fn old_snapshots_survive_refreshes() {
        let (model, graph, x) = tiny_trained();
        let dynamic = DynamicServingModel::build_with_dtype(
            model,
            graph.clone(),
            x,
            ServingMode::Public,
            StoreDtype::F64,
        );
        let before = dynamic.snapshot();
        let logits_before = before.model().logits(7);
        let mut delta = CsrDelta::new();
        delta.insert_edge(7, 23).insert_edge(7, 31);
        let outcome = dynamic.apply_delta(&delta, None);
        assert_eq!(outcome.generation, 1);
        // The old generation still answers from its frozen store, bitwise.
        assert_eq!(before.model().logits(7), logits_before);
        assert_eq!(before.generation(), 0);
        // The new generation sees the mutation.
        let after = dynamic.snapshot();
        assert_eq!(after.generation(), 1);
        assert_ne!(after.model().logits(7), logits_before, "node 7 gained edges");
    }

    #[test]
    fn onboard_logits_match_private_store_row_semantics() {
        let (model, graph, x) = tiny_trained();
        let dynamic = DynamicServingModel::build_with_dtype(
            model,
            graph.clone(),
            x,
            ServingMode::Private,
            StoreDtype::F64,
        );
        // Replay an existing node as if it were unseen: same raw features,
        // same neighbor list. The gather accumulates in a different order
        // than the pooled kernel, so compare to tolerance, not bitwise.
        let node = 5u32;
        let query = OnboardQuery {
            features: x.to_dense().row(node as usize).to_vec(),
            neighbors: graph.neighbors(node).to_vec(),
        };
        let got = dynamic.onboard_logits(&[query]);
        let want = dynamic.snapshot().model().logits(node as usize);
        assert_eq!(got.shape(), (1, model.num_classes));
        for (g, w) in got.row(0).iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "onboard replay drifted: {g} vs {w}");
        }
        // Hard predictions agree.
        assert_eq!(vecops::argmax(got.row(0)), dynamic.snapshot().model().predict(node as usize));
    }

    #[test]
    fn onboard_logits_isolated_node_is_graph_free() {
        let (model, graph, x) = tiny_trained();
        let d0 = x.cols();
        let dynamic = DynamicServingModel::build_with_dtype(
            model,
            graph.clone(),
            x,
            ServingMode::Private,
            StoreDtype::F64,
        );
        let feats = onboard_row(9, d0);
        let isolated = OnboardQuery { features: feats.clone(), neighbors: vec![] };
        let social = OnboardQuery { features: feats, neighbors: graph.neighbors(0).to_vec() };
        let logits = dynamic.onboard_logits(&[isolated, social]);
        assert_eq!(logits.rows(), 2);
        assert!(logits.is_finite());
        // Same features, different edges ⇒ different aggregates (the hop
        // actually reads the neighbor rows).
        assert_ne!(logits.row(0), logits.row(1));
    }

    #[test]
    fn refresh_solver_parsing() {
        assert_eq!(parse_refresh_solver("auto"), Some(PprSolver::Auto));
        assert_eq!(parse_refresh_solver("POWER"), Some(PprSolver::Power));
        assert_eq!(parse_refresh_solver("cgnr"), None);
        assert_eq!(parse_refresh_solver("push"), Some(PprSolver::Push));
        assert_eq!(parse_refresh_solver("PUSH"), Some(PprSolver::Push));
        assert_eq!(parse_refresh_solver("fastest"), None);
        assert_eq!(parse_refresh_solver(""), None);
    }

    #[test]
    fn fully_ineffective_delta_publishes_nothing() {
        let (model, graph, x) = tiny_trained();
        let dynamic = DynamicServingModel::build_with_dtype(
            model,
            graph.clone(),
            x,
            ServingMode::Public,
            StoreDtype::F64,
        );
        // Insert an edge that is already present and remove one that is
        // absent: both operations cancel against the live graph.
        let present = (0u32, graph.neighbors(0)[0]);
        let absent = (0..graph.num_nodes() as u32)
            .flat_map(|u| (u + 1..graph.num_nodes() as u32).map(move |v| (u, v)))
            .find(|&(u, v)| !graph.has_edge(u, v))
            .expect("tiny graph is not complete");
        let mut delta = CsrDelta::new();
        delta.insert_edge(present.0, present.1).remove_edge(absent.0, absent.1);
        let before = dynamic.snapshot();
        let outcome = dynamic.apply_delta(&delta, None);
        assert_eq!(outcome.generation, 0, "no-op delta must not burn a generation");
        assert_eq!(outcome.inf_solver, None);
        assert_eq!((outcome.rows_recomputed, outcome.affected_rows), (0, 0));
        let after = dynamic.snapshot();
        assert_eq!(after.generation(), 0);
        assert!(Arc::ptr_eq(&before, &after), "the published generation must be untouched");
    }
}
