//! Delta-burst coalescing: concurrent graph edits share one refresh per
//! pass of the [flat combiner](crate::combine).
//!
//! A refresh is the expensive half of dynamic serving — even an O(affected)
//! incremental one pays the store patch, the generation clone, and (with an
//! `∞` scale) a certified solve — and refreshing per edit publishes one
//! generation per edit, most of them obsolete on arrival. In
//! [`DeltaCoalescer`], whoever finds no refresh running takes every queued
//! edit (up to [`CoalesceConfig::max_pending`]) as one pass: it merges the
//! deltas FIFO with [`CsrDelta::merge`](gcon_graph::CsrDelta::merge)
//! (last-op-wins netting, so an insert chased by a remove of the same edge
//! cancels), stacks the onboard feature rows in the same order, and runs
//! **one** [`DynamicServingModel::apply_delta`]: one refresh, one published
//! generation. There is no timer — a lone edit refreshes at once, and the
//! edits that arrive during a refresh form the next pass.
//!
//! # Equivalence contract
//!
//! Passes run one at a time in arrival order, so a pass applies what its
//! deltas, applied one by one, would (pinned by `CsrDelta::merge`'s
//! equivalence proptest and the tests below). For finite scales the result
//! is **bitwise identical** (both equal a from-scratch rebuild on the final
//! graph). At the `∞` scale each path certifies its own staleness bound
//! against the same fixed point, so they differ by at most the sum of the
//! final bounds, and the coalesced path compounds fewer refreshes, so its
//! cumulative bound ([`DeltaOutcome::cumulative_staleness_bound`]) is the
//! smaller one. A pass whose operations fully net out publishes nothing
//! ([`DynamicServingModel::apply_delta`]'s ineffective-delta early-out) and
//! is counted in [`CoalesceStats::cancelled_windows`].
//!
//! Onboarded node ids land exactly where individual `apply_delta` calls
//! would put them, since `merge` concatenates onboard counts in arrival
//! order. As with direct `apply_delta`, submitters that onboard nodes must
//! compute the new ids against a consistent view of the node count (e.g.
//! from a single writer thread per id range).

use crate::combine::{CombineError, Combiner, Pass};
use crate::dynamic::{DeltaOutcome, DynamicServingModel};
use gcon_graph::{Csr, CsrDelta};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pass bound for [`DeltaCoalescer`] — the mutation-side analogue of
/// [`BatchConfig`](crate::BatchConfig).
#[derive(Clone, Copy, Debug)]
pub struct CoalesceConfig {
    /// Hard upper bound on edits per refresh. Must be ≥ 1.
    pub max_pending: usize,
}

impl Default for CoalesceConfig {
    /// 32-edit passes.
    fn default() -> Self {
        Self { max_pending: 32 }
    }
}

impl CoalesceConfig {
    /// [`Default`] overridden by `GCON_COALESCE_MAX_PENDING` (edits per
    /// refresh). Unparsable values fall back to the default with a warning
    /// (via [`gcon_runtime::envknob`]).
    pub fn from_env() -> Self {
        let default = Self::default();
        Self {
            max_pending: gcon_runtime::envknob::env_knob(
                "gcon-serve",
                "GCON_COALESCE_MAX_PENDING",
                default.max_pending,
                "an integer ≥ 1",
                "32",
                |v| v.parse::<usize>().ok().filter(|&n| n >= 1),
            ),
        }
    }
}

/// Counters exposed by [`DeltaCoalescer::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Passes executed so far, failed ones included (= refresh attempts;
    /// `edits / windows` is the mean coalescing factor).
    pub windows: u64,
    /// Edits that ran in a pass so far.
    pub edits: u64,
    /// Largest pass executed so far.
    pub largest_window: usize,
    /// Passes whose merged delta fully netted out — no refresh ran, no
    /// generation was published.
    pub cancelled_windows: u64,
    /// Passes that panicked; each of their edits got a [`CombineError`].
    pub failed_windows: u64,
}

/// One edit: the delta, its onboard feature rows, and the outcome slot the
/// pass fills.
struct Edit {
    delta: CsrDelta,
    feats: Option<Csr>,
    outcome: Option<DeltaOutcome>,
}

/// Merges a pass FIFO and refreshes once.
struct DeltaPass<'m> {
    model: &'m DynamicServingModel,
    /// The pass's onboard feature blocks, FIFO (reused across passes).
    blocks: Vec<Csr>,
    cancelled: Arc<AtomicU64>,
}

impl Pass for DeltaPass<'_> {
    type Request = Edit;

    fn run(&mut self, batch: &mut [Edit]) {
        let (first, rest) = batch.split_first_mut().expect("a pass has at least one edit");
        let mut merged = std::mem::take(&mut first.delta);
        for edit in rest.iter() {
            merged.merge(&edit.delta);
        }
        self.blocks.clear();
        self.blocks.extend(batch.iter_mut().filter_map(|e| e.feats.take()));
        let feats = vstack(&self.blocks);
        let outcome = self.model.apply_delta(&merged, feats.as_ref());
        if outcome.affected_rows == 0 && outcome.onboarded.is_empty() {
            self.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        for edit in batch {
            edit.outcome = Some(outcome.clone());
        }
    }
}

/// A delta-burst coalescing scheduler over a [`DynamicServingModel`] — see
/// the module docs for the protocol and equivalence contract. Share one
/// instance between all mutating threads (`&DeltaCoalescer` under
/// `std::thread::scope`, or wrap scheduler + model in `Arc`s); every public
/// method takes `&self`. Queries bypass the coalescer entirely — they
/// snapshot the model as usual.
pub struct DeltaCoalescer<'m> {
    model: &'m DynamicServingModel,
    combiner: Combiner<DeltaPass<'m>>,
    cancelled: Arc<AtomicU64>,
}

impl<'m> DeltaCoalescer<'m> {
    /// Creates a coalescer over `model` with the given pass bound.
    ///
    /// # Panics
    /// Panics if `config.max_pending == 0`.
    pub fn new(model: &'m DynamicServingModel, config: CoalesceConfig) -> Self {
        assert!(config.max_pending >= 1, "DeltaCoalescer: max_pending must be ≥ 1");
        let cancelled = Arc::new(AtomicU64::new(0));
        let pass = DeltaPass { model, blocks: Vec::new(), cancelled: Arc::clone(&cancelled) };
        Self { model, combiner: Combiner::new(pass, config.max_pending), cancelled }
    }

    /// The model this coalescer mutates.
    pub fn model(&self) -> &DynamicServingModel {
        self.model
    }

    /// Execution counters so far.
    pub fn stats(&self) -> CoalesceStats {
        let s = self.combiner.stats();
        CoalesceStats {
            windows: s.passes,
            edits: s.requests,
            largest_window: s.largest_pass,
            cancelled_windows: self.cancelled.load(Ordering::Relaxed),
            failed_windows: s.failed_passes,
        }
    }

    /// Submits one edit and blocks until the pass it lands in has
    /// refreshed, returning the **pass's** outcome (every edit of a pass
    /// shares the one published generation), or the error of a pass that
    /// panicked. `onboard_features` carries one raw feature row per node
    /// `delta` onboards, exactly as in [`DynamicServingModel::apply_delta`].
    ///
    /// # Panics
    /// Panics if the feature row count does not match the delta's onboard
    /// count (checked on entry, before the edit is queued).
    pub fn try_submit(
        &self,
        delta: CsrDelta,
        onboard_features: Option<Csr>,
    ) -> Result<DeltaOutcome, CombineError> {
        let num_new = delta.num_new_nodes();
        let provided = onboard_features.as_ref().map_or(0, Csr::rows);
        assert_eq!(
            provided, num_new,
            "DeltaCoalescer::submit: delta onboards {num_new} nodes but {provided} feature rows \
             were given"
        );
        let edit = self.combiner.submit(Edit { delta, feats: onboard_features, outcome: None })?;
        Ok(edit.outcome.expect("a pass fills every outcome"))
    }

    /// [`DeltaCoalescer::try_submit`] for callers that treat a failed
    /// refresh as fatal.
    ///
    /// # Panics
    /// Panics on a feature row count mismatch, or if the pass panicked.
    pub fn submit(&self, delta: CsrDelta, onboard_features: Option<Csr>) -> DeltaOutcome {
        self.try_submit(delta, onboard_features).unwrap_or_else(|e| panic!("DeltaCoalescer: {e}"))
    }
}

/// Vertically stacks a pass's onboard feature blocks in FIFO order — the
/// order `CsrDelta::merge` concatenated the onboard counts in.
fn vstack(blocks: &[Csr]) -> Option<Csr> {
    let total: usize = blocks.iter().map(Csr::rows).sum();
    if total == 0 {
        return None;
    }
    let d = blocks.iter().find(|b| b.rows() > 0).expect("total > 0").cols();
    let mut out = Csr::new(d);
    for b in blocks.iter().filter(|b| b.rows() > 0) {
        assert_eq!(b.cols(), d, "DeltaCoalescer: ragged onboard feature widths in one pass");
        for i in 0..b.rows() {
            let (cols, vals) = b.row(i);
            out.push_row(cols.iter().copied().zip(vals.iter().copied()));
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ServingMode, StoreDtype};
    use crate::testutil::tiny_trained;
    use gcon_graph::Graph;
    use gcon_linalg::Mat;

    fn fresh() -> (DynamicServingModel, Graph) {
        let (model, graph, x) = tiny_trained();
        let dynamic = DynamicServingModel::build_with_dtype(
            model,
            graph.clone(),
            x,
            ServingMode::Public,
            StoreDtype::F64,
        );
        (dynamic, graph.clone())
    }

    /// Deterministic toggle edits on pairwise-distinct edges (computed
    /// against the initial graph — distinct edges never interact, so each
    /// toggle stays effective in any application order).
    fn toggle(graph: &Graph, i: usize) -> CsrDelta {
        let n = graph.num_nodes() as u32;
        let (u, v) = ((i as u32 * 7) % n, (i as u32 * 13 + 5) % n);
        let (u, v) = if u == v { (u, (v + 1) % n) } else { (u, v) };
        let mut d = CsrDelta::new();
        if graph.has_edge(u, v) {
            d.remove_edge(u, v);
        } else {
            d.insert_edge(u, v);
        }
        d
    }

    /// One raw onboard feature row per seed.
    fn feature_row(seed: usize) -> Csr {
        let d0 = tiny_trained().2.cols();
        let row = Mat::from_fn(1, d0, |_, j| (((seed * 31 + j * 7) % 23) as f64 / 23.0) - 0.4);
        Csr::from_dense(&row)
    }

    /// Holds the coalescer, submits `edits` one at a time in this order,
    /// releases, and returns every submitter's result in submission order.
    fn held_burst(
        c: &DeltaCoalescer<'_>,
        edits: Vec<(CsrDelta, Option<Csr>)>,
    ) -> Vec<Result<DeltaOutcome, CombineError>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = c.combiner.held(|_| {
                let spawn = |(i, (delta, feats)): (usize, (CsrDelta, Option<Csr>))| {
                    let handle = scope.spawn(move || c.try_submit(delta, feats));
                    c.combiner.wait_queued(i + 1);
                    handle
                };
                edits.into_iter().enumerate().map(spawn).collect()
            });
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn held_burst_is_one_refresh_bitwise_equal_to_sequential_application() {
        // A held burst runs as one pass; replaying the same deltas one by
        // one on a second model must agree bitwise (finite scales: both
        // equal the rebuild on the final graph).
        let (coalesced, graph) = fresh();
        let (sequential, _) = fresh();
        let k = 6;
        let coalescer = DeltaCoalescer::new(&coalesced, CoalesceConfig::default());
        let outcomes = held_burst(&coalescer, (0..k).map(|i| (toggle(&graph, i), None)).collect());
        for outcome in outcomes {
            assert_eq!(outcome.expect("refreshed").generation, 1, "one burst, one generation");
        }
        for i in 0..k {
            sequential.apply_delta(&toggle(&graph, i), None);
        }
        let stats = coalescer.stats();
        assert_eq!((stats.windows, stats.edits, stats.largest_window), (1, k as u64, k));
        assert_eq!(coalesced.snapshot().generation(), 1);
        assert_eq!(sequential.snapshot().generation(), k as u64);
        assert_eq!(
            coalesced.snapshot().model().store_f64().unwrap().as_slice(),
            sequential.snapshot().model().store_f64().unwrap().as_slice(),
            "coalesced burst must equal sequential application bitwise (finite scales)"
        );
    }

    #[test]
    fn a_lone_edit_refreshes_at_once() {
        let (dynamic, graph) = fresh();
        let coalescer = DeltaCoalescer::new(&dynamic, CoalesceConfig::default());
        for i in 0..3 {
            assert_eq!(coalescer.submit(toggle(&graph, i), None).generation, i as u64 + 1);
        }
        let stats = coalescer.stats();
        assert_eq!((stats.windows, stats.edits, stats.largest_window), (3, 3, 1));
    }

    #[test]
    fn netted_out_pass_is_cancelled() {
        let (dynamic, graph) = fresh();
        let coalescer = DeltaCoalescer::new(&dynamic, CoalesceConfig::default());
        let absent = (0..graph.num_nodes() as u32)
            .flat_map(|u| (u + 1..graph.num_nodes() as u32).map(move |v| (u, v)))
            .find(|&(u, v)| !graph.has_edge(u, v))
            .expect("tiny graph is not complete");
        let mut insert = CsrDelta::new();
        insert.insert_edge(absent.0, absent.1);
        let mut remove = CsrDelta::new();
        remove.remove_edge(absent.0, absent.1);
        // The insert queues first, so the remove nets it out.
        for outcome in held_burst(&coalescer, vec![(insert, None), (remove, None)]) {
            assert_eq!(outcome.expect("ran").generation, 0, "netted pass must not publish");
        }
        let stats = coalescer.stats();
        assert_eq!((stats.windows, stats.edits, stats.cancelled_windows), (1, 2, 1));
        assert_eq!(dynamic.snapshot().generation(), 0);
    }

    #[test]
    fn onboarding_burst_stacks_features_in_arrival_order() {
        let (dynamic, graph) = fresh();
        let n0 = graph.num_nodes() as u32;
        let burst = || {
            let mut d1 = CsrDelta::new();
            d1.add_nodes(1).insert_edge(n0, 3);
            let mut d2 = CsrDelta::new();
            d2.add_nodes(1).insert_edge(n0 + 1, n0);
            [(d1, feature_row(1)), (d2, feature_row(2))]
        };
        // Ids are assigned in arrival order across the one pass.
        let coalescer = DeltaCoalescer::new(&dynamic, CoalesceConfig::default());
        let edits = burst().into_iter().map(|(d, f)| (d, Some(f))).collect();
        for outcome in held_burst(&coalescer, edits) {
            assert_eq!(
                outcome.expect("ran").onboarded,
                n0..n0 + 2,
                "pass outcome covers the burst"
            );
        }
        assert_eq!(coalescer.stats().windows, 1);
        assert_eq!(dynamic.snapshot().model().num_nodes(), n0 as usize + 2);

        // Reference: the same two deltas applied sequentially elsewhere.
        let (sequential, _) = fresh();
        for (delta, feats) in burst() {
            sequential.apply_delta(&delta, Some(&feats));
        }
        assert_eq!(
            dynamic.snapshot().model().store_f64().unwrap().as_slice(),
            sequential.snapshot().model().store_f64().unwrap().as_slice(),
            "coalesced onboarding must equal sequential onboarding bitwise"
        );
    }

    /// A pass that panics mid-merge — two onboard rows of different widths,
    /// each fine alone — fails every edit of the pass, publishes nothing,
    /// and the next pass refreshes normally.
    #[test]
    fn a_panicking_pass_fails_its_edits_and_the_next_pass_refreshes() {
        let (dynamic, graph) = fresh();
        let n0 = graph.num_nodes() as u32;
        let coalescer = DeltaCoalescer::new(&dynamic, CoalesceConfig::default());
        let mut d1 = CsrDelta::new();
        d1.add_nodes(1).insert_edge(n0, 3);
        let mut d2 = CsrDelta::new();
        d2.add_nodes(1).insert_edge(n0 + 1, 4);
        let wide = Csr::from_dense(&Mat::zeros(1, feature_row(0).cols() + 1));
        let failed = held_burst(&coalescer, vec![(d1, Some(feature_row(1))), (d2, Some(wide))]);
        for outcome in failed {
            let error = outcome.expect_err("the pass panicked");
            assert!(error.panic.contains("ragged onboard feature widths"), "{error}");
        }
        let stats = coalescer.stats();
        assert_eq!((stats.windows, stats.edits, stats.failed_windows), (1, 2, 1));
        assert_eq!(dynamic.snapshot().generation(), 0, "a failed pass publishes nothing");

        assert_eq!(coalescer.submit(toggle(&graph, 0), None).generation, 1);
        assert_eq!(coalescer.stats().failed_windows, 1);
    }

    #[test]
    fn max_pending_one_refreshes_every_edit_alone() {
        let (dynamic, graph) = fresh();
        let coalescer = DeltaCoalescer::new(&dynamic, CoalesceConfig { max_pending: 1 });
        let outcomes = held_burst(&coalescer, (0..4).map(|i| (toggle(&graph, i), None)).collect());
        let generations: Vec<u64> = outcomes.into_iter().map(|o| o.unwrap().generation).collect();
        assert_eq!(generations, [1, 2, 3, 4], "one pass per edit, in arrival order");
        let stats = coalescer.stats();
        assert_eq!(stats.largest_window, 1);
        assert_eq!(stats.windows, stats.edits);
    }

    #[test]
    #[should_panic(expected = "max_pending")]
    fn zero_max_pending_is_rejected() {
        let (dynamic, _) = fresh();
        let _ = DeltaCoalescer::new(&dynamic, CoalesceConfig { max_pending: 0 });
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn mismatched_onboard_features_are_rejected_before_queueing() {
        let (dynamic, _) = fresh();
        let coalescer = DeltaCoalescer::new(&dynamic, CoalesceConfig::default());
        let mut delta = CsrDelta::new();
        delta.add_nodes(2);
        let _ = coalescer.submit(delta, None);
    }

    #[test]
    fn default_config_is_valid() {
        // `from_env` falls back to this default; the parse arms are
        // exercised by the CI env-matrix legs (env vars are process-global,
        // so they are not toggled inside parallel unit tests).
        assert!(CoalesceConfig::default().max_pending >= 1);
    }
}
