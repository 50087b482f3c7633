//! Dynamic micro-batching: concurrent single-node queries share one head
//! forward per pass of the [flat combiner](crate::combine).
//!
//! Whoever finds no pass running runs one gathered head forward for every
//! queued query (up to [`BatchConfig::max_batch`]) on the shared workspace
//! — the GEMM itself parallelizes across `gcon_runtime::pool()` — and
//! writes each result row into its query's buffer. There is no batching
//! window: a lone query runs at once. After warm-up nothing allocates per
//! batch: the caller's output `Vec` moves into the request and back, and
//! the gather/logits buffers live in one `gcon_nn::HeadWorkspace` in the
//! store's dtype.

use crate::combine::{CombineError, Combiner, Pass};
use crate::model::{ServingModel, SessionWs};
use gcon_linalg::Mat;

/// Batch bound for [`BatchQueue`].
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Hard upper bound on queries per head forward. Must be ≥ 1.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    /// 64-query batches.
    fn default() -> Self {
        Self { max_batch: 64 }
    }
}

/// Counters exposed by [`BatchQueue::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches executed so far, failed ones included.
    pub batches: u64,
    /// Requests that ran in a batch so far (`requests / batches` = mean
    /// batch size).
    pub requests: u64,
    /// Largest batch executed so far.
    pub largest_batch: usize,
    /// Batches whose forward panicked; each of their requests got a
    /// [`CombineError`].
    pub failed_batches: u64,
}

/// One query: the node, and the caller's buffer the pass fills.
struct Query {
    node: usize,
    out: Vec<f64>,
}

/// The shared forward state: the head workspace in the model's store dtype
/// plus the widened `f64` logit block the result rows are copied from.
struct QueryPass<'m> {
    model: &'m ServingModel,
    ws: SessionWs,
    nodes: Vec<usize>,
    logits64: Mat,
}

impl Pass for QueryPass<'_> {
    type Request = Query;

    fn run(&mut self, batch: &mut [Query]) {
        self.nodes.clear();
        self.nodes.extend(batch.iter().map(|q| q.node));
        self.model.forward_widen_into(&self.nodes, &mut self.ws, &mut self.logits64);
        for (row, query) in batch.iter_mut().enumerate() {
            query.out.clear();
            query.out.extend_from_slice(self.logits64.row(row));
        }
    }
}

/// A dynamic micro-batcher over a [`ServingModel`] — see the module docs.
/// Share one instance (`&BatchQueue` under `std::thread::scope`, or wrap
/// queue + model in `Arc`s) between all serving threads; every public
/// method takes `&self`.
pub struct BatchQueue<'m> {
    model: &'m ServingModel,
    combiner: Combiner<QueryPass<'m>>,
}

impl<'m> BatchQueue<'m> {
    /// Creates a queue over `model` with the given batch bound.
    ///
    /// # Panics
    /// Panics if `config.max_batch == 0`.
    pub fn new(model: &'m ServingModel, config: BatchConfig) -> Self {
        assert!(config.max_batch >= 1, "BatchQueue: max_batch must be ≥ 1");
        let pass = QueryPass {
            model,
            ws: model.session_ws(),
            nodes: Vec::new(),
            logits64: Mat::default(),
        };
        Self { model, combiner: Combiner::new(pass, config.max_batch) }
    }

    /// The model this queue serves.
    pub fn model(&self) -> &ServingModel {
        self.model
    }

    /// Execution counters so far.
    pub fn stats(&self) -> BatchStats {
        let s = self.combiner.stats();
        BatchStats {
            batches: s.passes,
            requests: s.requests,
            largest_batch: s.largest_pass,
            failed_batches: s.failed_passes,
        }
    }

    /// Queries one node's logits, blocking until the batch the request
    /// lands in has executed. `out` is cleared and refilled (caller
    /// allocation reused across calls — the zero-alloc steady-state path).
    /// If that batch's forward panicked, the error comes back instead and
    /// `out` is left empty; the next batch runs normally.
    ///
    /// Logits are bitwise identical to [`ServingModel`]'s direct paths —
    /// and therefore to `gcon-core::infer` — regardless of which requests
    /// share the batch.
    ///
    /// # Panics
    /// Panics if `node` is out of bounds for the model's store (checked on
    /// entry, before the request is queued).
    pub fn try_query_into(&self, node: usize, out: &mut Vec<f64>) -> Result<(), CombineError> {
        assert!(
            node < self.model.num_nodes(),
            "BatchQueue: query for node {node} but the store has {} nodes",
            self.model.num_nodes()
        );
        let query = self.combiner.submit(Query { node, out: std::mem::take(out) })?;
        *out = query.out;
        Ok(())
    }

    /// [`BatchQueue::try_query_into`] for callers that treat a failed batch
    /// as fatal.
    ///
    /// # Panics
    /// Panics if `node` is out of bounds, or if the batch's forward panicked.
    pub fn query_into(&self, node: usize, out: &mut Vec<f64>) {
        if let Err(e) = self.try_query_into(node, out) {
            panic!("BatchQueue: {e}");
        }
    }

    /// Allocating convenience for [`BatchQueue::query_into`].
    pub fn query(&self, node: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.query_into(node, &mut out);
        out
    }

    /// Hard class prediction of one node through the micro-batcher.
    pub fn predict(&self, node: usize) -> usize {
        gcon_linalg::vecops::argmax(&self.query(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ServingMode, ServingModel};
    use crate::testutil::{tiny_store, tiny_trained};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    impl BatchQueue<'_> {
        /// Makes the next batch panic (fault injection, also for the
        /// server's tests).
        pub(crate) fn panic_next_batch(&self) {
            self.combiner.panic_next_pass();
        }
    }

    fn serving() -> ServingModel {
        let (model, graph, x) = tiny_trained();
        ServingModel::build(model, graph, x, ServingMode::Public)
    }

    #[test]
    fn sequential_queries_match_direct_path_bitwise() {
        let serving = serving();
        let queue = BatchQueue::new(&serving, BatchConfig::default());
        let mut out = Vec::new();
        for node in 0..serving.num_nodes() {
            queue.query_into(node, &mut out);
            assert_eq!(out, serving.logits(node), "node {node}");
            assert_eq!(queue.predict(node), serving.predict(node));
            assert_eq!(queue.query(node), out);
        }
        // Nothing else is queued, so every query runs alone, at once.
        let stats = queue.stats();
        assert_eq!(stats.requests, serving.num_nodes() as u64 * 3);
        assert_eq!((stats.batches, stats.largest_batch), (stats.requests, 1));
    }

    #[test]
    fn concurrent_queries_match_bitwise_within_the_batch_bound() {
        let serving = serving();
        let n = serving.num_nodes();
        let queue = BatchQueue::new(&serving, BatchConfig { max_batch: 16 });
        let (threads, per_thread) = (8, 24);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let queue = &queue;
                let serving = &serving;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for q in 0..per_thread {
                        let node = (t * 31 + q * 7) % n;
                        queue.query_into(node, &mut out);
                        assert_eq!(out, serving.logits(node), "thread {t} query {q} node {node}");
                    }
                });
            }
        });
        let stats = queue.stats();
        assert_eq!(stats.requests, (threads * per_thread) as u64);
        assert!(stats.largest_batch <= 16, "batch bound violated: {stats:?}");
    }

    /// Held: N queries queue behind a held pass and then run as exactly
    /// one gathered forward, each answer bitwise the direct path's.
    #[test]
    fn held_queries_run_as_one_batch_bitwise() {
        let serving = serving();
        let queue = BatchQueue::new(&serving, BatchConfig::default());
        let nodes = [0usize, 7, 47, 7, 31, 12];
        std::thread::scope(|scope| {
            let handles: Vec<_> = queue.combiner.held(|_| {
                let queue = &queue;
                let spawn = |(i, &node): (usize, &usize)| {
                    let handle = scope.spawn(move || (node, queue.query(node)));
                    queue.combiner.wait_queued(i + 1);
                    handle
                };
                nodes.iter().enumerate().map(spawn).collect()
            });
            for handle in handles {
                let (node, out) = handle.join().unwrap();
                assert_eq!(out, serving.logits(node), "node {node}");
            }
        });
        let stats = queue.stats();
        assert_eq!((stats.batches, stats.requests, stats.largest_batch), (1, 6, 6));
    }

    #[test]
    fn max_batch_one_serves_every_request_alone() {
        let serving = serving();
        let queue = BatchQueue::new(&serving, BatchConfig { max_batch: 1 });
        std::thread::scope(|scope| {
            for t in 0..4 {
                let queue = &queue;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for q in 0..8 {
                        queue.query_into((t + q * 3) % queue.model().num_nodes(), &mut out);
                    }
                });
            }
        });
        let stats = queue.stats();
        assert_eq!(stats.largest_batch, 1);
        assert_eq!(stats.batches, stats.requests);
    }

    /// A panicking batch: every query waiting on it gets the error within a
    /// bounded wait (no hang), and the next batch answers bitwise.
    #[test]
    fn a_panicking_batch_fails_its_queries_and_the_next_batch_answers_bitwise() {
        let store = tiny_store();
        let queue = Arc::new(BatchQueue::new(store, BatchConfig::default()));
        let nodes = [3usize, 9, 3, 40];
        let (tx, rx) = mpsc::channel();
        let waiters: Vec<_> = queue.combiner.held(|_| {
            let spawn = |(i, &node): (usize, &usize)| {
                let (submitter, tx) = (Arc::clone(&queue), tx.clone());
                let handle = std::thread::spawn(move || {
                    let mut out = vec![1.0; 3];
                    tx.send(submitter.try_query_into(node, &mut out).map(|()| out))
                });
                queue.combiner.wait_queued(i + 1);
                handle
            };
            queue.panic_next_batch();
            nodes.iter().enumerate().map(spawn).collect()
        });
        for _ in nodes {
            let answer = rx.recv_timeout(Duration::from_secs(20)).expect("a waiter hung");
            assert_eq!(answer, Err(CombineError { panic: "injected pass failure".into() }));
        }
        for waiter in waiters {
            waiter.join().expect("waiter panicked").expect("answer sent");
        }
        let stats = queue.stats();
        assert_eq!((stats.batches, stats.requests, stats.failed_batches), (1, 4, 1));

        let mut out = Vec::new();
        for node in nodes {
            queue.try_query_into(node, &mut out).expect("the next batch serves");
            assert_eq!(out, store.logits(node), "node {node}");
        }
        assert_eq!(queue.stats().failed_batches, 1);
    }

    #[test]
    #[should_panic(expected = "injected pass failure")]
    fn query_into_panics_with_the_batch_error() {
        let queue = BatchQueue::new(tiny_store(), BatchConfig::default());
        queue.panic_next_batch();
        let _ = queue.query(0);
    }

    #[test]
    #[should_panic(expected = "the store has")]
    fn out_of_bounds_query_is_rejected_before_it_is_queued() {
        let serving = serving();
        let queue = BatchQueue::new(&serving, BatchConfig::default());
        let _ = queue.query(serving.num_nodes());
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_is_rejected() {
        let serving = serving();
        let _ = BatchQueue::new(&serving, BatchConfig { max_batch: 0 });
    }
}
