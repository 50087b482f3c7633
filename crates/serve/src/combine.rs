//! One flat combiner for every batched serving path. [`BatchQueue`]
//! (one head forward for concurrent single-node queries) and
//! [`DeltaCoalescer`] (one refresh per edit burst) are thin instantiations:
//! each supplies a [`Pass`], and [`Combiner`] supplies the protocol.
//!
//! # Protocol
//!
//! Flat combining (Hendler, Incze, Shavit & Tzafrir, SPAA 2010) over one
//! FIFO queue. A submitter appends its owned request under the state mutex.
//! If no pass is running, it takes the pass state out of the mutex, moves up
//! to `max_batch` of the oldest queued requests into the pass's batch
//! buffer, and runs the pass with the mutex released; the pass answers each
//! request in place. It then files the answered requests on the done list,
//! puts the pass state back and wakes the waiters, each of which takes its
//! own request back. While requests remain queued, the next submitter to
//! find the pass state free runs the next pass.
//!
//! There is no timer: a lone request runs at once, and under load a pass
//! is whatever arrived while the previous pass ran. Passes run one at a
//! time, oldest requests first, so they cut the arrival order into
//! consecutive runs — which makes a coalesced edit burst equal to applying
//! its edits one by one.
//!
//! # Owned slots and panics
//!
//! Results travel inside the requests (a submitter moves its output buffer
//! in and gets it back filled), so no thread writes through another's
//! pointer, and after warm-up a pass allocates nothing. A pass runs under
//! [`std::panic::catch_unwind`]: if it panics, each of its requests gets a
//! [`CombineError`], the pass state goes back, and the next pass runs as
//! usual — no waiter hangs and no lock is poisoned. Both passes keep only
//! scratch buffers between passes, so a panic leaves nothing inconsistent.
//!
//! [`BatchQueue`]: crate::BatchQueue
//! [`DeltaCoalescer`]: crate::DeltaCoalescer

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What a [`Combiner`] runs: the state one pass needs, and how a pass
/// answers a batch of requests.
pub(crate) trait Pass {
    /// One owned request, carrying its own result slot.
    type Request;
    /// Answers every request of `batch` (oldest first) in place.
    fn run(&mut self, batch: &mut [Self::Request]);
}

/// The answer a request gets when the batched pass it ran in panicked.
/// The pass is abandoned; the next pass runs normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CombineError {
    /// The panic message (a placeholder when the payload was not a string).
    pub panic: String,
}

impl CombineError {
    fn from_panic(payload: &(dyn Any + Send)) -> Self {
        let panic = match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
            (Some(s), _) => s.to_string(),
            (_, Some(s)) => s.clone(),
            _ => "non-string panic payload".into(),
        };
        Self { panic }
    }
}

impl std::fmt::Display for CombineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the batched pass serving this request panicked: {}", self.panic)
    }
}

impl std::error::Error for CombineError {}

/// Counters of a [`Combiner`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CombineStats {
    /// Passes run so far, failed ones included.
    pub passes: u64,
    /// Requests that ran in a pass so far.
    pub requests: u64,
    /// Largest pass so far.
    pub largest_pass: usize,
    /// Passes that panicked.
    pub failed_passes: u64,
}

/// The pass state and its reusable batch buffer: in the mutex between
/// passes, with the combiner during one.
struct Exec<P: Pass> {
    pass: P,
    batch: Vec<P::Request>,
}

struct State<P: Pass> {
    /// Requests no pass has taken yet, oldest first.
    queue: Vec<P::Request>,
    /// Ticket of `queue[0]`; tickets number requests in arrival order.
    head: u64,
    /// `None` while a pass runs.
    exec: Option<Exec<P>>,
    /// Finished requests not yet collected by their submitters.
    done: Vec<(u64, Result<P::Request, CombineError>)>,
    stats: CombineStats,
}

/// A flat combiner over one [`Pass`] — see the module docs. Every method
/// takes `&self`; share one instance between all submitting threads.
pub(crate) struct Combiner<P: Pass> {
    max_batch: usize,
    state: Mutex<State<P>>,
    cv: Condvar,
    #[cfg(test)]
    panic_next: std::sync::atomic::AtomicBool,
}

impl<P: Pass> Combiner<P> {
    /// A combiner running `pass` over at most `max_batch` requests at a time.
    ///
    /// # Panics
    /// Panics if `max_batch == 0` (the wrappers check first, under their own
    /// knob names).
    pub(crate) fn new(pass: P, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "Combiner: max_batch must be ≥ 1");
        Self {
            max_batch,
            state: Mutex::new(State {
                queue: Vec::new(),
                head: 0,
                exec: Some(Exec { pass, batch: Vec::new() }),
                done: Vec::new(),
                stats: CombineStats::default(),
            }),
            cv: Condvar::new(),
            #[cfg(test)]
            panic_next: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Counters so far.
    pub(crate) fn stats(&self) -> CombineStats {
        self.lock().stats
    }

    /// Enqueues `request` and blocks until a pass has answered it, running
    /// passes itself whenever none is running. Returns the answered request,
    /// or the error of a pass that panicked.
    pub(crate) fn submit(&self, request: P::Request) -> Result<P::Request, CombineError> {
        let mut state = self.lock();
        let ticket = state.head + state.queue.len() as u64;
        state.queue.push(request);
        loop {
            if let Some(i) = state.done.iter().position(|&(t, _)| t == ticket) {
                return state.done.swap_remove(i).1;
            }
            state = match state.exec.take() {
                Some(exec) => self.run_pass(state, exec),
                None => self.wait(state),
            };
        }
    }

    /// Runs one pass over the oldest queued requests with the mutex
    /// released, then files the answers and hands the pass state back.
    fn run_pass<'a>(
        &'a self,
        mut state: MutexGuard<'a, State<P>>,
        mut exec: Exec<P>,
    ) -> MutexGuard<'a, State<P>> {
        let len = state.queue.len().min(self.max_batch);
        let tickets = state.head..state.head + len as u64;
        state.head = tickets.end;
        exec.batch.extend(state.queue.drain(..len));
        drop(state);

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if self.panic_next.swap(false, std::sync::atomic::Ordering::SeqCst) {
                panic!("injected pass failure");
            }
            exec.pass.run(&mut exec.batch);
        }));
        let failed = outcome.err().map(|payload| {
            exec.batch.clear();
            CombineError::from_panic(&*payload)
        });

        let mut state = self.lock();
        let stats = &mut state.stats;
        stats.passes += 1;
        stats.requests += len as u64;
        stats.largest_pass = stats.largest_pass.max(len);
        match failed {
            None => state.done.extend(tickets.zip(exec.batch.drain(..).map(Ok))),
            Some(error) => {
                state.stats.failed_passes += 1;
                state.done.extend(tickets.map(|t| (t, Err(error.clone()))));
            }
        }
        state.exec = Some(exec);
        self.cv.notify_all();
        state
    }

    fn lock(&self) -> MutexGuard<'_, State<P>> {
        // No pass code runs under this lock, and every critical section
        // leaves the state consistent, so a poisoned lock is safe to reuse.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State<P>>) -> MutexGuard<'a, State<P>> {
        self.cv.wait(state).unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    /// Test hooks for this crate's combiner, batcher and coalescer tests.
    impl<P: Pass> Combiner<P> {
        /// Runs `f` on the pass state while keeping it from every pass, as
        /// a running pass would. Requests submitted meanwhile queue up, and
        /// the first pass after `f` returns takes them all (up to
        /// `max_batch`).
        pub(crate) fn held<T>(&self, f: impl FnOnce(&mut P) -> T) -> T {
            let mut state = self.lock();
            let mut exec = loop {
                match state.exec.take() {
                    Some(exec) => break exec,
                    None => state = self.wait(state),
                }
            };
            drop(state);
            let out = f(&mut exec.pass);
            self.lock().exec = Some(exec);
            self.cv.notify_all();
            out
        }

        /// Blocks until at least `n` requests are queued (use inside
        /// [`Combiner::held`], where nothing drains the queue).
        pub(crate) fn wait_queued(&self, n: usize) {
            while self.lock().queue.len() < n {
                std::thread::yield_now();
            }
        }

        /// Makes the next pass panic before it answers anything.
        pub(crate) fn panic_next_pass(&self) {
            self.panic_next.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Input that makes [`Doubler`] panic.
    const POISON: u64 = u64::MAX;

    struct Job {
        x: u64,
        y: Option<u64>,
    }

    /// Answers `y = 2x` oldest first, logging every pass's inputs, and
    /// panics on [`POISON`] after answering the jobs ahead of it.
    #[derive(Default)]
    struct Doubler {
        passes: Vec<Vec<u64>>,
    }

    impl Pass for Doubler {
        type Request = Job;
        fn run(&mut self, batch: &mut [Job]) {
            self.passes.push(batch.iter().map(|j| j.x).collect());
            for job in batch {
                assert_ne!(job.x, POISON, "poisoned job");
                job.y = Some(2 * job.x);
            }
        }
    }

    fn submit(c: &Combiner<Doubler>, x: u64) -> Result<u64, CombineError> {
        c.submit(Job { x, y: None }).map(|job| job.y.expect("answered"))
    }

    /// The passes run so far.
    fn passes(c: &Combiner<Doubler>) -> Vec<Vec<u64>> {
        c.held(|pass| pass.passes.clone())
    }

    /// Holds the combiner, submits `xs` one at a time in this order from
    /// their own threads, releases, and collects every answer within a
    /// bounded wait — a hung submitter fails the test instead of hanging it.
    fn held_burst(c: &Arc<Combiner<Doubler>>, xs: &[u64]) -> Vec<Result<u64, CombineError>> {
        let (tx, rx) = mpsc::channel();
        let submitters: Vec<_> = c.held(|_| {
            let spawn = |(i, &x): (usize, &u64)| {
                let (submitter, tx) = (Arc::clone(c), tx.clone());
                let handle = std::thread::spawn(move || tx.send((i, submit(&submitter, x))));
                c.wait_queued(i + 1);
                handle
            };
            xs.iter().enumerate().map(spawn).collect()
        });
        let mut answers: Vec<_> = (0..xs.len())
            .map(|_| rx.recv_timeout(Duration::from_secs(20)).expect("a submitter hung"))
            .collect();
        for submitter in submitters {
            submitter.join().expect("submitter panicked").expect("answer sent");
        }
        answers.sort_by_key(|&(i, _)| i);
        answers.into_iter().map(|(_, a)| a).collect()
    }

    #[test]
    fn a_lone_request_runs_at_once_alone() {
        let c = Combiner::new(Doubler::default(), 64);
        assert_eq!(submit(&c, 21), Ok(42));
        assert_eq!(submit(&c, 4), Ok(8));
        assert_eq!(passes(&c), [vec![21], vec![4]]);
        let s = c.stats();
        assert_eq!((s.passes, s.requests, s.largest_pass, s.failed_passes), (2, 2, 1, 0));
    }

    #[test]
    fn held_submitters_run_as_exactly_one_pass_in_arrival_order() {
        let c = Arc::new(Combiner::new(Doubler::default(), 64));
        let xs = [5, 3, 9, 1, 7, 2];
        let answers = held_burst(&c, &xs);
        assert_eq!(answers, xs.map(|x| Ok(2 * x)));
        assert_eq!(passes(&c), [xs.to_vec()]);
        assert_eq!(c.stats().largest_pass, xs.len());
    }

    #[test]
    fn a_backlog_beyond_max_batch_runs_as_consecutive_fifo_passes() {
        let c = Arc::new(Combiner::new(Doubler::default(), 2));
        let answers = held_burst(&c, &[10, 11, 12, 13, 14]);
        assert_eq!(answers, [20, 22, 24, 26, 28].map(Ok));
        assert_eq!(passes(&c), [vec![10, 11], vec![12, 13], vec![14]]);
    }

    #[test]
    fn a_panicking_pass_fails_each_of_its_requests_and_the_next_pass_serves() {
        let c = Arc::new(Combiner::new(Doubler::default(), 64));
        let answers = held_burst(&c, &[1, 2, POISON, 4]);
        for answer in &answers {
            let error = answer.as_ref().expect_err("every request of the pass fails");
            assert!(error.panic.contains("poisoned job"), "{error}");
        }
        assert!(!c.state.is_poisoned(), "a pass panic must not poison the state lock");
        let s = c.stats();
        assert_eq!((s.passes, s.requests, s.failed_passes), (1, 4, 1));

        // The next passes, lone and batched, answer normally.
        assert_eq!(submit(&c, 6), Ok(12));
        assert_eq!(held_burst(&c, &[7, 8]), [Ok(14), Ok(16)]);
        assert_eq!(c.stats().failed_passes, 1);
        assert!(c.lock().done.is_empty(), "every answer was collected");
    }

    #[test]
    fn concurrent_submitters_each_get_their_own_answer() {
        let c = Combiner::new(Doubler::default(), 8);
        let (threads, per_thread) = (6u64, 200u64);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let c = &c;
                scope.spawn(move || {
                    for q in 0..per_thread {
                        let x = t * 1000 + q;
                        assert_eq!(submit(c, x), Ok(2 * x));
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.requests, threads * per_thread);
        assert!(s.largest_pass <= 8, "max_batch bound violated: {s:?}");
        let state = c.lock();
        assert!(state.done.is_empty() && state.queue.is_empty());
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_is_rejected() {
        let _ = Combiner::new(Doubler::default(), 0);
    }
}
