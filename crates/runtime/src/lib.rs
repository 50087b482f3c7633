#![deny(missing_docs)]
//! Shared execution layer for the GCON workspace.
//!
//! Every hot kernel in the workspace — dense GEMM (`gcon-linalg`), the
//! sparse×dense product behind graph convolution (`gcon-graph`), and the
//! APPR/PPR propagation recursion (`gcon-core`) — parallelizes the same way:
//! split the output rows into contiguous blocks and hand each block to a
//! thread. Before this crate existed each call site spawned a fresh scoped
//! thread per block, paying thread start-up and teardown on every product of
//! every training iteration.
//!
//! [`pool()`] instead exposes one lazily-initialized, process-wide worker
//! pool. Kernels submit row-block jobs through [`parallel_rows`] (or the
//! lower-level [`Pool::run`]); workers are parked between jobs and reused
//! across calls, so the steady-state cost of a parallel kernel is one
//! condvar wake-up instead of `threads` × `spawn`.
//!
//! The pool width defaults to the hardware parallelism and can be pinned
//! with the `GCON_THREADS` environment variable (read once, at first use;
//! `GCON_THREADS=1` disables worker threads entirely, which also makes
//! execution deterministic in thread count for profiling).
//!
//! Work submitted while *on* a pool worker (nested parallelism) runs inline
//! on the calling thread — the pool never deadlocks on reentrancy.
//!
//! # Kernel dispatch tiers
//!
//! Besides the thread pool, this crate owns the process-wide **kernel tier**:
//! every SIMD-dispatched kernel in the workspace (`gcon-linalg::ops`,
//! `gcon-linalg::vecops`, `gcon-graph::csr`) is compiled from one portable
//! source at two feature levels — [`KernelTier::Scalar`] (baseline SSE2 on
//! x86-64) and [`KernelTier::Avx2`] (`avx2,fma`, 4-wide f64) — and selects
//! one at run time via [`kernel_tier`]. The tier is resolved once per process
//! from CPU feature detection, can be pinned with the `GCON_KERNEL_TIER`
//! environment variable (`scalar` | `avx2`; a request above the host's
//! feature set warns and clamps to the best available tier), and can be
//! switched by tests and benchmarks with [`set_kernel_tier`]. Because both
//! tiers compile the *same* Rust source under strict FP semantics (no
//! reassociation, no mul-add contraction — autovectorization only), they
//! produce **byte-identical** results; the tier changes throughput, never
//! values.
//! The conformance suite in `tests/kernel_properties.rs` and the fingerprint
//! matrix in `tests/runtime_equivalence.rs` pin this.

pub mod envknob;

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Minimum number of scalar operations (e.g. `nnz · d` or `m·k·n`) below
/// which parallel kernels should run single-threaded; splitting tiny
/// products across threads costs more in wake-ups than it saves.
pub const PAR_THRESHOLD: usize = 1 << 16;

/// A chunked job: workers repeatedly claim chunk indices from `cursor` until
/// `num_chunks` is exhausted, calling the type-erased closure on each.
struct Job {
    /// Type-erased `&(dyn Fn(usize) + Sync)` with the lifetime transmuted
    /// away. Valid only while the submitting `Pool::run` call is blocked,
    /// which `Pool::run` guarantees by waiting for all workers to retire the
    /// job before returning.
    func: *const (dyn Fn(usize) + Sync),
    cursor: AtomicUsize,
    num_chunks: usize,
}

// SAFETY: `func` points at a `Sync` closure, and the raw pointer is only
// dereferenced while the submitting thread keeps the closure alive.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until the cursor runs out.
    fn drain(&self) {
        let f = unsafe { &*self.func };
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.num_chunks {
                return;
            }
            f(i);
        }
    }
}

/// State shared between the submitting thread and the workers.
struct Shared {
    slot: Mutex<JobSlot>,
    /// Workers wait here for a new generation.
    work_cv: Condvar,
    /// The submitter waits here for `active` to reach zero.
    done_cv: Condvar,
}

struct JobSlot {
    /// Incremented once per submitted job so parked workers can tell a new
    /// job from a spurious wake-up.
    generation: u64,
    job: Option<Arc<Job>>,
    /// Workers still attached to the current generation.
    active: usize,
    /// Set when any worker's chunk closure panicked during this generation.
    panicked: bool,
    /// Set by `Pool::drop`; workers exit their loop on the next wake-up.
    shutting_down: bool,
}

/// Locks a pool mutex, recovering from poisoning. Safe here because every
/// critical section only performs single-field assignments on the job-slot
/// bookkeeping (no invariant can be left half-updated by a panic), and job
/// panics themselves are caught before any lock is taken.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    /// True on pool worker threads; used to run nested submissions inline.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// True while this thread is inside `Pool::run` draining its own job.
    /// A chunk closure that submits again would self-deadlock on the
    /// non-reentrant `submit` mutex, so such nested submissions run inline.
    static IS_SUBMITTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The persistent worker pool. Obtain the process-wide instance with
/// [`pool()`]; constructing additional pools is possible (mostly for tests)
/// via [`Pool::with_threads`].
pub struct Pool {
    shared: Arc<Shared>,
    /// Number of background workers (the submitting thread also participates,
    /// so total parallelism is `workers + 1`).
    workers: usize,
    /// Serializes submissions from different threads.
    submit: Mutex<()>,
    /// Worker join handles, reclaimed by `Drop`.
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Builds a pool with `width` total threads of parallelism
    /// (`width - 1` background workers; the caller is the last lane).
    pub fn with_threads(width: usize) -> Self {
        let workers = width.max(1) - 1;
        let shared = Arc::new(Shared {
            slot: Mutex::new(JobSlot {
                generation: 0,
                job: None,
                active: 0,
                panicked: false,
                shutting_down: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gcon-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("gcon-runtime: failed to spawn worker thread")
            })
            .collect();
        Self { shared, workers, submit: Mutex::new(()), handles }
    }

    /// Total parallel width (background workers + the submitting thread).
    #[inline]
    pub fn width(&self) -> usize {
        self.workers + 1
    }

    /// Runs `f(0), f(1), …, f(num_chunks - 1)` across the pool, returning
    /// once every chunk has completed. Chunks are claimed dynamically, so
    /// uneven chunk costs balance automatically.
    ///
    /// Calls from within a pool worker (nested parallelism) and trivial jobs
    /// (`num_chunks <= 1`, or a pool with no workers) run inline.
    pub fn run(&self, num_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if num_chunks == 0 {
            return;
        }
        let nested = IS_POOL_WORKER.with(|w| w.get()) || IS_SUBMITTING.with(|s| s.get());
        if num_chunks == 1 || self.workers == 0 || nested {
            for i in 0..num_chunks {
                f(i);
            }
            return;
        }
        let _submission = lock_ignore_poison(&self.submit);
        // SAFETY: we erase the closure's lifetime to park it in the shared
        // slot; `run` does not return — or unwind — until every worker has
        // retired the job (active == 0): the submitter's own drain runs
        // under catch_unwind and the join loop below executes on both the
        // normal and the panic path, so the borrow outlives all uses.
        let erased: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let job = Arc::new(Job { func: erased, cursor: AtomicUsize::new(0), num_chunks });
        {
            let mut slot = lock_ignore_poison(&self.shared.slot);
            slot.generation += 1;
            slot.job = Some(Arc::clone(&job));
            slot.active = self.workers;
            slot.panicked = false;
        }
        self.shared.work_cv.notify_all();
        // The submitting thread is a full participant. A panicking chunk
        // must not unwind past the job while workers still hold the erased
        // pointer, so capture it and re-raise only after the join. The
        // IS_SUBMITTING flag routes any nested submission from a chunk on
        // this thread to the inline path above.
        IS_SUBMITTING.with(|s| s.set(true));
        let caller_panic =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.drain())).err();
        IS_SUBMITTING.with(|s| s.set(false));
        let worker_panicked = {
            let mut slot = lock_ignore_poison(&self.shared.slot);
            while slot.active > 0 {
                slot = self.shared.done_cv.wait(slot).unwrap_or_else(|p| p.into_inner());
            }
            slot.job = None;
            slot.panicked
        };
        if let Some(panic) = caller_panic {
            std::panic::resume_unwind(panic);
        }
        assert!(!worker_panicked, "gcon-runtime: a pool worker panicked while running a job");
    }
}

impl Drop for Pool {
    /// Parks no thread forever: wakes every worker with the shutdown flag
    /// and joins them, so ad-hoc pools (tests, scoped tools) release their
    /// OS threads. The process-wide [`pool()`] instance is never dropped.
    fn drop(&mut self) {
        {
            let mut slot = lock_ignore_poison(&self.shared.slot);
            slot.shutting_down = true;
            slot.generation += 1;
            slot.job = None;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IS_POOL_WORKER.with(|w| w.set(true));
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut slot = lock_ignore_poison(&shared.slot);
            while slot.generation == seen_generation {
                slot = shared.work_cv.wait(slot).unwrap_or_else(|p| p.into_inner());
            }
            if slot.shutting_down {
                return;
            }
            seen_generation = slot.generation;
            slot.job.clone()
        };
        // A panicking job must not kill the worker before it checks in:
        // that would leave `active > 0` forever and deadlock the submitter.
        // Catch, record, and let the submitter re-raise after the join.
        let panicked = if let Some(job) = job {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.drain())).is_err()
        } else {
            false
        };
        let mut slot = lock_ignore_poison(&shared.slot);
        slot.panicked |= panicked;
        slot.active -= 1;
        if slot.active == 0 {
            shared.done_cv.notify_one();
        }
    }
}

/// The process-wide pool, created on first use.
///
/// Width is `GCON_THREADS` when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::with_threads(configured_width()))
}

/// The pool width [`pool()`] uses (without forcing pool creation). The
/// environment is consulted once and cached — this sits on every kernel's
/// inline-vs-parallel decision.
pub fn configured_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        envknob::env_knob(
            "gcon-runtime",
            "GCON_THREADS",
            hw,
            "an integer ≥ 1",
            "the hardware parallelism",
            |v| v.parse::<usize>().ok().filter(|&n| n > 0),
        )
    })
}

/// Splits the row-major buffer `out` (`n` rows × `d` columns) into contiguous
/// row blocks and invokes `f(block, start_row, end_row)` for each block in
/// parallel on the process-wide pool. `block` covers exactly rows
/// `[start_row, end_row)` of `out`.
///
/// `work` is the caller's estimate of total scalar operations; jobs below
/// [`PAR_THRESHOLD`] run inline on the calling thread. Degenerate shapes
/// (`n == 0` or `d == 0`) return immediately without invoking `f`.
pub fn parallel_rows<T, F>(out: &mut [T], n: usize, d: usize, work: usize, f: F)
where
    T: Send,
    F: Fn(&mut [T], usize, usize) + Sync,
{
    assert_eq!(out.len(), n * d, "parallel_rows: buffer is not n × d");
    if n == 0 || d == 0 {
        return;
    }
    // Decide inline-vs-parallel from the configured width so that a process
    // doing only sub-threshold work never pays pool startup.
    let threads = configured_width().min(n);
    if threads <= 1 || work < PAR_THRESHOLD {
        f(out, 0, n);
        return;
    }
    let pool = pool();
    // Over-decompose relative to the thread count so dynamic chunk claiming
    // can balance uneven rows (e.g. skewed CSR degree distributions).
    let chunks = (threads * 4).min(n);
    let rows_per_chunk = n.div_ceil(chunks);
    // Raw-pointer newtype so the closure can share the base across threads
    // without an int-to-pointer round trip (provenance-preserving).
    struct BasePtr<T>(*mut T);
    unsafe impl<T: Send> Send for BasePtr<T> {}
    unsafe impl<T: Send> Sync for BasePtr<T> {}
    impl<T> BasePtr<T> {
        // Accessor (rather than direct field use in the closure) so the
        // closure captures the Sync newtype, not the raw `*mut T` field.
        fn get(&self) -> *mut T {
            self.0
        }
    }
    let base = BasePtr(out.as_mut_ptr());
    let run = |chunk: usize| {
        let start = chunk * rows_per_chunk;
        let end = ((chunk + 1) * rows_per_chunk).min(n);
        if start >= end {
            return;
        }
        // SAFETY: chunks index disjoint row ranges of `out`, and `out` is
        // borrowed mutably for the duration of `pool.run`.
        let block =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(start * d), (end - start) * d) };
        f(block, start, end);
    };
    pool.run(start_to_chunks(n, rows_per_chunk), &run);
}

#[inline]
fn start_to_chunks(n: usize, rows_per_chunk: usize) -> usize {
    n.div_ceil(rows_per_chunk)
}

thread_local! {
    /// Per-thread stack of reusable scratch buffers for [`with_scratch_f64`].
    /// A stack (rather than a single slot) keeps the helper re-entrant: a
    /// kernel that nests `with_scratch_f64` calls gets distinct buffers.
    static SCRATCH_F64: std::cell::RefCell<Vec<Vec<f64>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with a thread-local scratch slice of exactly `len` elements.
///
/// The backing allocation is cached per thread and reused across calls, so a
/// kernel invoked from a [`parallel_rows`] chunk (pool workers are long-lived)
/// pays for the buffer once per thread, not once per call. The slice's
/// contents are **unspecified** on entry — callers must fully overwrite
/// whatever region they read back. Re-entrant: nested calls receive distinct
/// buffers. If `f` panics, the buffer is simply dropped (never handed out
/// again half-initialized).
pub fn with_scratch_f64<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut buf = SCRATCH_F64.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    buf.resize(len, 0.0);
    let out = f(&mut buf[..len]);
    SCRATCH_F64.with(|s| s.borrow_mut().push(buf));
    out
}

thread_local! {
    /// Per-thread scratch stack for [`with_scratch_f32`] — the f32 twin of
    /// [`SCRATCH_F64`], kept separate so mixed-precision kernels nesting both
    /// dtypes never reinterpret each other's allocations.
    static SCRATCH_F32: std::cell::RefCell<Vec<Vec<f32>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The `f32` twin of [`with_scratch_f64`]: runs `f` with a thread-local
/// scratch slice of exactly `len` `f32` elements, cached per thread and
/// re-entrant, with the same unspecified-contents contract.
pub fn with_scratch_f32<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = SCRATCH_F32.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    buf.resize(len, 0.0);
    let out = f(&mut buf[..len]);
    SCRATCH_F32.with(|s| s.borrow_mut().push(buf));
    out
}

/// A SIMD compilation level for the workspace's compute kernels.
///
/// Tiers are totally ordered by capability (`Scalar < Avx2`); a host
/// "supports" every tier up to its detected maximum, and the scalar
/// tier is supported everywhere (it is the portable baseline build). See the
/// crate docs for the determinism guarantee: tiers are interchangeable
/// bit-for-bit, so selecting one is purely a throughput decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Portable baseline build (SSE2 on x86-64; whatever the target's
    /// default feature set is elsewhere). Always available.
    Scalar = 0,
    /// `target_feature(enable = "avx2,fma")` — 4-wide f64 / 8-wide f32
    /// vectors.
    Avx2 = 1,
}

impl KernelTier {
    /// The canonical lowercase name, as accepted by `GCON_KERNEL_TIER`.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for KernelTier {
    type Err = ();

    /// Case-insensitive parse of `scalar` / `avx2`.
    fn from_str(s: &str) -> Result<Self, ()> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelTier::Scalar),
            "avx2" => Ok(KernelTier::Avx2),
            _ => Err(()),
        }
    }
}

/// The highest tier this CPU supports, from runtime feature detection.
pub fn max_available_tier() -> KernelTier {
    static MAX: OnceLock<KernelTier> = OnceLock::new();
    *MAX.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return KernelTier::Avx2;
        }
        KernelTier::Scalar
    })
}

/// Every tier this host can run, ascending ([`KernelTier::Scalar`] first).
/// Conformance tests and the kernel bench iterate this list so absent tiers
/// are skipped rather than failed.
pub fn available_tiers() -> &'static [KernelTier] {
    match max_available_tier() {
        KernelTier::Scalar => &[KernelTier::Scalar],
        KernelTier::Avx2 => &[KernelTier::Scalar, KernelTier::Avx2],
    }
}

/// Pure tier-selection rule: an explicit request above the host's maximum is
/// clamped (second component `true`); no request means the best available
/// tier. Exposed so the clamp logic is unit-testable on every host,
/// including the `avx2`-requested-on-scalar-host case that cannot be
/// produced end-to-end on an AVX2 machine.
pub fn resolve_tier(
    requested: Option<KernelTier>,
    max_available: KernelTier,
) -> (KernelTier, bool) {
    match requested {
        Some(t) if t > max_available => (max_available, true),
        Some(t) => (t, false),
        None => (max_available, false),
    }
}

/// Sentinel for "not yet resolved" in [`KERNEL_TIER`].
const TIER_UNRESOLVED: u8 = u8::MAX;

/// The active tier as a `u8` (`TIER_UNRESOLVED` until first use). A relaxed
/// atomic so the dispatch check on every kernel entry is one load.
static KERNEL_TIER: AtomicU8 = AtomicU8::new(TIER_UNRESOLVED);

fn tier_from_u8(raw: u8) -> KernelTier {
    match raw {
        0 => KernelTier::Scalar,
        _ => KernelTier::Avx2,
    }
}

/// First-use resolution of the tier from `GCON_KERNEL_TIER` + detection.
/// Behind a `OnceLock` so the clamp / parse warnings print exactly once.
fn initial_tier() -> KernelTier {
    static INIT: OnceLock<KernelTier> = OnceLock::new();
    *INIT.get_or_init(|| {
        let requested = match std::env::var("GCON_KERNEL_TIER") {
            Ok(v) if !v.is_empty() => match v.parse::<KernelTier>() {
                Ok(t) => Some(t),
                Err(()) => {
                    eprintln!(
                        "gcon-runtime: unrecognized GCON_KERNEL_TIER={v:?} \
                         (expected scalar|avx2); using best available tier"
                    );
                    None
                }
            },
            _ => None,
        };
        let (tier, clamped) = resolve_tier(requested, max_available_tier());
        if clamped {
            eprintln!(
                "gcon-runtime: GCON_KERNEL_TIER={} is not supported by this CPU; \
                 clamping to {tier}",
                requested.expect("clamp implies an explicit request"),
            );
        }
        tier
    })
}

/// The kernel dispatch tier in effect for this process.
///
/// Resolved on first call: `GCON_KERNEL_TIER` if set (clamped to the host's
/// capabilities with a warning when necessary), otherwise the best detected
/// tier. [`set_kernel_tier`] overrides it afterwards. Never exceeds
/// [`max_available_tier`], so dispatching to the tier's `#[target_feature]`
/// compilation is always sound.
#[inline]
pub fn kernel_tier() -> KernelTier {
    let raw = KERNEL_TIER.load(Ordering::Relaxed);
    if raw != TIER_UNRESOLVED {
        return tier_from_u8(raw);
    }
    let tier = initial_tier();
    // compare_exchange, not a blind store: a concurrent `set_kernel_tier`
    // pin must not be clobbered by first-use resolution racing with it.
    match KERNEL_TIER.compare_exchange(
        TIER_UNRESOLVED,
        tier as u8,
        Ordering::Relaxed,
        Ordering::Relaxed,
    ) {
        Ok(_) => tier,
        Err(pinned) => tier_from_u8(pinned),
    }
}

/// Pins the dispatch tier for the whole process — the test/bench hook behind
/// the cross-tier conformance suite and the per-tier kernel sweep.
///
/// # Panics
/// Panics if `tier` exceeds [`max_available_tier`]: dispatching a tier the
/// CPU lacks would execute illegal instructions. (The `GCON_KERNEL_TIER`
/// environment path clamps instead of panicking; this function is for
/// in-process callers that are expected to consult [`available_tiers`].)
///
/// Safe to call at any time: kernels read the tier once per entry, and all
/// tiers produce byte-identical results, so a concurrent switch changes
/// which compilation later calls run, never what they compute.
pub fn set_kernel_tier(tier: KernelTier) {
    assert!(
        tier <= max_available_tier(),
        "set_kernel_tier: {tier} is not available on this CPU (max {})",
        max_available_tier()
    );
    KERNEL_TIER.store(tier as u8, Ordering::Relaxed);
}

/// Runs `f` once per tier in [`available_tiers`] (ascending), with the
/// dispatch pinned to that tier via [`set_kernel_tier`] — the loop behind
/// the cross-tier conformance tests and the per-tier kernel bench. The
/// entry tier is restored when the loop finishes **or unwinds**, so a
/// failing assertion inside `f` does not leave the process pinned to an
/// arbitrary tier for unrelated code.
pub fn for_each_available_tier(mut f: impl FnMut(KernelTier)) {
    struct RestoreTier(KernelTier);
    impl Drop for RestoreTier {
        fn drop(&mut self) {
            set_kernel_tier(self.0);
        }
    }
    let _restore = RestoreTier(kernel_tier());
    for &tier in available_tiers() {
        set_kernel_tier(tier);
        f(tier);
    }
}

/// Declares `$name` as a tier-dispatching front for the `#[inline(always)]`
/// kernel body `$impl_fn`: on x86-64 the body is additionally compiled under
/// `#[target_feature(enable = "avx2,fma")]` (as `$avx2`), and the active
/// [`kernel_tier`] picks the compilation at run time. Everywhere else the
/// portable build is used unconditionally.
///
/// Still autovectorization-only — no intrinsics — and numerically
/// *identical* across tiers: Rust keeps strict FP semantics (no
/// reassociation, no mul-add contraction), so wider registers change
/// throughput, never results.
///
/// Doc comments and attributes before `fn` (e.g. `#[inline]`) apply to the
/// dispatching front. An optional `-> Ret` return type is supported.
#[macro_export]
macro_rules! tier_dispatch {
    ($(#[$meta:meta])* $vis:vis fn $name:ident / $avx2:ident / $impl_fn:ident
        ($($arg:ident : $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $impl_fn($($arg),*)
        }

        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if $crate::kernel_tier() == $crate::KernelTier::Avx2 {
                // SAFETY: `kernel_tier()` never exceeds the detected feature
                // set, so the Avx2 tier implies avx2+fma are present.
                return unsafe { $avx2($($arg),*) };
            }
            $impl_fn($($arg),*)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_rows_fills_every_row_once() {
        let n = 1000;
        let d = 100; // n * d > PAR_THRESHOLD → parallel path
        let mut out = vec![0.0; n * d];
        parallel_rows(&mut out, n, d, n * d, |block, start, end| {
            assert_eq!(block.len(), (end - start) * d);
            for (r, row) in block.chunks_mut(d).enumerate() {
                for v in row.iter_mut() {
                    *v += (start + r) as f64;
                }
            }
        });
        for (i, row) in out.chunks(d).enumerate() {
            assert!(row.iter().all(|&v| v == i as f64), "row {i} wrong or touched twice");
        }
    }

    #[test]
    fn parallel_rows_small_work_runs_inline() {
        let mut out = vec![0.0; 4 * 2];
        parallel_rows(&mut out, 4, 2, 8, |block, start, end| {
            assert_eq!((start, end), (0, 4));
            block.fill(1.0);
        });
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn parallel_rows_degenerate_shapes() {
        let mut empty: Vec<f64> = Vec::new();
        parallel_rows(&mut empty, 0, 5, 0, |_, _, _| panic!("must not run"));
        parallel_rows(&mut empty, 5, 0, 0, |_, _, _| panic!("must not run"));
    }

    #[test]
    fn pool_run_executes_each_chunk_exactly_once() {
        let pool = Pool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run(64, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = Pool::with_threads(3);
        for round in 0..200 {
            let sum = AtomicUsize::new(0);
            pool.run(17, &|i| {
                sum.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), (0..17).sum::<usize>() + 17 * round);
        }
    }

    #[test]
    fn nested_submission_runs_inline_without_deadlock() {
        // Explicit multi-worker pool: the global pool degenerates to zero
        // workers on single-core machines, which would make this test
        // vacuous. Nested chunks land on BOTH worker threads (IS_POOL_WORKER
        // guard) and the submitting thread (IS_SUBMITTING guard); either
        // re-entering the pool for real would deadlock on `submit`.
        let pool = Pool::with_threads(4);
        assert_eq!(pool.width(), 4);
        let outer = AtomicUsize::new(0);
        pool.run(16, &|_| {
            let inner = AtomicUsize::new(0);
            pool.run(4, &|j| {
                inner.fetch_add(j, Ordering::Relaxed);
            });
            assert_eq!(inner.load(Ordering::Relaxed), 6);
            outer.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(outer.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn pool_survives_panicking_jobs() {
        let pool = Pool::with_threads(4);
        // A chunk panics (it may land on a worker or on the submitter);
        // run() must join every thread, then re-raise exactly one panic.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(32, &|i| {
                if i == 13 {
                    panic!("chunk 13 exploded");
                }
            });
        }));
        assert!(result.is_err(), "the panic must propagate to the submitter");
        // The pool stays fully usable afterwards: no dead workers, no
        // poisoned bookkeeping, no stale `panicked` flag.
        for _ in 0..5 {
            let sum = AtomicUsize::new(0);
            pool.run(16, &|i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), (0..16).sum::<usize>());
        }
    }

    #[test]
    fn scratch_buffer_has_exact_length_and_nests() {
        with_scratch_f64(7, |outer| {
            assert_eq!(outer.len(), 7);
            outer.fill(1.0);
            with_scratch_f64(3, |inner| {
                assert_eq!(inner.len(), 3);
                inner.fill(2.0);
            });
            // The nested call received a distinct buffer.
            assert!(outer.iter().all(|&v| v == 1.0));
        });
        // Reuse with a different length still yields the exact length.
        with_scratch_f64(11, |buf| assert_eq!(buf.len(), 11));
        with_scratch_f64(0, |buf| assert!(buf.is_empty()));
    }

    #[test]
    fn f32_scratch_is_independent_of_f64_scratch() {
        with_scratch_f64(5, |d| {
            d.fill(3.0);
            with_scratch_f32(5, |s| {
                assert_eq!(s.len(), 5);
                s.fill(7.0);
            });
            assert!(d.iter().all(|&v| v == 3.0));
        });
        with_scratch_f32(9, |buf| assert_eq!(buf.len(), 9));
    }

    #[test]
    fn parallel_rows_is_generic_over_the_element_type() {
        let n = 600;
        let d = 120; // above PAR_THRESHOLD → parallel path
        let mut out = vec![0.0f32; n * d];
        parallel_rows(&mut out, n, d, n * d, |block, start, end| {
            for (r, row) in block.chunks_mut(d).enumerate() {
                row.fill((start + r) as f32);
            }
            assert_eq!(block.len(), (end - start) * d);
        });
        for (i, row) in out.chunks(d).enumerate() {
            assert!(row.iter().all(|&v| v == i as f32), "f32 row {i} wrong");
        }
    }

    #[test]
    fn width_is_at_least_one() {
        assert!(pool().width() >= 1);
        assert!(configured_width() >= 1);
        assert_eq!(Pool::with_threads(1).width(), 1);
    }

    /// The clamp rule covers every (request, host) combination — including
    /// `avx2` requested on a host without AVX2, which cannot be produced
    /// end-to-end on an AVX2 CI box.
    #[test]
    fn resolve_tier_clamps_requests_above_the_host_maximum() {
        use KernelTier::*;
        // No request → best available, never clamped.
        for max in [Scalar, Avx2] {
            assert_eq!(resolve_tier(None, max), (max, false));
        }
        // Requests at or below the maximum are honored.
        assert_eq!(resolve_tier(Some(Scalar), Avx2), (Scalar, false));
        assert_eq!(resolve_tier(Some(Avx2), Avx2), (Avx2, false));
        assert_eq!(resolve_tier(Some(Scalar), Scalar), (Scalar, false));
        // A request above the maximum clamps (and reports it).
        assert_eq!(resolve_tier(Some(Avx2), Scalar), (Scalar, true));
    }

    #[test]
    fn tier_names_roundtrip_through_parse() {
        use KernelTier::*;
        for t in [Scalar, Avx2] {
            assert_eq!(t.name().parse::<KernelTier>(), Ok(t));
            assert_eq!(t.to_string(), t.name());
            assert_eq!(tier_from_u8(t as u8), t);
        }
        assert_eq!("AVX2".parse::<KernelTier>(), Ok(Avx2));
        // There is no AVX-512 tier: `avx512` and `avx512f` are unrecognized,
        // and `GCON_KERNEL_TIER` answers them with a warning and detection.
        assert!("avx512".parse::<KernelTier>().is_err());
        assert!("avx512f".parse::<KernelTier>().is_err());
        assert!("sse2".parse::<KernelTier>().is_err());
        assert!("".parse::<KernelTier>().is_err());
    }

    #[test]
    fn tiers_are_ordered_by_capability() {
        assert!(KernelTier::Scalar < KernelTier::Avx2);
    }

    #[test]
    fn available_tiers_is_ascending_and_bounded_by_max() {
        let tiers = available_tiers();
        assert_eq!(tiers.first(), Some(&KernelTier::Scalar));
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(tiers.last(), Some(&max_available_tier()));
    }

    /// Serializes the tests that pin the process-global tier and then
    /// assert on it; unit tests run on parallel threads.
    static TIER_PIN: Mutex<()> = Mutex::new(());

    /// `set_kernel_tier` round-trips through `kernel_tier` for every
    /// available tier; the active tier never exceeds the host maximum.
    /// (Process-global state: tests touching the tier restore it.)
    #[test]
    fn set_kernel_tier_roundtrips_over_available_tiers() {
        let _pin = lock_ignore_poison(&TIER_PIN);
        let initial = kernel_tier();
        assert!(initial <= max_available_tier());
        for &t in available_tiers() {
            set_kernel_tier(t);
            assert_eq!(kernel_tier(), t);
        }
        set_kernel_tier(initial);
    }

    /// A failing assertion inside the per-tier loop must not leave the
    /// process pinned to whichever tier it failed at.
    #[test]
    fn for_each_available_tier_restores_the_entry_tier_on_unwind() {
        let _pin = lock_ignore_poison(&TIER_PIN);
        let original = kernel_tier();
        // Enter at the lowest tier and fail at the highest, so a missing
        // restore shows on any host with more than one tier.
        set_kernel_tier(KernelTier::Scalar);
        let mut visited = Vec::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_available_tier(|tier| {
                visited.push(tier);
                assert_eq!(kernel_tier(), tier);
                if tier == *available_tiers().last().unwrap() {
                    panic!("injected failure at {tier}");
                }
            })
        }));
        assert!(unwound.is_err(), "the injected panic must propagate");
        assert_eq!(visited, available_tiers());
        assert_eq!(kernel_tier(), KernelTier::Scalar);
        set_kernel_tier(original);
    }

    /// Detection reports AVX2 exactly when the CPU has both features the
    /// AVX2 compilation is built with, so dispatching to it is sound.
    #[test]
    fn max_available_tier_matches_cpu_detection() {
        #[cfg(target_arch = "x86_64")]
        let has_avx2 = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let has_avx2 = false;
        let expected = if has_avx2 { KernelTier::Avx2 } else { KernelTier::Scalar };
        assert_eq!(max_available_tier(), expected);
        assert!(kernel_tier() <= max_available_tier());
    }

    crate::tier_dispatch! {
        /// Test kernel with a `&mut` argument and a return value.
        fn scaled_sum / scaled_sum_avx2 / scaled_sum_impl(x: &[f64], scale: f64, out: &mut [f64]) -> f64
    }

    #[inline(always)]
    fn scaled_sum_impl(x: &[f64], scale: f64, out: &mut [f64]) -> f64 {
        let mut acc = 0.0;
        for (o, &v) in out.iter_mut().zip(x) {
            *o = scale * v;
            acc += *o;
        }
        acc
    }

    /// A `tier_dispatch!` front returns exactly what its body computes, and
    /// writes the same bytes through its `&mut` arguments, at every tier.
    #[test]
    fn tier_dispatch_front_matches_its_body_at_every_tier() {
        let x: Vec<f64> = (0..37).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut want = vec![0.0; x.len()];
        let want_sum = scaled_sum_impl(&x, 1.5, &mut want);
        for_each_available_tier(|tier| {
            let mut got = vec![f64::NAN; x.len()];
            let sum = scaled_sum(&x, 1.5, &mut got);
            assert_eq!(sum.to_bits(), want_sum.to_bits(), "{tier}");
            assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()), "{tier}");
        });
    }
}
