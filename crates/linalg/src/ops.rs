//! Matrix-matrix and matrix-scalar operations, including the threaded GEMM
//! used by every training loop in the workspace. All dense products are
//! generic over the element [`Scalar`] (f64 / f32), with per-dtype tile
//! widths so f32 fills the doubled SIMD lane count.
//!
//! The parallel kernels run on the persistent `gcon-runtime` worker pool
//! (one pool for the whole process; width from `GCON_THREADS` or the
//! hardware). Each allocating kernel has a buffer-reusing `_into` twin so
//! steady-state training loops perform no per-iteration allocation.
//!
//! # Kernel structure: register tiling on stable Rust
//!
//! The dense products are cache-blocked, register-tiled loops written so
//! LLVM autovectorizes them — no intrinsics, no nightly features:
//!
//! - [`matmul_into`] packs a [`KC`]`×NR` panel of `B` into a thread-local
//!   scratch buffer ([`Scalar::with_scratch`]) and accumulates an
//!   [`MR`]`×NR` register tile per group of `A` rows: `MR·NR`
//!   independent accumulators, one broadcast of `A[i][k]` and one contiguous
//!   panel row per `k` step. The panel width `NR` is per-dtype —
//!   [`NR`] (8) for f64, [`NR_F32`] (16) for f32, the same 16 KiB
//!   L1-resident panel either way. The `k` range is walked in [`KC`]-sized
//!   cache blocks (partial tiles accumulate into the pre-zeroed `C`), so the
//!   packed panel and the active `A` row segments stay cache-resident
//!   however large the inner dimension grows.
//! - [`t_matmul_into`] (`C = AᵀB`, the weight-gradient shape) partitions the
//!   *output* rows (columns of `A`) across the pool and streams samples in
//!   [`TM_IB`]-row blocks, accumulating `MR×NR` register tiles per block.
//!   The kernel is **sparsity-adaptive**: each sample block's zero fraction
//!   is estimated up front (every [`TM_SPARSITY_SAMPLE_STRIDE`]-th row of the
//!   block), and blocks above [`TM_SKIP_ZERO_FRAC`] zeros take a
//!   zero-skipping scatter loop instead of the dense register tile — post-ReLU
//!   activation matrices at extreme sparsity were the one shape where the
//!   tiled kernel lost to the pre-tiling scalar loop. [`t_matmul_into_with`]
//!   pins the path for tests and benchmarks, and [`t_matmul_streamed`]
//!   takes `B` one sample block at a time from a closure, so a `B` that is
//!   a function of other data (the Newton Hessian's row-scaled copies of
//!   `A`) is never stored whole.
//! - [`matmul_bt_into`] (`C = A·Bᵀ`, pairwise row dots) batches four rows of
//!   `B` per pass over a row of `A`, so each `A` row is loaded once per four
//!   outputs; the inner unroll width is 4 elements for f64, 8 for f32.
//!
//! # Dispatch tiers
//!
//! Each kernel body is compiled at both [`gcon_runtime::KernelTier`]s —
//! the portable baseline and `avx2,fma` (4-wide f64 / 8-wide f32) — through
//! the [`gcon_runtime::tier_dispatch!`] macro, and the active tier
//! ([`gcon_runtime::kernel_tier`], override with `GCON_KERNEL_TIER`) picks
//! the compilation at run time. `#[target_feature]` cannot apply to generic
//! functions, so each dtype gets its own concrete dispatch stack (an
//! `#[inline(always)]` generic body instantiated by `_f64`/`_f32` wrappers,
//! routed through the [`Scalar`] kernel hooks). Within one dtype, all tiers
//! execute the same arithmetic in the same order (strict FP semantics,
//! autovectorization only), so **tier choice never changes a result** —
//! byte-for-byte, not merely to tolerance.
//!
//! # Determinism policy (per dtype)
//!
//! Reassociating a floating-point accumulation changes its rounding, so the
//! tiled kernels do **not** reproduce the scalar kernels bit-for-bit (they
//! agree to ~1e-9 relative tolerance for f64, pinned by the equivalence
//! tests). What *is* guaranteed — and pinned by
//! `tests/runtime_equivalence.rs` over the full
//! `dtype × GCON_KERNEL_TIER × GCON_THREADS` matrix — is that results are
//! byte-identical across thread counts *and* tiers **within one dtype**: the
//! pool partitions output rows, every output element is produced by exactly
//! one task, and every code path (register tile, M/N/K edge paths, the
//! sparsity-skip loop) accumulates a given element in the same order —
//! sequentially over `k` cache blocks of fixed size [`KC`] (or over sample
//! blocks of fixed size [`TM_IB`], whose dense-vs-skip choice is a pure
//! function of the data) — no matter where a thread boundary or tile
//! boundary falls. Across dtypes no bit relation holds: f32 results carry
//! f32 rounding at every step.

use crate::scalar::Scalar;
use crate::Mat;

/// Register-tile height: rows of `A` (or of `Aᵀ`'s output) per microkernel
/// pass (both dtypes).
pub const MR: usize = 4;

/// Register-tile width for f64: columns of `B` per packed panel /
/// microkernel pass.
pub const NR: usize = 8;

/// Register-tile width for f32 — double [`NR`], so the `MR×NR` accumulator
/// tile occupies the same number of vector registers at twice the elements,
/// and the packed `KC×NR` panel stays the same 16 KiB.
pub const NR_F32: usize = 16;

/// Sample-block length of the [`t_matmul_into`] kernel: the `Σ_i` reduction
/// is chunked into blocks of this many samples, each accumulated in
/// registers and then added to the output. Fixed (never derived from the
/// thread partition) so results are byte-identical across `GCON_THREADS`.
/// The dense-vs-skip sparsity decision is also made per block of this size.
pub const TM_IB: usize = 128;

/// K-cache block length of the [`matmul_into`] kernel: the inner dimension
/// is walked in blocks of this many steps, each packed into a `KC×NR` panel
/// (16 KiB for either dtype — L1-resident) and accumulated into `C`. Fixed
/// (never derived from the thread partition) so results are byte-identical
/// across `GCON_THREADS`.
pub const KC: usize = 256;

/// Zero fraction of a [`TM_IB`] sample block above which [`t_matmul_into`]
/// takes the zero-skipping scatter loop instead of the dense register tile.
/// Measured on the `bench_linalg` sparsity sweep: the dense tile wins up to
/// ~50% ReLU zeros, the skip loop wins from ~90%; the threshold sits in the
/// indifference band between them.
pub const TM_SKIP_ZERO_FRAC: f64 = 0.75;

/// Row-sampling stride of the per-block zero count: every
/// `TM_SPARSITY_SAMPLE_STRIDE`-th row of a [`TM_IB`] sample block is
/// scanned, so the estimate costs `1/stride` of a full pass over `A` while
/// still seeing ≥16 rows per full block. A pure function of the data (never
/// of the thread partition), so the chosen path — and therefore the result —
/// is deterministic.
pub const TM_SPARSITY_SAMPLE_STRIDE: usize = 8;

/// `C = A · B` with a packed, register-tiled kernel (see the module docs),
/// parallelized over row blocks of A on the shared runtime pool.
pub fn matmul<S: Scalar>(a: &Mat<S>, b: &Mat<S>) -> Mat<S> {
    // `matmul_into` shapes and zero-fills; starting empty avoids a
    // redundant full-size zero write.
    let mut c = Mat::default();
    matmul_into(a, b, &mut c);
    c
}

/// `C = A · B` written into `c`, which is reshaped (reusing its backing
/// buffer when capacity allows) to `a.rows() × b.cols()`.
pub fn matmul_into<S: Scalar>(a: &Mat<S>, b: &Mat<S>, c: &mut Mat<S>) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimension mismatch {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    c.reset_to_zeros(m, n);
    gcon_runtime::parallel_rows(c.as_mut_slice(), m, n, m * k * n, |block, start, end| {
        matmul_block(a.as_slice(), b, block, start, end);
    });
}

/// `C = A · B` on the calling thread for an `A` of `rows` rows given as its
/// row-major elements `a` (`rows × b.rows()`), written into `c`
/// (`rows × b.cols()`, overwritten). The kernel of [`matmul_into`], so each
/// row has the bits it gets in the pooled product; for a caller that has
/// already split the rows among threads (a fused row-block pass).
pub fn matmul_rows_into<S: Scalar>(a: &[S], rows: usize, b: &Mat<S>, c: &mut [S]) {
    assert_eq!(a.len(), rows * b.rows(), "matmul_rows_into: A is not rows × b.rows()");
    assert_eq!(c.len(), rows * b.cols(), "matmul_rows_into: C is not rows × b.cols()");
    c.fill(S::ZERO);
    matmul_block(a, b, c, 0, rows);
}

/// Computes rows `[start, end)` of `A · B` into `out` (local row-major
/// block, pre-zeroed by the caller), where `a` holds `A`'s rows row-major
/// with `b.rows()` columns. Acquires the dtype's thread-local panel buffer
/// here — *outside* the dispatched body — so the hot loops sit directly in
/// the `#[target_feature]` function rather than in a closure (closures
/// don't inherit the caller's feature set).
fn matmul_block<S: Scalar>(a: &[S], b: &Mat<S>, out: &mut [S], start: usize, end: usize) {
    let k = b.rows();
    let n = b.cols();
    if k == 0 || n == 0 {
        return;
    }
    S::with_scratch(k.min(KC) * S::GEMM_NR, |panel| {
        S::kernel_matmul_panel(a, b, out, start, end, panel);
    });
}

gcon_runtime::tier_dispatch! {
    /// f64 panel-loop stage of [`matmul_into`] (8-wide panels, 4-lane tail
    /// dots) — see [`matmul_panel_body`].
    pub(crate) fn matmul_panel_f64 / matmul_panel_f64_avx2 / matmul_panel_f64_impl(
        a: &[f64], b: &Mat<f64>, out: &mut [f64], start: usize, end: usize, panel: &mut [f64])
}

#[inline(always)]
fn matmul_panel_f64_impl(
    a: &[f64],
    b: &Mat<f64>,
    out: &mut [f64],
    start: usize,
    end: usize,
    panel: &mut [f64],
) {
    matmul_panel_body::<f64, NR, 4>(a, b, out, start, end, panel)
}

gcon_runtime::tier_dispatch! {
    /// f32 panel-loop stage of [`matmul_into`] (doubled panel width and
    /// tail-dot lanes) — see [`matmul_panel_body`].
    pub(crate) fn matmul_panel_f32 / matmul_panel_f32_avx2 / matmul_panel_f32_impl(
        a: &[f32], b: &Mat<f32>, out: &mut [f32], start: usize, end: usize, panel: &mut [f32])
}

#[inline(always)]
fn matmul_panel_f32_impl(
    a: &[f32],
    b: &Mat<f32>,
    out: &mut [f32],
    start: usize,
    end: usize,
    panel: &mut [f32],
) {
    matmul_panel_body::<f32, NR_F32, 8>(a, b, out, start, end, panel)
}

/// The `matmul` kernel body. For each `NR_`-wide column panel of `B` the
/// `k` range is walked in [`KC`]-sized cache blocks: the block is packed
/// contiguously into the thread-local `panel`, each [`MR`]-row group of `A`
/// accumulates an `MR×NR_` register tile over the block, and the tile is
/// added into the pre-zeroed `out`. The N tail (the last `n % NR_`
/// columns) packs those columns of `B` *transposed* into the same panel,
/// per cache block, and computes each output as a [`dot4`]-style
/// multi-accumulator dot over `k` — this is the path a small-`c` head
/// forward (`c < NR_`) takes in its entirety, so it must vectorize over
/// `k` rather than fall back to a scalar column loop.
///
/// Determinism: every per-element accumulation walks cache blocks in
/// ascending order with a lane structure fixed by the block length and
/// dtype alone (`W` accumulator lanes in the tail dots, one accumulator in
/// the panel tiles), so a row's result does not depend on which path,
/// thread, or row partition computed it.
#[inline(always)]
fn matmul_panel_body<S: Scalar, const NR_: usize, const W: usize>(
    a: &[S],
    b: &Mat<S>,
    out: &mut [S],
    start: usize,
    end: usize,
    panel: &mut [S],
) {
    let k = b.rows();
    let n = b.cols();
    let a_row = |i: usize| &a[i * k..(i + 1) * k];
    let main_n = n - n % NR_;
    {
        let mut jj = 0;
        while jj < main_n {
            let mut kb = 0;
            while kb < k {
                let ke = (kb + KC).min(k);
                // Pack B[kb..ke, jj..jj+NR_] row-major into the panel.
                for (dst, kk) in panel.chunks_exact_mut(NR_).zip(kb..ke) {
                    dst.copy_from_slice(&b.row(kk)[jj..jj + NR_]);
                }
                let packed = &panel[..(ke - kb) * NR_];
                let mut i = start;
                while i + MR <= end {
                    let [r0, r1, r2, r3]: [&[S]; MR] =
                        std::array::from_fn(|r| &a_row(i + r)[kb..ke]);
                    let mut acc = [[S::ZERO; NR_]; MR];
                    for ((((bp, &a0), &a1), &a2), &a3) in
                        packed.chunks_exact(NR_).zip(r0).zip(r1).zip(r2).zip(r3)
                    {
                        for c in 0..NR_ {
                            acc[0][c] += a0 * bp[c];
                            acc[1][c] += a1 * bp[c];
                            acc[2][c] += a2 * bp[c];
                            acc[3][c] += a3 * bp[c];
                        }
                    }
                    for (r, tile_row) in acc.iter().enumerate() {
                        let orow = &mut out[(i + r - start) * n + jj..][..NR_];
                        for (o, &v) in orow.iter_mut().zip(tile_row) {
                            *o += v;
                        }
                    }
                    i += MR;
                }
                // M tail: one row at a time, same panel, same k order.
                while i < end {
                    let mut acc = [S::ZERO; NR_];
                    for (bp, &aik) in packed.chunks_exact(NR_).zip(&a_row(i)[kb..ke]) {
                        for c in 0..NR_ {
                            acc[c] += aik * bp[c];
                        }
                    }
                    let orow = &mut out[(i - start) * n + jj..][..NR_];
                    for (o, &v) in orow.iter_mut().zip(&acc) {
                        *o += v;
                    }
                    i += 1;
                }
                kb = ke;
            }
            jj += NR_;
        }
    }
    // N tail: pack the last n % NR_ columns of B transposed (one
    // contiguous length-`klen` column per output) into the panel, per
    // cache block, zero-padded up to a multiple of 4 columns so every
    // group runs [`dot4`] — the padding outputs are discarded, and since
    // `dot4` computes each output with the same `W`-lane structure a lone
    // dot would use, padding changes timing only, never bits. The padded
    // width never exceeds `NR_`, so `tail_pad · klen ≤ NR_ · KC` fits the
    // panel the caller sized for the register path.
    if main_n < n {
        let tail = n - main_n;
        let tail_pad = (tail + 3) & !3;
        let mut kb = 0;
        while kb < k {
            let ke = (kb + KC).min(k);
            let klen = ke - kb;
            for j in 0..tail {
                let dst = &mut panel[j * klen..(j + 1) * klen];
                for (d, kk) in dst.iter_mut().zip(kb..ke) {
                    *d = b.row(kk)[main_n + j];
                }
            }
            panel[tail * klen..tail_pad * klen].fill(S::ZERO);
            let packed = &panel[..tail_pad * klen];
            for i in start..end {
                let arow = &a_row(i)[kb..ke];
                let crow = &mut out[(i - start) * n + main_n..(i - start + 1) * n];
                let mut j = 0;
                while j < tail {
                    let col = |r: usize| &packed[(j + r) * klen..(j + r + 1) * klen];
                    let d = dot4::<S, W>(arow, col(0), col(1), col(2), col(3));
                    for (cv, &dv) in crow[j..].iter_mut().zip(&d) {
                        *cv += dv;
                    }
                    j += 4;
                }
            }
            kb = ke;
        }
    }
}

/// `C = Aᵀ · B` without materializing the transpose.
///
/// This is the shape that appears in every weight gradient of the manual
/// backprop stack (`∂L/∂W = Xᵀ · δ`).
pub fn t_matmul<S: Scalar>(a: &Mat<S>, b: &Mat<S>) -> Mat<S> {
    let mut c = Mat::default();
    t_matmul_into(a, b, &mut c);
    c
}

/// Path selector for [`t_matmul_into_with`]: which inner loop handles each
/// [`TM_IB`] sample block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TmPath {
    /// Per-block data-driven choice (the default, used by [`t_matmul_into`]):
    /// blocks whose sampled zero fraction exceeds [`TM_SKIP_ZERO_FRAC`] take
    /// the skip loop, the rest the dense tile.
    Auto,
    /// Force the dense register-tile loop for every block.
    Tiled,
    /// Force the zero-skipping scatter loop for every block.
    Skip,
}

/// `C = Aᵀ · B` written into `c` (reshaped to `a.cols() × b.cols()`),
/// parallelized over row blocks of `C` (= column blocks of `A`) on the
/// shared runtime pool, with the sparsity-adaptive block path
/// ([`TmPath::Auto`] — see [`t_matmul_into_with`]).
pub fn t_matmul_into<S: Scalar>(a: &Mat<S>, b: &Mat<S>, c: &mut Mat<S>) {
    t_matmul_into_with(a, b, c, TmPath::Auto);
}

/// [`t_matmul_into`] with an explicit block-path choice.
///
/// `TmPath::Auto` estimates each [`TM_IB`] sample block's zero fraction
/// (scanning every [`TM_SPARSITY_SAMPLE_STRIDE`]-th row, full width — a
/// pure function of `A`, independent of the thread partition and of the
/// dispatch tier) and routes blocks above [`TM_SKIP_ZERO_FRAC`] to a
/// zero-skipping scatter loop: on post-ReLU activations at ≥~80% zeros the
/// dense tile performs the FLOPs the old scalar kernel's zero-skip avoided,
/// and loses to it. `Tiled` / `Skip` pin the path so tests and benches can
/// compare both loops on identical data; the crossover regression test
/// asserts `Auto` matches the pinned path bit-for-bit on either side of the
/// threshold.
pub fn t_matmul_into_with<S: Scalar>(a: &Mat<S>, b: &Mat<S>, c: &mut Mat<S>, path: TmPath) {
    assert_eq!(a.rows(), b.rows(), "t_matmul: row mismatch");
    let (n_samples, d_in) = a.shape();
    let d_out = b.cols();
    c.reset_to_zeros(d_in, d_out);
    let skip = t_matmul_skip_flags(a, path);
    let work = n_samples * d_in * d_out;
    gcon_runtime::parallel_rows(c.as_mut_slice(), d_in, d_out, work, |block, k0, k1| {
        for (ib, &skip) in (0..n_samples).step_by(TM_IB).zip(&skip) {
            let ie = (ib + TM_IB).min(n_samples);
            let b_rows = &b.as_slice()[ib * d_out..ie * d_out];
            S::kernel_t_matmul_block(a, b_rows, block, k0, k1, ib, skip);
        }
    });
}

/// `C = Aᵀ · B` for a `B` of `b_cols` columns that is never stored whole:
/// `fill_b(start, rows)` writes rows `[start, start + TM_IB)` of `B` (fewer
/// in the last block), row-major, into `rows`, a per-thread scratch
/// buffer, and the [`t_matmul_into`] kernel adds that sample block into
/// the output before the next is filled. Blocks and paths
/// ([`TmPath::Auto`]) are those of [`t_matmul_into`], so the result has its
/// bits; each thread fills every block for its own output rows.
pub fn t_matmul_streamed<S: Scalar>(
    a: &Mat<S>,
    b_cols: usize,
    fill_b: impl Fn(usize, &mut [S]) + Sync,
) -> Mat<S> {
    let (n_samples, d_in) = a.shape();
    let mut c = Mat::zeros(d_in, b_cols);
    let skip = t_matmul_skip_flags(a, TmPath::Auto);
    let work = n_samples * d_in * b_cols;
    gcon_runtime::parallel_rows(c.as_mut_slice(), d_in, b_cols, work, |block, k0, k1| {
        S::with_scratch(TM_IB.min(n_samples) * b_cols, |scratch| {
            for (ib, &skip) in (0..n_samples).step_by(TM_IB).zip(&skip) {
                let ie = (ib + TM_IB).min(n_samples);
                let b_rows = &mut scratch[..(ie - ib) * b_cols];
                fill_b(ib, b_rows);
                S::kernel_t_matmul_block(a, b_rows, block, k0, k1, ib, skip);
            }
        });
    });
    c
}

/// One flag per [`TM_IB`] sample block of `A`: `true` routes the block to
/// the zero-skipping loop. Computed once per call, over full rows (never
/// the thread partition's column range), so every thread — and every
/// dispatch tier — agrees on the path and the accumulation order.
fn t_matmul_skip_flags<S: Scalar>(a: &Mat<S>, path: TmPath) -> Vec<bool> {
    let (n_samples, d_in) = a.shape();
    let n_blocks = n_samples.div_ceil(TM_IB);
    match path {
        TmPath::Tiled => return vec![false; n_blocks],
        TmPath::Skip => return vec![true; n_blocks],
        TmPath::Auto => {}
    }
    if d_in == 0 {
        return vec![false; n_blocks];
    }
    (0..n_blocks)
        .map(|bi| {
            let ib = bi * TM_IB;
            let ie = (ib + TM_IB).min(n_samples);
            let mut zeros = 0usize;
            let mut scanned = 0usize;
            for i in (ib..ie).step_by(TM_SPARSITY_SAMPLE_STRIDE) {
                zeros += a.row(i).iter().filter(|v| **v == S::ZERO).count();
                scanned += d_in;
            }
            zeros as f64 > TM_SKIP_ZERO_FRAC * scanned as f64
        })
        .collect()
}

gcon_runtime::tier_dispatch! {
    /// f64 `AᵀB` block kernel (rows `[k0, k1)` of the output, the sample
    /// block starting at `ib`) — see [`t_matmul_block_body`].
    pub(crate) fn t_matmul_block_f64 / t_matmul_block_f64_avx2 / t_matmul_block_f64_impl(
        a: &Mat<f64>, b_rows: &[f64], out: &mut [f64], k0: usize, k1: usize, ib: usize,
        skip: bool)
}

#[inline(always)]
fn t_matmul_block_f64_impl(
    a: &Mat<f64>,
    b_rows: &[f64],
    out: &mut [f64],
    k0: usize,
    k1: usize,
    ib: usize,
    skip: bool,
) {
    t_matmul_block_body::<f64, NR>(a, b_rows, out, k0, k1, ib, skip)
}

gcon_runtime::tier_dispatch! {
    /// f32 `AᵀB` block kernel (doubled tile width) — see
    /// [`t_matmul_block_body`].
    pub(crate) fn t_matmul_block_f32 / t_matmul_block_f32_avx2 / t_matmul_block_f32_impl(
        a: &Mat<f32>, b_rows: &[f32], out: &mut [f32], k0: usize, k1: usize, ib: usize,
        skip: bool)
}

#[inline(always)]
fn t_matmul_block_f32_impl(
    a: &Mat<f32>,
    b_rows: &[f32],
    out: &mut [f32],
    k0: usize,
    k1: usize,
    ib: usize,
    skip: bool,
) {
    t_matmul_block_body::<f32, NR_F32>(a, b_rows, out, k0, k1, ib, skip)
}

/// One sample block of the `t_matmul` kernel: the `Σ_i a[i][k]·b[i][j]`
/// reduction is chunked into [`TM_IB`]-sample blocks, and this adds the
/// block of samples `[ib, min(ib + TM_IB, n))` into `out`, whose rows are
/// the output rows `[k0, k1)`; `b_rows` holds the block's rows of `B`. A
/// dense block accumulates an [`MR`]`×NR_` register tile (`MR` output rows
/// × `NR_` output columns) across the block's samples, then adds into
/// `out`; a block flagged `skip` instead scatters each nonzero `a[i][k]`
/// onto the output row — cheaper when almost everything is zero.
/// Sample-block boundaries are fixed multiples of `TM_IB`, the callers
/// add the blocks in ascending order, the flags are a pure function of
/// `A`, and every path (dense tile, K tail rows, J tail columns, skip
/// scatter) uses the same block-sequential, sample-ascending per-element
/// order, so results are byte-identical whatever the thread partition.
#[inline(always)]
fn t_matmul_block_body<S: Scalar, const NR_: usize>(
    a: &Mat<S>,
    b_rows: &[S],
    out: &mut [S],
    k0: usize,
    k1: usize,
    ib: usize,
    skip: bool,
) {
    let ie = (ib + TM_IB).min(a.rows());
    let d_out = b_rows.len() / (ie - ib);
    if d_out == 0 {
        return;
    }
    let b_row = |i: usize| &b_rows[(i - ib) * d_out..(i - ib + 1) * d_out];
    let main_j = d_out - d_out % NR_;
    if skip {
        // Zero-skipping scatter, restricted to this partition's output
        // rows: one `d_out`-wide axpy per *nonzero* of A[i][k0..k1].
        for i in ib..ie {
            let arow = &a.row(i)[k0..k1];
            let brow = b_row(i);
            for (rel_k, &av) in arow.iter().enumerate() {
                if av == S::ZERO {
                    continue;
                }
                let orow = &mut out[rel_k * d_out..(rel_k + 1) * d_out];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        return;
    }
    let mut kk = k0;
    while kk + MR <= k1 {
        let mut jj = 0;
        while jj < main_j {
            let mut acc = [[S::ZERO; NR_]; MR];
            for i in ib..ie {
                let av = &a.row(i)[kk..kk + MR];
                let bv = &b_row(i)[jj..jj + NR_];
                for r in 0..MR {
                    for c in 0..NR_ {
                        acc[r][c] += av[r] * bv[c];
                    }
                }
            }
            for (r, tile_row) in acc.iter().enumerate() {
                let orow = &mut out[(kk + r - k0) * d_out + jj..][..NR_];
                for (o, &v) in orow.iter_mut().zip(tile_row) {
                    *o += v;
                }
            }
            jj += NR_;
        }
        if main_j < d_out {
            // J tail: fewer than NR_ columns, same MR rows and order.
            let mut acc = [[S::ZERO; NR_]; MR];
            for i in ib..ie {
                let av = &a.row(i)[kk..kk + MR];
                let bv = &b_row(i)[main_j..];
                for r in 0..MR {
                    for (c, &bvc) in bv.iter().enumerate() {
                        acc[r][c] += av[r] * bvc;
                    }
                }
            }
            for (r, tile_row) in acc.iter().enumerate() {
                let orow = &mut out[(kk + r - k0) * d_out + main_j..(kk + r - k0 + 1) * d_out];
                for (o, &v) in orow.iter_mut().zip(tile_row) {
                    *o += v;
                }
            }
        }
        kk += MR;
    }
    // K tail: remaining output rows one at a time, same sample block.
    while kk < k1 {
        let mut jj = 0;
        while jj < main_j {
            let mut acc = [S::ZERO; NR_];
            for i in ib..ie {
                let av = a.row(i)[kk];
                let bv = &b_row(i)[jj..jj + NR_];
                for c in 0..NR_ {
                    acc[c] += av * bv[c];
                }
            }
            let orow = &mut out[(kk - k0) * d_out + jj..][..NR_];
            for (o, &v) in orow.iter_mut().zip(&acc) {
                *o += v;
            }
            jj += NR_;
        }
        if main_j < d_out {
            let mut acc = [S::ZERO; NR_];
            for i in ib..ie {
                let av = a.row(i)[kk];
                for (c, &bvc) in b_row(i)[main_j..].iter().enumerate() {
                    acc[c] += av * bvc;
                }
            }
            let orow = &mut out[(kk - k0) * d_out + main_j..(kk - k0 + 1) * d_out];
            for (o, &v) in orow.iter_mut().zip(&acc) {
                *o += v;
            }
        }
        kk += 1;
    }
}

/// `C = A · Bᵀ` without materializing the transpose (pairwise row dots).
pub fn matmul_bt<S: Scalar>(a: &Mat<S>, b: &Mat<S>) -> Mat<S> {
    let mut c = Mat::default();
    matmul_bt_into(a, b, &mut c);
    c
}

/// `C = A · Bᵀ` written into `c` (reshaped to `a.rows() × b.rows()`),
/// parallelized over row blocks of A on the shared runtime pool.
///
/// Rows of `B` are consumed four at a time (the `dot4` kernel), so each `A` row is
/// streamed once per four outputs instead of once per output. The grouping
/// starts at column 0 regardless of the thread partition (which splits rows
/// of `A`), so each element's accumulation order is partition-independent.
pub fn matmul_bt_into<S: Scalar>(a: &Mat<S>, b: &Mat<S>, c: &mut Mat<S>) {
    assert_eq!(a.cols(), b.cols(), "matmul_bt: column mismatch");
    let m = a.rows();
    let n = b.rows();
    let k = a.cols();
    c.reset_to_zeros(m, n);
    gcon_runtime::parallel_rows(c.as_mut_slice(), m, n, m * k * n, |block, start, _end| {
        S::kernel_matmul_bt_block(a, b, block, start);
    });
}

gcon_runtime::tier_dispatch! {
    /// f64 `A·Bᵀ` block kernel (rows `start..` of the output) — see
    /// [`matmul_bt_block_body`].
    pub(crate) fn matmul_bt_block_f64 / matmul_bt_block_f64_avx2 / matmul_bt_block_f64_impl(
        a: &Mat<f64>, b: &Mat<f64>, block: &mut [f64], start: usize)
}

#[inline(always)]
fn matmul_bt_block_f64_impl(a: &Mat<f64>, b: &Mat<f64>, block: &mut [f64], start: usize) {
    // f64 dot4 unroll: 4 elements per step.
    matmul_bt_block_body::<f64, 4>(a, b, block, start)
}

gcon_runtime::tier_dispatch! {
    /// f32 `A·Bᵀ` block kernel (doubled dot4 unroll) — see
    /// [`matmul_bt_block_body`].
    pub(crate) fn matmul_bt_block_f32 / matmul_bt_block_f32_avx2 / matmul_bt_block_f32_impl(
        a: &Mat<f32>, b: &Mat<f32>, block: &mut [f32], start: usize)
}

#[inline(always)]
fn matmul_bt_block_f32_impl(a: &Mat<f32>, b: &Mat<f32>, block: &mut [f32], start: usize) {
    // f32 dot4 unroll: 8 elements per step (doubled lanes).
    matmul_bt_block_body::<f32, 8>(a, b, block, start)
}

/// The `matmul_bt` kernel body: four rows of `B` per pass over each row of
/// `A` ([`dot4`]), single dots for the `n % 4` tail columns.
#[inline(always)]
fn matmul_bt_block_body<S: Scalar, const W: usize>(
    a: &Mat<S>,
    b: &Mat<S>,
    block: &mut [S],
    start: usize,
) {
    let n = b.rows();
    let main_n = n - n % 4;
    for (local, crow) in block.chunks_mut(n.max(1)).enumerate() {
        let arow = a.row(start + local);
        let mut j = 0;
        while j < main_n {
            let d = dot4::<S, W>(arow, b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
            crow[j..j + 4].copy_from_slice(&d);
            j += 4;
        }
        for (jt, cv) in crow.iter_mut().enumerate().take(n).skip(main_n) {
            *cv = crate::vecops::dot(arow, b.row(jt));
        }
    }
}

/// Four simultaneous dot products of `a` against `b0..b3` (all the same
/// length): one pass over `a`, `W` lanes of independent accumulators per
/// output (4 for f64, 8 for f32). Deterministic — the accumulation
/// structure depends only on the slice length and dtype.
#[inline(always)]
fn dot4<S: Scalar, const W: usize>(a: &[S], b0: &[S], b1: &[S], b2: &[S], b3: &[S]) -> [S; 4] {
    let main = a.len() - a.len() % W;
    let mut acc = [[S::ZERO; W]; 4];
    let mut kk = 0;
    while kk < main {
        let av = &a[kk..kk + W];
        for (r, b) in [b0, b1, b2, b3].iter().enumerate() {
            let bv = &b[kk..kk + W];
            for l in 0..W {
                acc[r][l] += av[l] * bv[l];
            }
        }
        kk += W;
    }
    let mut out = [S::ZERO; 4];
    for (r, lanes) in acc.iter().enumerate() {
        out[r] = crate::vecops::reduce_lanes(*lanes);
    }
    for (t, &av) in a[main..].iter().enumerate() {
        out[0] += av * b0[main + t];
        out[1] += av * b1[main + t];
        out[2] += av * b2[main + t];
        out[3] += av * b3[main + t];
    }
    out
}

/// Element-wise `A + B`.
pub fn add<S: Scalar>(a: &Mat<S>, b: &Mat<S>) -> Mat<S> {
    assert_eq!(a.shape(), b.shape(), "add: shape mismatch");
    let mut out = a.clone();
    add_assign(&mut out, b);
    out
}

/// `a += b` element-wise.
pub fn add_assign<S: Scalar>(a: &mut Mat<S>, b: &Mat<S>) {
    assert_eq!(a.shape(), b.shape(), "add_assign: shape mismatch");
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += *y;
    }
}

/// `a += alpha * b` element-wise.
pub fn add_scaled_assign<S: Scalar>(a: &mut Mat<S>, alpha: S, b: &Mat<S>) {
    assert_eq!(a.shape(), b.shape(), "add_scaled_assign: shape mismatch");
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += alpha * *y;
    }
}

/// Element-wise `A - B`.
pub fn sub<S: Scalar>(a: &Mat<S>, b: &Mat<S>) -> Mat<S> {
    assert_eq!(a.shape(), b.shape(), "sub: shape mismatch");
    let mut out = a.clone();
    for (x, y) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x -= *y;
    }
    out
}

/// `alpha * A`.
pub fn scale<S: Scalar>(a: &Mat<S>, alpha: S) -> Mat<S> {
    a.map(|v| v * alpha)
}

/// Element-wise (Hadamard) product.
pub fn hadamard<S: Scalar>(a: &Mat<S>, b: &Mat<S>) -> Mat<S> {
    assert_eq!(a.shape(), b.shape(), "hadamard: shape mismatch");
    let mut out = a.clone();
    for (x, y) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x *= *y;
    }
    out
}

/// `⟨A, B⟩ = Σ_ij A_ij B_ij` — the `⊙` operator of Eq. (13) in the paper
/// (element-wise product followed by a global sum, sequential order).
pub fn frobenius_inner<S: Scalar>(a: &Mat<S>, b: &Mat<S>) -> S {
    assert_eq!(a.shape(), b.shape(), "frobenius_inner: shape mismatch");
    a.as_slice().iter().zip(b.as_slice()).fold(S::ZERO, |acc, (x, y)| acc + *x * *y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn naive_matmul_f32(a: &Mat<f32>, b: &Mat<f32>) -> Mat<f32> {
        let mut c = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0f32;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn matmul_small_exact() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_matches_naive_large() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let a: Mat = Mat::uniform(67, 43, 1.0, &mut rng);
        let b: Mat = Mat::uniform(43, 29, 1.0, &mut rng);
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn matmul_parallel_path_matches_naive() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        // Big enough to trigger the threaded path (m·k·n ≥ PAR_THRESHOLD).
        let a: Mat = Mat::uniform(256, 64, 1.0, &mut rng);
        let b: Mat = Mat::uniform(64, 32, 1.0, &mut rng);
        assert!(a.rows() * a.cols() * b.cols() >= gcon_runtime::PAR_THRESHOLD);
        let fast = matmul(&a, &b);
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let a: Mat = Mat::uniform(31, 7, 1.0, &mut rng);
        let b: Mat = Mat::uniform(31, 5, 1.0, &mut rng);
        let fast = t_matmul(&a, &b);
        let slow = matmul(&a.transpose(), &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(4);
        let a: Mat = Mat::uniform(13, 9, 1.0, &mut rng);
        let b: Mat = Mat::uniform(11, 9, 1.0, &mut rng);
        let fast = matmul_bt(&a, &b);
        let slow = matmul(&a, &b.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    /// Tile-tail coverage: shapes around the MR/NR/dot4 boundaries, plus
    /// 0/1-sized dimensions, all against the naive reference.
    #[test]
    fn tiled_kernels_handle_awkward_shapes() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (MR, 3, NR),
            (MR + 1, 1, NR + 1),
            (MR - 1, NR, NR - 1),
            (2 * MR + 3, 2 * NR + 5, 3 * NR + 7),
            (5, 0, 4),
            (0, 3, 4),
            (4, 3, 0),
        ] {
            let a: Mat = Mat::uniform(m, k, 1.0, &mut rng);
            let b: Mat = Mat::uniform(k, n, 1.0, &mut rng);
            let fast = matmul(&a, &b);
            let slow = naive_matmul(&a, &b);
            assert_eq!(fast.shape(), (m, n), "{m}x{k}x{n}");
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-12, "matmul {m}x{k}x{n}: {x} vs {y}");
            }
            // Aᵀ·B over the same awkward shapes (a is m×k ⇒ use it as the
            // sample matrix, b must share the row count).
            let b2: Mat = Mat::uniform(m, n, 1.0, &mut rng);
            let fast_t = t_matmul(&a, &b2);
            let slow_t = naive_matmul(&a.transpose(), &b2);
            for (x, y) in fast_t.as_slice().iter().zip(slow_t.as_slice()) {
                assert!((x - y).abs() < 1e-12, "t_matmul {m}x{k}x{n}: {x} vs {y}");
            }
            // A·Bᵀ: b3 shares the column count.
            let b3: Mat = Mat::uniform(n, k, 1.0, &mut rng);
            let fast_bt = matmul_bt(&a, &b3);
            let slow_bt = naive_matmul(&a, &b3.transpose());
            for (x, y) in fast_bt.as_slice().iter().zip(slow_bt.as_slice()) {
                assert!((x - y).abs() < 1e-12, "matmul_bt {m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    /// The f32 instantiations (NR_F32-wide tiles, widened dot4 unroll) hit
    /// their own tile tails: shapes straddle NR_F32 and the doubled dot4
    /// width, all against a naive f32 reference with f32-appropriate
    /// tolerance.
    #[test]
    fn f32_kernels_handle_awkward_shapes() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (MR, 3, NR_F32),
            (MR + 1, 9, NR_F32 + 1),
            (MR - 1, NR_F32, NR_F32 - 1),
            (2 * MR + 3, NR_F32 + 5, 2 * NR_F32 + 7),
            (5, 0, 4),
            (0, 3, 4),
        ] {
            let a: Mat<f32> = Mat::uniform(m, k, 1.0, &mut rng);
            let b: Mat<f32> = Mat::uniform(k, n, 1.0, &mut rng);
            let fast = matmul(&a, &b);
            let slow = naive_matmul_f32(&a, &b);
            assert_eq!(fast.shape(), (m, n), "{m}x{k}x{n}");
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-4, "matmul f32 {m}x{k}x{n}: {x} vs {y}");
            }
            let b2: Mat<f32> = Mat::uniform(m, n, 1.0, &mut rng);
            let fast_t = t_matmul(&a, &b2);
            let slow_t = naive_matmul_f32(&a.transpose(), &b2);
            for (x, y) in fast_t.as_slice().iter().zip(slow_t.as_slice()) {
                assert!((x - y).abs() < 1e-4, "t_matmul f32 {m}x{k}x{n}: {x} vs {y}");
            }
            let b3: Mat<f32> = Mat::uniform(n, k, 1.0, &mut rng);
            let fast_bt = matmul_bt(&a, &b3);
            let slow_bt = naive_matmul_f32(&a, &b3.transpose());
            for (x, y) in fast_bt.as_slice().iter().zip(slow_bt.as_slice()) {
                assert!((x - y).abs() < 1e-4, "matmul_bt f32 {m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    /// Outputs narrower than one register panel (the shape of every
    /// small-`c` head forward) run wholly or partly in the dot-based N tail.
    /// At every available tier they match the naive reference, and each
    /// dtype's result is bitwise the same at every tier.
    #[test]
    fn narrow_products_agree_bitwise_across_tiers() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        for n in 1..NR_F32 {
            let a: Mat = Mat::uniform(2 * MR + 1, KC + 3, 1.0, &mut rng);
            let b: Mat = Mat::uniform(KC + 3, n, 1.0, &mut rng);
            let (a32, b32) = (a.convert::<f32>(), b.convert::<f32>());
            let slow = naive_matmul(&a, &b);
            let mut bits_per_tier = Vec::new();
            gcon_runtime::for_each_available_tier(|tier| {
                let (c, c32) = (matmul(&a, &b), matmul(&a32, &b32));
                for (x, y) in c.as_slice().iter().zip(slow.as_slice()) {
                    assert!((x - y).abs() <= 1e-9 * y.abs().max(1.0), "{tier} n={n}: {x} vs {y}");
                }
                let bits64: Vec<u64> = c.as_slice().iter().map(|v| v.to_bits()).collect();
                let bits32: Vec<u32> = c32.as_slice().iter().map(|v| v.to_bits()).collect();
                bits_per_tier.push((tier, bits64, bits32));
            });
            let (t0, ref64, ref32) = &bits_per_tier[0];
            for (tier, bits64, bits32) in &bits_per_tier[1..] {
                assert!(bits64 == ref64, "f64 n={n}: {tier} differs from {t0}");
                assert!(bits32 == ref32, "f32 n={n}: {tier} differs from {t0}");
            }
        }
    }

    /// Bit patterns of a row, widened exactly to f64 so one helper serves
    /// both dtypes.
    fn row_bits<S: Scalar>(row: &[S]) -> Vec<u64> {
        row.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// Each row of the row-block-parallel `A·B` equals that row multiplied
    /// alone, bitwise, for both dtypes: the pool partition decides only who
    /// computes a row, and a lone row's M-tail path accumulates in the same
    /// order as the register tile.
    #[test]
    fn matmul_rows_do_not_depend_on_the_row_partition() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        fn check<S: Scalar>(a: &Mat<S>, b: &Mat<S>) {
            let full = matmul(a, b);
            for i in 0..a.rows() {
                let alone = matmul(&Mat::from_rows(&[a.row(i)]), b);
                assert_eq!(row_bits(alone.row(0)), row_bits(full.row(i)), "{} row {i}", S::DTYPE);
            }
        }
        let mut rng = StdRng::seed_from_u64(41);
        // m·k·n above PAR_THRESHOLD, so the pool splits the rows.
        let a: Mat = Mat::uniform(67, KC + 9, 1.0, &mut rng);
        let b: Mat = Mat::uniform(KC + 9, 2 * NR_F32 + 5, 1.0, &mut rng);
        assert!(a.rows() * a.cols() * b.cols() >= gcon_runtime::PAR_THRESHOLD);
        check(&a, &b);
        check(&a.convert::<f32>(), &b.convert::<f32>());
    }

    /// `matmul_rows_into` on a run of `A`'s rows (given as a slice, into a
    /// stale buffer) is bitwise those rows of the pooled `matmul`, for both
    /// dtypes, with K past one cache block and N past the register tile.
    #[test]
    fn matmul_rows_into_is_bitwise_the_rows_of_matmul() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        fn check<S: Scalar>(a: &Mat<S>, b: &Mat<S>) {
            let full = matmul(a, b);
            let (k, n) = (a.cols(), b.cols());
            for (start, end) in [(0, a.rows()), (0, 1), (3, 10), (a.rows() - 5, a.rows())] {
                let rows = end - start;
                let mut out = vec![S::from_f64(f64::NAN); rows * n];
                matmul_rows_into(&a.as_slice()[start * k..end * k], rows, b, &mut out);
                let want = &full.as_slice()[start * n..end * n];
                assert_eq!(row_bits(&out), row_bits(want), "{} rows {start}..{end}", S::DTYPE);
            }
        }
        let mut rng = StdRng::seed_from_u64(42);
        let a: Mat = Mat::uniform(67, KC + 9, 1.0, &mut rng);
        let b: Mat = Mat::uniform(KC + 9, 2 * NR_F32 + 5, 1.0, &mut rng);
        check(&a, &b);
        check(&a.convert::<f32>(), &b.convert::<f32>());
    }

    /// Each output row of the parallel `AᵀB` (one column of `A`) equals that
    /// column's product computed alone, bitwise, on both pinned block paths.
    #[test]
    fn t_matmul_rows_do_not_depend_on_the_output_partition() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(43);
        let (n_samples, d_in, d_out) = (2 * TM_IB + 44, 67, 2 * NR + 5);
        assert!(n_samples * d_in * d_out >= gcon_runtime::PAR_THRESHOLD, "runs on the pool");
        let a: Mat = Mat::uniform(n_samples, d_in, 1.0, &mut rng);
        let b: Mat = Mat::uniform(n_samples, d_out, 1.0, &mut rng);
        for path in [TmPath::Tiled, TmPath::Skip] {
            let mut full = Mat::default();
            t_matmul_into_with(&a, &b, &mut full, path);
            for k in 0..d_in {
                let col = Mat::from_fn(n_samples, 1, |i, _| a.get(i, k));
                let mut alone = Mat::default();
                t_matmul_into_with(&col, &b, &mut alone, path);
                assert_eq!(row_bits(alone.row(0)), row_bits(full.row(k)), "{path:?} row {k}");
            }
        }
    }

    /// `t_matmul_streamed` is bitwise `t_matmul_into` on the `B` its
    /// closure fills, for both dtypes: with sample blocks on the dense tile
    /// and on the skip loop, a short last block, and K and J tails, inline
    /// and on the pool. Every block arrives once per thread, in order.
    #[test]
    fn t_matmul_streamed_is_bitwise_t_matmul() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        fn check<S: Scalar>(a: &Mat<S>, b: &Mat<S>) {
            let mut want = Mat::default();
            t_matmul_into(a, b, &mut want);
            let d_out = b.cols();
            let starts = std::sync::Mutex::new(Vec::new());
            let got = t_matmul_streamed(a, d_out, |start, rows| {
                rows.copy_from_slice(&b.as_slice()[start * d_out..][..rows.len()]);
                starts.lock().unwrap().push((std::thread::current().id(), start));
            });
            assert_eq!(row_bits(got.as_slice()), row_bits(want.as_slice()), "{}", S::DTYPE);
            // Threads interleave their fills, so each thread's are checked
            // on their own: whole runs over every block, in order.
            let want: Vec<usize> = (0..a.rows()).step_by(TM_IB).collect();
            let starts = starts.into_inner().unwrap();
            let mut threads = Vec::new();
            for &(id, _) in &starts {
                if !threads.contains(&id) {
                    threads.push(id);
                }
            }
            for id in threads {
                let run: Vec<usize> =
                    starts.iter().filter(|&&(t, _)| t == id).map(|&(_, s)| s).collect();
                assert_eq!(run.len() % want.len(), 0, "every block once per output range");
                for run in run.chunks(want.len()) {
                    assert_eq!(run, &want[..], "blocks in order");
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(48);
        let (n_samples, d_in, d_out) = (3 * TM_IB + 17, 4 * MR + 3, 5 * NR + 5);
        // The second block is ReLU-sparse, so it takes the skip loop.
        let mut a: Mat = Mat::uniform(n_samples, d_in, 1.0, &mut rng);
        for i in TM_IB..2 * TM_IB {
            a.row_mut(i).iter_mut().filter(|v| **v < 0.9).for_each(|v| *v = 0.0);
        }
        assert_eq!(t_matmul_skip_flags(&a, TmPath::Auto), [false, true, false, false]);
        let b: Mat = Mat::uniform(n_samples, d_out, 1.0, &mut rng);
        assert!(n_samples * d_in * d_out >= gcon_runtime::PAR_THRESHOLD, "runs on the pool");
        check(&a, &b);
        check(&a.convert::<f32>(), &b.convert::<f32>());
        let small = Mat::from_fn(5, 3, |i, j| (i * 3 + j) as f64 - 4.0);
        check(&small, &Mat::from_fn(5, 2, |i, j| (i + 2 * j) as f64 * 0.25));
    }

    /// Each row of the parallel `A·Bᵀ` equals that row's dots computed
    /// alone, bitwise, for both dtypes.
    #[test]
    fn matmul_bt_rows_do_not_depend_on_the_row_partition() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        fn check<S: Scalar>(a: &Mat<S>, b: &Mat<S>) {
            let full = matmul_bt(a, b);
            for i in 0..a.rows() {
                let alone = matmul_bt(&Mat::from_rows(&[a.row(i)]), b);
                assert_eq!(row_bits(alone.row(0)), row_bits(full.row(i)), "{} row {i}", S::DTYPE);
            }
        }
        let mut rng = StdRng::seed_from_u64(47);
        let a: Mat = Mat::uniform(121, 131, 1.0, &mut rng);
        let b: Mat = Mat::uniform(27, 131, 1.0, &mut rng);
        assert!(a.rows() * a.cols() * b.rows() >= gcon_runtime::PAR_THRESHOLD, "runs on the pool");
        check(&a, &b);
        check(&a.convert::<f32>(), &b.convert::<f32>());
    }

    /// Inner dimensions straddling the KC cache-block boundary exercise the
    /// panel re-pack and the accumulate-into-C path of the K-blocked kernel.
    #[test]
    fn matmul_k_cache_blocking_matches_naive() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        for &k in &[KC - 1, KC, KC + 1, KC + 37, 2 * KC + 5] {
            let a: Mat = Mat::uniform(MR + 1, k, 1.0, &mut rng);
            let b: Mat = Mat::uniform(k, NR + 3, 1.0, &mut rng);
            let fast = matmul(&a, &b);
            let slow = naive_matmul(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() <= 1e-9 * y.abs().max(1.0), "k={k}: {x} vs {y}");
            }
        }
    }

    /// Both pinned `t_matmul` paths agree with the naive reference, and the
    /// skip path handles blocks that are entirely zero.
    #[test]
    fn t_matmul_pinned_paths_match_naive() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(23);
        let n_samples = TM_IB * 2 + 11;
        let mut a: Mat = Mat::uniform(n_samples, 13, 1.0, &mut rng);
        // First sample block all-zero, rest ~60% zeros.
        a.map_inplace(|v| if (v * 1e4).rem_euclid(1.0) < 0.6 { 0.0 } else { v });
        for i in 0..TM_IB {
            for k in 0..13 {
                a.set(i, k, 0.0);
            }
        }
        let b: Mat = Mat::uniform(n_samples, 9, 1.0, &mut rng);
        let slow = naive_matmul(&a.transpose(), &b);
        for path in [TmPath::Auto, TmPath::Tiled, TmPath::Skip] {
            let mut fast = Mat::default();
            t_matmul_into_with(&a, &b, &mut fast, path);
            assert_eq!(fast.shape(), (13, 9));
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() <= 1e-9 * y.abs().max(1.0), "{path:?}: {x} vs {y}");
            }
        }
    }

    /// A sample count crossing the TM_IB block boundary exercises the
    /// partial-sum accumulation of the tiled `t_matmul` kernel.
    #[test]
    fn t_matmul_across_sample_block_boundary() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(12);
        let n_samples = TM_IB + TM_IB / 2 + 3;
        let a: Mat = Mat::uniform(n_samples, 5, 1.0, &mut rng);
        let b: Mat = Mat::uniform(n_samples, 9, 1.0, &mut rng);
        let fast = t_matmul(&a, &b);
        let slow = naive_matmul(&a.transpose(), &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = Mat::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(matmul(&a, &Mat::eye(5)), a);
        assert_eq!(matmul(&Mat::eye(5), &a), a);
    }

    #[test]
    fn add_sub_scale_roundtrip() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, 5.0]]);
        let s = add(&a, &b);
        assert_eq!(s, Mat::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(sub(&s, &b), a);
        assert_eq!(scale(&a, 2.0), Mat::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn frobenius_inner_matches_elementwise_sum() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(frobenius_inner(&a, &b), 5.0 + 12.0 + 21.0 + 32.0);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(hadamard(&a, &b), Mat::from_rows(&[&[3.0, 8.0]]));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_dimension_mismatch_panics() {
        let a: Mat = Mat::zeros(2, 3);
        let b: Mat = Mat::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}
