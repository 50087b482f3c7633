//! Substrate microbench and perf-trajectory recorder: the dense GEMM and
//! sparse×dense kernels every training loop in the workspace sits on.
//!
//! Each rewritten kernel (the register-tiled, K-cache-blocked `matmul`,
//! pooled sparsity-adaptive `t_matmul`, batched `matmul_bt`, unrolled
//! `spmm`) is timed against an in-binary copy
//! of the **pre-PR-3 scalar kernel**, run through the same `parallel_rows`
//! partitioning at the same thread count, so the recorded speedup isolates
//! the kernel rewrite from threading effects. Every shape is swept **once
//! per dispatch tier the host supports** (`gcon_runtime::available_tiers`
//! — absent tiers are skipped, never failed, so the CI smoke passes on any
//! box), pinning the tier with `set_kernel_tier`; `t_matmul` additionally
//! sweeps ReLU-style sparsity at 0/50/90/99% zeros to track the adaptive
//! skip-path crossover.
//!
//! The sweep also carries an **f32 column**: for each kernel family one or
//! more shapes are re-timed with the `f64` tiled kernel as the paired
//! "before" and the `f32` tiled kernel (same shape, operands quantized
//! once up front) as the "after", so those rows' speedup isolates the
//! dtype narrowing — half the memory traffic and double the SIMD lanes —
//! from both threading and the scalar→tiled rewrite. The same
//! back-to-back pairing per tier applies; `dtype` in the JSON tells the
//! two row kinds apart (`f64` rows compare scalar-vs-tiled, `f32` rows
//! compare f64-vs-f32 tiled).
//!
//! Results are printed per shape × tier and written machine-readably to
//! `BENCH_linalg.json` at the workspace root (override with
//! `GCON_BENCH_OUT`), stamped with the host they were measured on
//! (`gcon_bench::host_stamp_json`). `GCON_BENCH_QUICK=1` shrinks the sweep
//! for CI smoke runs.

use gcon_bench::median_time_ns as time_ns;
use gcon_graph::normalize::row_stochastic_default;
use gcon_graph::Csr;
use gcon_linalg::{ops, Mat};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// One before/after comparison row of the JSON report.
///
/// `dtype` says what the pairing means: `"f64"` rows time the pre-PR
/// scalar kernel against the tiled `f64` kernel; `"f32"` rows time the
/// tiled `f64` kernel against the tiled `f32` kernel on the same shape.
struct Row {
    kernel: &'static str,
    shape: String,
    dtype: &'static str,
    tier: gcon_runtime::KernelTier,
    ns_before: f64,
    ns_after: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.ns_before / self.ns_after.max(1.0)
    }
}

// ---- pre-PR reference kernels (the seed/PR-1 scalar loops) ----

/// The pre-PR `matmul_block`: scalar i-k-j with a zero-skip branch,
/// re-reading and re-writing the output row on every `k` step.
fn ref_matmul_into(a: &Mat, b: &Mat, c: &mut Mat) {
    let (m, k) = a.shape();
    let n = b.cols();
    c.reset_to_zeros(m, n);
    gcon_runtime::parallel_rows(c.as_mut_slice(), m, n, m * k * n, |block, start, end| {
        for i in start..end {
            let arow = a.row(i);
            let crow = &mut block[(i - start) * n..(i - start + 1) * n];
            for (kk, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                for (cv, &bv) in crow.iter_mut().zip(b.row(kk)) {
                    *cv += aik * bv;
                }
            }
        }
    });
}

/// The pre-PR `t_matmul_into`: completely serial sample-major scatter.
fn ref_t_matmul_into(a: &Mat, b: &Mat, c: &mut Mat) {
    let (n_samples, d_in) = a.shape();
    let d_out = b.cols();
    c.reset_to_zeros(d_in, d_out);
    let cs = c.as_mut_slice();
    for i in 0..n_samples {
        let brow = b.row(i);
        for (k, &av) in a.row(i).iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let crow = &mut cs[k * d_out..(k + 1) * d_out];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// The pre-PR `matmul_bt_into`: one naive sequential dot per output.
fn ref_matmul_bt_into(a: &Mat, b: &Mat, c: &mut Mat) {
    let m = a.rows();
    let n = b.rows();
    let k = a.cols();
    c.reset_to_zeros(m, n);
    gcon_runtime::parallel_rows(c.as_mut_slice(), m, n, m * k * n, |block, start, _end| {
        for (local, crow) in block.chunks_mut(n.max(1)).enumerate() {
            let arow = a.row(start + local);
            for (j, cv) in crow.iter_mut().enumerate() {
                *cv = arow.iter().zip(b.row(j)).map(|(x, y)| x * y).sum();
            }
        }
    });
}

/// The pre-PR `spmm_block`: one scaled pass over the dense row per nonzero.
fn ref_spmm_into(sp: &Csr, b: &Mat, out: &mut Mat) {
    let d = b.cols();
    out.reset_to_zeros(sp.rows(), d);
    let work = sp.nnz() * d;
    gcon_runtime::parallel_rows(out.as_mut_slice(), sp.rows(), d, work, |block, start, end| {
        for i in start..end {
            let (cols, vals) = sp.row(i);
            let orow = &mut block[(i - start) * d..(i - start + 1) * d];
            for (&j, &v) in cols.iter().zip(vals) {
                for (o, &bv) in orow.iter_mut().zip(b.row(j as usize)) {
                    *o += v * bv;
                }
            }
        }
    });
}

fn random_graph_csr(n: usize, edges: usize, rng: &mut StdRng) -> Csr {
    let g = gcon_graph::generators::erdos_renyi_gnm(n, edges, rng);
    row_stochastic_default(&g)
}

/// Times `f` once per available tier (pinned via the entry-tier-restoring
/// `gcon_runtime::for_each_available_tier`), appending one row per tier.
///
/// The tier-independent reference kernel `ref_f` is re-timed immediately
/// before each tier measurement rather than once up front: the shared dev
/// box drifts between throughput phases on a minutes timescale, and pairing
/// the two timings back-to-back keeps each row's before/after ratio
/// comparable even when the absolute numbers wander between rows.
fn sweep_tiers(
    rows: &mut Vec<Row>,
    kernel: &'static str,
    shape: &str,
    dtype: &'static str,
    reps: usize,
    mut ref_f: impl FnMut(),
    mut f: impl FnMut(),
) {
    gcon_runtime::for_each_available_tier(|tier| {
        let ns_before = time_ns(reps, &mut ref_f);
        let ns_after = time_ns(reps, &mut f);
        rows.push(Row { kernel, shape: shape.to_string(), dtype, tier, ns_before, ns_after });
    });
}

fn main() {
    // Quick mode only for a truthy setting: `GCON_BENCH_QUICK=0` (or empty)
    // must run the full sweep, since that regenerates the committed file.
    let quick =
        std::env::var("GCON_BENCH_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    let threads = gcon_runtime::configured_width();
    let tiers = gcon_runtime::available_tiers();
    // Full-sweep medians feed the committed trajectory file; 9 reps keeps
    // the median stable against single-core frequency jitter (±15% was
    // observed between 5-rep runs on µs-scale kernels).
    let reps = if quick { 3 } else { 9 };
    let mut rng = StdRng::seed_from_u64(0);
    let mut rows: Vec<Row> = Vec::new();

    // GEMM sweep: square shapes around the paper's layer sizes plus the
    // 512³ headline shape (whose K = 2·KC exercises the cache-block loop),
    // and one rectangular epoch-like shape.
    let gemm_shapes: &[(usize, usize, usize)] = if quick {
        &[(64, 64, 64), (192, 192, 192), (300, 129, 61)]
    } else {
        &[(64, 64, 64), (256, 256, 256), (512, 512, 512), (300, 129, 61)]
    };
    for &(m, k, n) in gemm_shapes {
        let a = Mat::uniform(m, k, 1.0, &mut rng);
        let b = Mat::uniform(k, n, 1.0, &mut rng);
        let mut out = Mat::default();
        let mut out_ref = Mat::default();
        let shape = format!("{m}x{k}x{n}");
        sweep_tiers(
            &mut rows,
            "matmul",
            &shape,
            "f64",
            reps,
            || ref_matmul_into(black_box(&a), black_box(&b), &mut out_ref),
            || ops::matmul_into(black_box(&a), black_box(&b), &mut out),
        );
        // f32 column: quantize the operands once, then pair the f64 tiled
        // kernel against the f32 tiled kernel on the identical shape.
        let a32 = a.convert::<f32>();
        let b32 = b.convert::<f32>();
        let mut out32: Mat<f32> = Mat::default();
        sweep_tiers(
            &mut rows,
            "matmul",
            &shape,
            "f32",
            reps,
            || ops::matmul_into(black_box(&a), black_box(&b), &mut out),
            || ops::matmul_into(black_box(&a32), black_box(&b32), &mut out32),
        );
    }

    // Aᵀ·B (weight gradients): tall-skinny sample-major shapes. `zeros` is
    // the fraction of `A` entries ReLU-masked to 0 — the old scalar kernel
    // had an `if av == 0.0 { continue }` zero-skip whose cost scaled with
    // nnz(A), so the dense-A speedup alone would overstate the win on the
    // post-ReLU activation matrices this kernel actually multiplies. The
    // 90/99% points sit beyond TM_SKIP_ZERO_FRAC, where the adaptive kernel
    // must route to its own skip loop and no longer lose to the old one.
    let tm_shapes: &[(usize, usize, usize, f64)] = if quick {
        &[(1000, 64, 32, 0.0), (1000, 64, 32, 0.9)]
    } else {
        &[
            (2000, 128, 64, 0.0),
            (5000, 256, 16, 0.0),
            (811, 67, 29, 0.0),
            (2000, 128, 64, 0.5),
            (2000, 128, 64, 0.9),
            (2000, 128, 64, 0.99),
        ]
    };
    for &(s, d_in, d_out, zeros) in tm_shapes {
        let mut a: Mat = Mat::uniform(s, d_in, 1.0, &mut rng);
        if zeros > 0.0 {
            // ReLU-like mask: zero out a deterministic pseudo-random subset.
            a.map_inplace(|v| if (v * 1e4).rem_euclid(1.0) < zeros { 0.0 } else { v });
        }
        let b = Mat::uniform(s, d_out, 1.0, &mut rng);
        let mut out = Mat::default();
        let mut out_ref = Mat::default();
        let shape = format!("{s}x{d_in}->{d_in}x{d_out}_z{:.0}%", zeros * 100.0);
        sweep_tiers(
            &mut rows,
            "t_matmul",
            &shape,
            "f64",
            reps,
            || ref_t_matmul_into(black_box(&a), black_box(&b), &mut out_ref),
            || ops::t_matmul_into(black_box(&a), black_box(&b), &mut out),
        );
        // f32 column at the dense and 90%-sparse points only: the dtype win
        // is about lanes and bandwidth, which the zero-skip sweep already
        // characterizes in f64.
        if zeros == 0.0 || zeros == 0.9 {
            let a32 = a.convert::<f32>();
            let b32 = b.convert::<f32>();
            let mut out32: Mat<f32> = Mat::default();
            sweep_tiers(
                &mut rows,
                "t_matmul",
                &shape,
                "f32",
                reps,
                || ops::t_matmul_into(black_box(&a), black_box(&b), &mut out),
                || ops::t_matmul_into(black_box(&a32), black_box(&b32), &mut out32),
            );
        }
    }

    // A·Bᵀ (pairwise row dots, the logits path).
    let bt_shapes: &[(usize, usize, usize)] =
        if quick { &[(128, 128, 64)] } else { &[(512, 512, 256), (300, 301, 129)] };
    for &(m, n, k) in bt_shapes {
        let a = Mat::uniform(m, k, 1.0, &mut rng);
        let b = Mat::uniform(n, k, 1.0, &mut rng);
        let mut out = Mat::default();
        let mut out_ref = Mat::default();
        let shape = format!("{m}x{k}·t{n}");
        sweep_tiers(
            &mut rows,
            "matmul_bt",
            &shape,
            "f64",
            reps,
            || ref_matmul_bt_into(black_box(&a), black_box(&b), &mut out_ref),
            || ops::matmul_bt_into(black_box(&a), black_box(&b), &mut out),
        );
        let a32 = a.convert::<f32>();
        let b32 = b.convert::<f32>();
        let mut out32: Mat<f32> = Mat::default();
        sweep_tiers(
            &mut rows,
            "matmul_bt",
            &shape,
            "f32",
            reps,
            || ops::matmul_bt_into(black_box(&a), black_box(&b), &mut out),
            || ops::matmul_bt_into(black_box(&a32), black_box(&b32), &mut out32),
        );
    }

    // Sparse×dense at the paper's propagation widths d ∈ {16, 64, 256}.
    let (sp_n, sp_m) = if quick { (1000, 5000) } else { (2000, 10_000) };
    let a_tilde = random_graph_csr(sp_n, sp_m, &mut rng);
    let spmm_widths: &[usize] = if quick { &[16, 64] } else { &[16, 64, 256] };
    for &d in spmm_widths {
        let x = Mat::uniform(sp_n, d, 1.0, &mut rng);
        let mut out = Mat::default();
        let mut out_ref = Mat::default();
        let shape = format!("n{sp_n}_nnz{}_d{d}", a_tilde.nnz());
        sweep_tiers(
            &mut rows,
            "spmm",
            &shape,
            "f64",
            reps,
            || ref_spmm_into(black_box(&a_tilde), black_box(&x), &mut out_ref),
            || a_tilde.spmm_into(black_box(&x), &mut out),
        );
        let sp32 = a_tilde.convert::<f32>();
        let x32 = x.convert::<f32>();
        let mut out32: Mat<f32> = Mat::default();
        sweep_tiers(
            &mut rows,
            "spmm",
            &shape,
            "f32",
            reps,
            || a_tilde.spmm_into(black_box(&x), &mut out),
            || sp32.spmm_into(black_box(&x32), &mut out32),
        );
    }

    // Report.
    let tier_names: Vec<&str> = tiers.iter().map(|t| t.name()).collect();
    println!(
        "linalg kernel sweep (GCON_THREADS={threads}, quick={quick}, tiers={})",
        tier_names.join("/")
    );
    for r in &rows {
        println!(
            "{}/{} [{}] @ {}: before {:.0} ns, after {:.0} ns, speedup {:.2}x",
            r.kernel,
            r.shape,
            r.dtype,
            r.tier,
            r.ns_before,
            r.ns_after,
            r.speedup()
        );
    }

    // Machine-readable trajectory file.
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"linalg\",\n");
    json.push_str(&format!("  \"host\": {},\n", gcon_bench::host_stamp_json()));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"tiers\": [{}],\n",
        tier_names.iter().map(|t| format!("\"{t}\"")).collect::<Vec<_>>().join(", ")
    ));
    json.push_str("  \"unit\": \"ns_per_call_median\",\n  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"dtype\": \"{}\", \"tier\": \"{}\", \
             \"ns_before\": {:.0}, \"ns_after\": {:.0}, \"speedup\": {:.3}}}{}\n",
            r.kernel,
            r.shape,
            r.dtype,
            r.tier,
            r.ns_before,
            r.ns_after,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let out_path = std::env::var("GCON_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_linalg.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, &json).expect("failed to write BENCH_linalg.json");
    println!("wrote {out_path}");
}
