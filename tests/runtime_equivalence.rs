//! Property tests for the shared runtime layer: the buffer-reusing `_into`
//! kernels and the single-pass multi-scale propagation sweep must be
//! element-wise equal to their allocating / per-scale reference forms, and
//! the sweep must cost `max(m_i)` sparse products rather than `Σ m_i`.

use gcon::core::propagation::{propagate, propagate_into, propagate_multi, PropagationStep};
use gcon::graph::normalize::row_stochastic_default;
use gcon::graph::Csr;
use gcon::linalg::{ops, Mat};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random CSR with ~`density` fill, entries in (−1, 1).
fn random_csr(rows: usize, cols: usize, density: f64, rng: &mut StdRng) -> Csr {
    let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
    for row in entries.iter_mut() {
        for j in 0..cols as u32 {
            if rng.gen::<f64>() < density {
                row.push((j, rng.gen_range(-1.0..1.0)));
            }
        }
    }
    Csr::from_row_entries(rows, cols, entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `spmm_into` must equal the allocating `spmm` bit-for-bit on random
    /// sparse×dense products, including when the output buffer arrives
    /// pre-filled with stale values of a different shape.
    #[test]
    fn spmm_into_matches_allocating(
        seed in 0u64..1000,
        n in 1usize..60,
        k in 1usize..40,
        d in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sp = random_csr(n, k, 0.2, &mut rng);
        let b = Mat::uniform(k, d, 1.0, &mut rng);
        let fresh = sp.spmm(&b);
        // Stale buffer of a different shape, full of garbage.
        let mut reused = Mat::full(3, 7, f64::NAN);
        sp.spmm_into(&b, &mut reused);
        prop_assert_eq!(reused.shape(), (n, d));
        for (x, y) in fresh.as_slice().iter().zip(reused.as_slice()) {
            prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y}");
        }
    }

    /// `matmul_into` / `matmul_bt_into` / `t_matmul_into` match their
    /// allocating counterparts bit-for-bit on random dense inputs.
    #[test]
    fn matmul_into_matches_allocating(
        seed in 0u64..1000,
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::uniform(m, k, 1.0, &mut rng);
        let b = Mat::uniform(k, n, 1.0, &mut rng);
        let mut out = Mat::full(2, 2, f64::NAN);
        ops::matmul_into(&a, &b, &mut out);
        prop_assert_eq!(&ops::matmul(&a, &b), &out);

        let bt = Mat::uniform(n, k, 1.0, &mut rng);
        ops::matmul_bt_into(&a, &bt, &mut out);
        prop_assert_eq!(&ops::matmul_bt(&a, &bt), &out);

        let at = Mat::uniform(m, n, 1.0, &mut rng);
        ops::t_matmul_into(&a, &at, &mut out);
        prop_assert_eq!(&ops::t_matmul(&a, &at), &out);
    }

    /// `propagate_into` (ping-pong buffers) equals the allocating
    /// `propagate` bit-for-bit, with buffers reused across disparate calls.
    #[test]
    fn propagate_into_matches_allocating(
        seed in 0u64..500,
        n in 2usize..40,
        d in 1usize..8,
        m in 0usize..12,
        alpha in 0.05f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gcon::graph::generators::erdos_renyi_gnm(n, 2 * n, &mut rng);
        let a = row_stochastic_default(&g);
        let x = Mat::uniform(n, d, 1.0, &mut rng);
        let mut z = Mat::full(1, 1, f64::NAN);
        let mut scratch = Mat::full(5, 2, f64::NAN);
        for step in [PropagationStep::Finite(m), PropagationStep::Infinite] {
            let reference = propagate(&a, &x, alpha, step);
            propagate_into(&a, &x, alpha, step, &mut z, &mut scratch);
            for (u, v) in reference.as_slice().iter().zip(z.as_slice()) {
                prop_assert!(u.to_bits() == v.to_bits(), "step {step}: {u} vs {v}");
            }
        }
    }

    /// The single-pass `propagate_multi` sweep is element-wise equal
    /// (≤ 1e-12; finite scales are bit-identical) to per-scale `propagate`
    /// over random finite scale sets, in arbitrary order with duplicates.
    #[test]
    fn propagate_multi_matches_per_scale(
        seed in 0u64..500,
        n in 2usize..40,
        d in 1usize..6,
        m1 in 0usize..10,
        m2 in 0usize..10,
        m3 in 0usize..10,
        alpha in 0.05f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gcon::graph::generators::erdos_renyi_gnm(n, 2 * n, &mut rng);
        let a = row_stochastic_default(&g);
        let x = Mat::uniform(n, d, 1.0, &mut rng);
        let steps = [
            PropagationStep::Finite(m1),
            PropagationStep::Finite(m2),
            PropagationStep::Finite(m3),
        ];
        let multi = propagate_multi(&a, &x, alpha, &steps);
        prop_assert_eq!(multi.shape(), (n, 3 * d));
        for (i, &s) in steps.iter().enumerate() {
            let single = propagate(&a, &x, alpha, s);
            for r in 0..n {
                for c in 0..d {
                    let u = single.get(r, c);
                    let v = multi.get(r, i * d + c);
                    prop_assert!((u - v).abs() <= 1e-12, "scale {s}: {u} vs {v}");
                }
            }
        }
    }

    /// With an `∞` entry the sweep's final segment continues from the
    /// largest finite scale; the resulting block must satisfy the PPR
    /// fixed-point system `(I − (1−α)Ã) Z_∞ = α X` to solver tolerance and
    /// agree with per-scale PPR.
    #[test]
    fn propagate_multi_infinite_segment_is_a_ppr_fixed_point(
        seed in 0u64..200,
        n in 2usize..30,
        d in 1usize..5,
        m in 0usize..6,
        alpha in 0.3f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gcon::graph::generators::erdos_renyi_gnm(n, 2 * n, &mut rng);
        let a = row_stochastic_default(&g);
        let x = Mat::uniform(n, d, 1.0, &mut rng);
        let steps = [PropagationStep::Finite(m), PropagationStep::Infinite];
        let multi = propagate_multi(&a, &x, alpha, &steps);
        // Extract the ∞ block.
        let mut z_inf = Mat::zeros(n, d);
        for r in 0..n {
            for c in 0..d {
                z_inf.set(r, c, multi.get(r, d + c));
            }
        }
        // Fixed-point residual.
        let az = a.spmm(&z_inf);
        for r in 0..n {
            for c in 0..d {
                let lhs = z_inf.get(r, c) - (1.0 - alpha) * az.get(r, c);
                prop_assert!(
                    (lhs - alpha * x.get(r, c)).abs() < 1e-7,
                    "residual at ({r},{c})"
                );
            }
        }
        // And it agrees with the stand-alone PPR solve to tolerance.
        let reference = propagate(&a, &x, alpha, PropagationStep::Infinite);
        for (u, v) in reference.as_slice().iter().zip(z_inf.as_slice()) {
            prop_assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }
}

fn push(bytes: &mut Vec<u8>, m: &Mat) {
    for v in m.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
}

fn push32(bytes: &mut Vec<u8>, m: &Mat<f32>) {
    for v in m.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
}

/// Runs every rewritten kernel on fixed awkward-shaped inputs and returns
/// the concatenated little-endian bytes of all results. Shapes are far from
/// multiples of the MR/NR tile sizes (so tile tails land differently under
/// different partitions). The inputs are frozen, because the SHA-256 of
/// these bytes is the kernel fingerprint changes are checked against; the
/// products among them that fall under `PAR_THRESHOLD` run inline, and
/// [`pooled_fingerprint`] repeats them at sizes the pool splits.
fn kernel_fingerprint() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(424242);
    let mut bytes = Vec::new();

    // Dense GEMM family. The second matmul crosses the KC cache-block
    // boundary so the K-blocked accumulate-into-C path is fingerprinted.
    let a = Mat::uniform(67, 129, 1.0, &mut rng);
    let b = Mat::uniform(129, 61, 1.0, &mut rng);
    push(&mut bytes, &ops::matmul(&a, &b));
    let ak = Mat::uniform(19, ops::KC + 37, 1.0, &mut rng);
    let bk = Mat::uniform(ops::KC + 37, 21, 1.0, &mut rng);
    push(&mut bytes, &ops::matmul(&ak, &bk));
    let xt = Mat::uniform(263, 37, 1.0, &mut rng);
    let grad = Mat::uniform(263, 29, 1.0, &mut rng);
    push(&mut bytes, &ops::t_matmul(&xt, &grad));
    // ~90% ReLU zeros: the adaptive t_matmul routes blocks down the
    // zero-skipping loop, which must be just as partition/tier-stable.
    let mut sparse_acts: Mat = Mat::uniform(263, 37, 1.0, &mut rng);
    sparse_acts.map_inplace(|v| if (v * 1e4).rem_euclid(1.0) < 0.9 { 0.0 } else { v });
    push(&mut bytes, &ops::t_matmul(&sparse_acts, &grad));
    let bt = Mat::uniform(53, 129, 1.0, &mut rng);
    push(&mut bytes, &ops::matmul_bt(&a, &bt));

    // Dispatched vector primitives.
    let va: Vec<f64> = (0..1013).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let vb: Vec<f64> = (0..1013).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut vy = vb.clone();
    gcon::linalg::vecops::axpy(0.37, &va, &mut vy);
    for v in [gcon::linalg::vecops::dot(&va, &vb), gcon::linalg::vecops::norm2(&va)]
        .iter()
        .chain(vy.iter())
    {
        bytes.extend_from_slice(&v.to_le_bytes());
    }

    // Sparse kernels.
    let sp = random_csr(301, 301, 0.05, &mut rng);
    let feats = Mat::uniform(301, 23, 1.0, &mut rng);
    push(&mut bytes, &sp.spmm(&feats));

    // Propagation (drives spmm_into through the ping-pong recursion).
    let g = gcon::graph::generators::erdos_renyi_gnm(260, 1500, &mut rng);
    let at = row_stochastic_default(&g);
    let px = Mat::uniform(260, 19, 1.0, &mut rng);
    push(&mut bytes, &propagate(&at, &px, 0.3, PropagationStep::Finite(4)));

    // The f32 kernel family on the same awkward shapes, fingerprinted in
    // raw f32 bits. Appending this to the same fingerprint extends the
    // subprocess matrix below to the full dtype × tier × thread-count cube:
    // determinism is claimed (and pinned) *within* each dtype.
    let (a32, b32) = (a.convert::<f32>(), b.convert::<f32>());
    push32(&mut bytes, &ops::matmul(&a32, &b32));
    // KC-crossing K: the blocked accumulate-into-C path, f32 flavor.
    push32(&mut bytes, &ops::matmul(&ak.convert::<f32>(), &bk.convert::<f32>()));
    let grad32 = grad.convert::<f32>();
    push32(&mut bytes, &ops::t_matmul(&xt.convert::<f32>(), &grad32));
    push32(&mut bytes, &ops::t_matmul(&sparse_acts.convert::<f32>(), &grad32));
    push32(&mut bytes, &ops::matmul_bt(&a32, &bt.convert::<f32>()));

    let va32: Vec<f32> = va.iter().map(|&v| v as f32).collect();
    let vb32: Vec<f32> = vb.iter().map(|&v| v as f32).collect();
    let mut vy32 = vb32.clone();
    gcon::linalg::vecops::axpy(0.37f32, &va32, &mut vy32);
    for v in [gcon::linalg::vecops::dot(&va32, &vb32), gcon::linalg::vecops::norm2(&va32)]
        .iter()
        .chain(vy32.iter())
    {
        bytes.extend_from_slice(&v.to_le_bytes());
    }

    let sp32: Csr<f32> = sp.convert();
    push32(&mut bytes, &sp32.spmm(&feats.convert::<f32>()));
    bytes
}

/// The products of [`kernel_fingerprint`] that run inline under
/// `PAR_THRESHOLD` (the KC-crossing `matmul`, the sparse product and the
/// propagation), again at sizes above it, so the thread-count matrix also
/// compares them split across the pool.
fn pooled_fingerprint() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(515151);
    let mut bytes = Vec::new();
    let pooled = |work: usize| assert!(work >= gcon_runtime::PAR_THRESHOLD, "{work} runs inline");
    let ak = Mat::uniform(67, ops::KC + 37, 1.0, &mut rng);
    let bk = Mat::uniform(ops::KC + 37, 21, 1.0, &mut rng);
    pooled(ak.rows() * ak.cols() * bk.cols());
    push(&mut bytes, &ops::matmul(&ak, &bk));
    push32(&mut bytes, &ops::matmul(&ak.convert::<f32>(), &bk.convert::<f32>()));
    let sp = random_csr(601, 601, 0.05, &mut rng);
    let feats = Mat::uniform(601, 23, 1.0, &mut rng);
    pooled(sp.nnz() * feats.cols());
    push(&mut bytes, &sp.spmm(&feats));
    push32(&mut bytes, &sp.convert::<f32>().spmm(&feats.convert::<f32>()));
    let g = gcon::graph::generators::erdos_renyi_gnm(2600, 15_000, &mut rng);
    let at = row_stochastic_default(&g);
    let px = Mat::uniform(2600, 19, 1.0, &mut rng);
    pooled(at.nnz() * px.cols());
    push(&mut bytes, &propagate(&at, &px, 0.3, PropagationStep::Finite(4)));
    bytes
}

/// **Determinism policy test.** The tiled kernels reassociate accumulation
/// (so they differ from the old scalar kernels within tolerance), but for a
/// given input the result must be byte-identical over the whole
/// `GCON_KERNEL_TIER × GCON_THREADS` matrix — per dtype: the fingerprint
/// carries an f64 and an f32 section, so one matrix sweep pins the
/// dtype × tier × thread-count cube (no bit relation *across* dtypes is
/// claimed):
///
/// - *across thread counts* — the thread partition decides only *who*
///   computes an output row, never the accumulation order within it;
/// - *across dispatch tiers* — every tier compiles the same source under
///   strict FP semantics (no reassociation, no mul-add contraction), so the
///   documented cross-tier reassociation drift bound is exactly **zero**,
///   and this test asserts that bound by comparing raw bytes across tiers,
///   not just within one.
///
/// Pool width and (env-resolved) tier are latched per process, so the test
/// re-executes itself as a subprocess per matrix cell. Only tiers the host
/// CPU supports are spawned — absent tiers are skipped, not failed.
#[test]
fn kernels_byte_identical_across_thread_counts_and_tiers() {
    if let Ok(path) = std::env::var("GCON_FINGERPRINT_OUT") {
        std::fs::write(&path, kernel_fingerprint()).expect("fingerprint write failed");
        std::fs::write(format!("{path}.pooled"), pooled_fingerprint())
            .expect("fingerprint write failed");
        return;
    }
    let exe = std::env::current_exe().expect("current_exe");
    let mut outputs = Vec::new();
    for &tier in gcon_runtime::available_tiers() {
        for threads in ["1", "2", "4"] {
            let path = std::env::temp_dir()
                .join(format!("gcon-fingerprint-{}-{tier}-t{threads}", std::process::id()));
            // The child's output is captured, not inherited: its libtest
            // lines would otherwise interleave with the parent's on the
            // shared stdout.
            let child = std::process::Command::new(&exe)
                .args([
                    "kernels_byte_identical_across_thread_counts_and_tiers",
                    "--exact",
                    "--test-threads=1",
                ])
                .env("GCON_THREADS", threads)
                .env("GCON_KERNEL_TIER", tier.name())
                .env("GCON_FINGERPRINT_OUT", &path)
                .output()
                .expect("failed to respawn test binary");
            assert!(
                child.status.success(),
                "tier={tier} GCON_THREADS={threads} child failed:\n{}{}",
                String::from_utf8_lossy(&child.stdout),
                String::from_utf8_lossy(&child.stderr)
            );
            let pooled_path = format!("{}.pooled", path.display());
            let mut data = std::fs::read(&path).expect("fingerprint read failed");
            assert!(!data.is_empty(), "tier={tier} GCON_THREADS={threads} produced no fingerprint");
            data.extend(std::fs::read(&pooled_path).expect("pooled fingerprint read failed"));
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(&pooled_path);
            outputs.push((tier, threads, data));
        }
    }
    let (t0, w0, reference) = &outputs[0];
    for (tier, threads, data) in &outputs[1..] {
        assert!(
            data == reference,
            "kernel results differ between ({t0}, GCON_THREADS={w0}) and \
             ({tier}, GCON_THREADS={threads}) — the zero cross-tier drift bound is violated"
        );
    }
}

/// **Graceful tier degradation.** `GCON_KERNEL_TIER` requests are clamped to
/// the host's capabilities with a warning — a child asked for `avx2`
/// resolves to `min(avx2, max_available)` and, when that clamps (on a host
/// without AVX2), says so on stderr. Unrecognized values warn and fall back
/// to detection; `avx512` and `avx512f` are among them, since there is no
/// AVX-512 tier. (The clamp *rule* for every host×request combination is
/// unit-tested in `gcon-runtime`; this exercises the env path end-to-end as
/// far as this host's CPU allows.)
#[test]
fn kernel_tier_env_requests_clamp_to_available() {
    if std::env::var("GCON_TIER_PROBE").is_ok() {
        // Child mode: print the resolved tier for the parent to inspect.
        println!("resolved-tier={}", gcon_runtime::kernel_tier());
        return;
    }
    let exe = std::env::current_exe().expect("current_exe");
    let max = gcon_runtime::max_available_tier();
    let expect_clamp = max < gcon_runtime::KernelTier::Avx2;
    for (request, expected, warn_needle) in [
        // An avx2 request resolves to the best the host has (AVX2 is the
        // top tier); clamping must be reported.
        ("avx2", max, "clamping"),
        // Scalar is available everywhere: honored verbatim, no warning.
        ("scalar", gcon_runtime::KernelTier::Scalar, ""),
        // Names of no tier warn and fall back to detection.
        ("avx512", max, "unrecognized"),
        ("avx512f", max, "unrecognized"),
        ("turbo9000", max, "unrecognized"),
    ] {
        let out = std::process::Command::new(&exe)
            .args([
                "kernel_tier_env_requests_clamp_to_available",
                "--exact",
                "--test-threads=1",
                // The child harness must not swallow the probe line / the
                // runtime's clamp warning.
                "--nocapture",
            ])
            .env("GCON_KERNEL_TIER", request)
            .env("GCON_TIER_PROBE", "1")
            .output()
            .expect("failed to respawn test binary");
        assert!(out.status.success(), "GCON_KERNEL_TIER={request} child failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("resolved-tier={expected}")),
            "GCON_KERNEL_TIER={request}: expected {expected}, stdout: {stdout}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        let should_warn = match warn_needle {
            "clamping" => expect_clamp,
            "unrecognized" => true,
            _ => false,
        };
        if should_warn {
            assert!(
                stderr.contains(warn_needle),
                "GCON_KERNEL_TIER={request}: expected a {warn_needle:?} warning, \
                 stderr: {stderr}"
            );
        } else if warn_needle == "clamping" {
            // Request satisfiable on this host: must stay silent.
            assert!(
                !stderr.contains("clamping"),
                "GCON_KERNEL_TIER={request} warned without need: {stderr}"
            );
        }
    }
}

#[test]
fn degenerate_shapes_are_supported() {
    // rows == 0.
    let empty_csr = Csr::from_row_entries(0, 5, vec![]);
    let b = Mat::zeros(5, 3);
    let mut out = Mat::full(2, 2, f64::NAN);
    empty_csr.spmm_into(&b, &mut out);
    assert_eq!(out.shape(), (0, 3));

    // d == 0 (empty feature dimension).
    let csr = Csr::eye(4);
    let b0 = Mat::zeros(4, 0);
    csr.spmm_into(&b0, &mut out);
    assert_eq!(out.shape(), (4, 0));
    assert_eq!(csr.spmm(&b0).shape(), (4, 0));

    // Dense kernels on empty shapes.
    let a = Mat::zeros(0, 7);
    let c = Mat::zeros(7, 3);
    let mut dense_out = Mat::full(1, 1, 0.5);
    ops::matmul_into(&a, &c, &mut dense_out);
    assert_eq!(dense_out.shape(), (0, 3));
    ops::matmul_into(&Mat::zeros(3, 0), &Mat::zeros(0, 2), &mut dense_out);
    assert_eq!(dense_out.shape(), (3, 2));
    assert!(dense_out.as_slice().iter().all(|&v| v == 0.0));
}
