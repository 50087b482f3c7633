//! Cross-tier conformance tests for the dispatched compute kernels (PR 3 +
//! PR 4): every kernel must agree with a naive reference implementation to
//! 1e-9 **relative** tolerance over awkward shapes — tile-tail M/N/K,
//! 0/1-sized dimensions, inner dimensions straddling the `KC` cache-block
//! boundary, and feature widths that are not multiples of the unroll widths
//! — **at every dispatch tier this host supports** (pinned per-iteration via
//! `gcon_runtime::set_kernel_tier`, the in-process face of
//! `GCON_KERNEL_TIER`). Tiers the CPU lacks are skipped, never failed.
//!
//! Two distinct guarantees are asserted:
//! - *vs naive*: ≤ 1e-9 relative (tiled kernels reassociate accumulation);
//! - *across tiers*: *bit-identical* — every tier compiles the same source
//!   under strict FP semantics, so the cross-tier drift bound is zero. (The
//!   tier × thread-count subprocess matrix lives in
//!   `runtime_equivalence.rs`.)
//!
//! Both guarantees are **per dtype**: the f32 kernel family (doubled SIMD
//! lanes, its own `NR_F32`/`LANES_F32` tiling) is held to the same
//! structure — ≤ 1e-4 relative vs the f64 naive reference (f32 rounding at
//! every step) and bit-identical across tiers within f32. No bit relation
//! across dtypes is claimed.

use gcon::graph::Csr;
use gcon::linalg::{ops, vecops, Mat};
use gcon_runtime::KernelTier;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `|x - y| ≤ 1e-9 · max(1, |y|)` — the kernel acceptance tolerance.
fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * y.abs().max(1.0)
}

/// f32 acceptance tolerance vs the f64 naive reference: every operand and
/// every partial sum carries ~2⁻²⁴ relative rounding, accumulated over the
/// inner dimensions these tests use (≤ a few hundred), so 1e-4 relative
/// has an order of magnitude of headroom without masking real bugs.
fn close32(x: f32, y: f64) -> bool {
    (x as f64 - y).abs() <= 1e-4 * y.abs().max(1.0)
}

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

/// Runs `kernel` once per available tier (via the entry-tier-restoring
/// `gcon_runtime::for_each_available_tier`); asserts each run is `close` to
/// `reference` element-wise and that all tiers agree **bit-for-bit** with
/// the first.
fn assert_tiers_conform(reference: &Mat, label: &str, mut kernel: impl FnMut() -> Mat) {
    let mut first: Option<(KernelTier, Mat)> = None;
    gcon_runtime::for_each_available_tier(|tier| {
        let fast = kernel();
        prop_assert_eq!(fast.shape(), reference.shape(), "{} @ {}: shape", label, tier);
        for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
            prop_assert!(close(*x, *y), "{} @ {}: {} vs naive {}", label, tier, x, y);
        }
        match &first {
            None => first = Some((tier, fast)),
            Some((t0, f0)) => {
                for (x, y) in fast.as_slice().iter().zip(f0.as_slice()) {
                    prop_assert!(
                        x.to_bits() == y.to_bits(),
                        "{}: tier {} and {} disagree bitwise: {} vs {}",
                        label,
                        tier,
                        t0,
                        x,
                        y
                    );
                }
            }
        }
    });
}

/// The f32 twin of [`assert_tiers_conform`]: each tier's f32 result must be
/// `close32` to the f64 naive reference and bit-identical to the other
/// tiers' f32 results.
fn assert_tiers_conform_f32(reference: &Mat, label: &str, mut kernel: impl FnMut() -> Mat<f32>) {
    let mut first: Option<(KernelTier, Mat<f32>)> = None;
    gcon_runtime::for_each_available_tier(|tier| {
        let fast = kernel();
        prop_assert_eq!(fast.shape(), reference.shape(), "{} @ {}: shape", label, tier);
        for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
            prop_assert!(close32(*x, *y), "{} @ {}: {} vs naive {}", label, tier, x, y);
        }
        match &first {
            None => first = Some((tier, fast)),
            Some((t0, f0)) => {
                for (x, y) in fast.as_slice().iter().zip(f0.as_slice()) {
                    prop_assert!(
                        x.to_bits() == y.to_bits(),
                        "{}: tier {} and {} disagree bitwise (f32): {} vs {}",
                        label,
                        tier,
                        t0,
                        x,
                        y
                    );
                }
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `matmul` — register-tiled with packed, K-cache-blocked B panels —
    /// vs the naive triple loop at every tier. Shape ranges straddle the
    /// MR=4 / NR=8 tile boundaries and include empty and unit dimensions.
    #[test]
    fn matmul_matches_naive_reference_at_every_tier(
        seed in 0u64..10_000,
        m in 0usize..40,
        k in 0usize..50,
        n in 0usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::uniform(m, k, 1.0, &mut rng);
        let b = Mat::uniform(k, n, 1.0, &mut rng);
        let slow = naive_matmul(&a, &b);
        assert_tiers_conform(&slow, "matmul", || ops::matmul(&a, &b));
    }

    /// `t_matmul` — pooled, sample-blocked, sparsity-adaptive — vs naive on
    /// the transpose, with sample counts crossing the TM_IB=128 block
    /// boundary and a ReLU-style zero mask so the adaptive path flips
    /// between the dense tile and the skip loop across cases.
    #[test]
    fn t_matmul_matches_naive_reference_at_every_tier(
        seed in 0u64..10_000,
        n_samples in 0usize..300,
        d_in in 0usize..24,
        d_out in 0usize..20,
        zero_frac in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a: Mat = Mat::uniform(n_samples, d_in, 1.0, &mut rng);
        a.map_inplace(|v| if (v * 1e4).rem_euclid(1.0) < zero_frac { 0.0 } else { v });
        let b = Mat::uniform(n_samples, d_out, 1.0, &mut rng);
        let slow = naive_matmul(&a.transpose(), &b);
        assert_tiers_conform(&slow, "t_matmul", || ops::t_matmul(&a, &b));
    }

    /// `matmul_bt` — 4-batched row dots — vs naive on the transpose.
    #[test]
    fn matmul_bt_matches_naive_reference_at_every_tier(
        seed in 0u64..10_000,
        m in 0usize..32,
        n in 0usize..32,
        k in 0usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Mat::uniform(m, k, 1.0, &mut rng);
        let b = Mat::uniform(n, k, 1.0, &mut rng);
        let slow = naive_matmul(&a, &b.transpose());
        assert_tiers_conform(&slow, "matmul_bt", || ops::matmul_bt(&a, &b));
    }

    /// `spmm` — 4-nonzeros-per-pass — vs dense naive matmul, including
    /// rows whose nonzero count is not a multiple of the unroll group.
    #[test]
    fn spmm_matches_naive_reference_at_every_tier(
        seed in 0u64..10_000,
        n in 1usize..50,
        k in 1usize..50,
        d in 0usize..30,
        density in 0.02f64..0.6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sp = random_csr(n, k, density, &mut rng);
        let b = Mat::uniform(k, d, 1.0, &mut rng);
        let slow = naive_matmul(&sp.to_dense(), &b);
        assert_tiers_conform(&slow, "spmm", || sp.spmm(&b));
    }

    /// The lane-accumulator vector kernels vs naive sequential reductions,
    /// over lengths straddling the 8-wide lane structure, at every tier —
    /// and bit-identical across tiers.
    #[test]
    fn vecops_match_naive_reference_at_every_tier(
        seed in 0u64..10_000,
        n in 0usize..120,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let alpha = rng.gen_range(-2.0..2.0);
        let dot_naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let n2: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
        let d2: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        let mut first: Option<[u64; 3]> = None;
        gcon_runtime::for_each_available_tier(|tier| {
            let (dt, nt, st) = (vecops::dot(&a, &b), vecops::norm2(&a), vecops::dist2(&a, &b));
            prop_assert!(close(dt, dot_naive), "dot @ {}", tier);
            prop_assert!(close(nt, n2), "norm2 @ {}", tier);
            prop_assert!(close(st, d2), "dist2 @ {}", tier);
            let mut y = b.clone();
            vecops::axpy(alpha, &a, &mut y);
            for ((yi, bi), ai) in y.iter().zip(&b).zip(&a) {
                prop_assert!(close(*yi, bi + alpha * ai), "axpy @ {}", tier);
            }
            let bits = [dt.to_bits(), nt.to_bits(), st.to_bits()];
            match first {
                None => first = Some(bits),
                Some(f) => prop_assert!(bits == f, "vecops disagree bitwise at tier {}", tier),
            }
        });
    }

    /// The f32 GEMM family (matmul / t_matmul / matmul_bt) over its own
    /// tile geometry (`NR_F32` = 16-wide panels) vs the f64 naive reference
    /// at every tier — and bit-identical across tiers within f32. Inputs
    /// are quantized f64 matrices, so the reference is computed on the
    /// exact values the f32 kernels see.
    #[test]
    fn f32_gemm_family_matches_naive_reference_at_every_tier(
        seed in 0u64..10_000,
        m in 0usize..40,
        k in 0usize..50,
        n in 0usize..40,
        zero_frac in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a: Mat = Mat::uniform(m, k, 1.0, &mut rng);
        a.map_inplace(|v| if (v * 1e4).rem_euclid(1.0) < zero_frac { 0.0 } else { v });
        let b: Mat = Mat::uniform(k, n, 1.0, &mut rng);
        // Quantize, then widen back: the f64 reference sees exactly the
        // f32 operand values, isolating kernel accumulation error.
        let a32 = a.convert::<f32>();
        let b32 = b.convert::<f32>();
        let aq = a32.convert::<f64>();
        let bq = b32.convert::<f64>();

        let slow = naive_matmul(&aq, &bq);
        assert_tiers_conform_f32(&slow, "matmul f32", || ops::matmul(&a32, &b32));

        // Aᵀ·C with samples = m (the zero-masked A exercises the adaptive
        // skip path in f32 too): m×k ᵀ · m×n → k×n.
        let c: Mat = Mat::uniform(m, n, 1.0, &mut rng);
        let c32 = c.convert::<f32>();
        let slow_t = naive_matmul(&aq.transpose(), &c32.convert::<f64>());
        assert_tiers_conform_f32(&slow_t, "t_matmul f32", || ops::t_matmul(&a32, &c32));

        // A·Bᵀ: m×k · (n×k)ᵀ → m×n, dot length k crossing the widened
        // 8-batched f32 dot4 lanes.
        let bt: Mat = Mat::uniform(n, k, 1.0, &mut rng);
        let bt32 = bt.convert::<f32>();
        let slow_bt = naive_matmul(&aq, &bt32.convert::<f64>().transpose());
        assert_tiers_conform_f32(&slow_bt, "matmul_bt f32", || ops::matmul_bt(&a32, &bt32));
    }

    /// The f32 sparse kernel (spmm) vs the f64 dense reference on the
    /// quantized values, at every tier, bit-identical across tiers within
    /// f32.
    #[test]
    fn f32_sparse_kernels_match_naive_reference_at_every_tier(
        seed in 0u64..10_000,
        n in 1usize..50,
        k in 1usize..50,
        d in 0usize..30,
        density in 0.02f64..0.6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sp = random_csr(n, k, density, &mut rng);
        let sp32: Csr<f32> = sp.convert();
        let dense_q = sp32.convert::<f64>().to_dense();
        let b: Mat = Mat::uniform(k, d, 1.0, &mut rng);
        let b32 = b.convert::<f32>();
        let slow = naive_matmul(&dense_q, &b32.convert::<f64>());
        assert_tiers_conform_f32(&slow, "spmm f32", || sp32.spmm(&b32));
    }

    /// The f32 lane-accumulator vector kernels (16-wide `LANES_F32`
    /// structure) vs naive f64 references on quantized inputs, at every
    /// tier, bit-identical across tiers within f32.
    #[test]
    fn f32_vecops_match_naive_reference_at_every_tier(
        seed in 0u64..10_000,
        n in 0usize..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let alpha: f32 = rng.gen_range(-2.0f32..2.0);
        let dot_naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        let n2: f64 = a.iter().map(|&v| (v as f64) * v as f64).sum::<f64>().sqrt();
        let d2: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x as f64 - y as f64) * (x as f64 - y as f64))
            .sum::<f64>()
            .sqrt();
        let mut first: Option<[u32; 3]> = None;
        gcon_runtime::for_each_available_tier(|tier| {
            let (dt, nt, st) = (vecops::dot(&a, &b), vecops::norm2(&a), vecops::dist2(&a, &b));
            prop_assert!(close32(dt, dot_naive), "dot f32 @ {}", tier);
            prop_assert!(close32(nt, n2), "norm2 f32 @ {}", tier);
            prop_assert!(close32(st, d2), "dist2 f32 @ {}", tier);
            let mut y = b.clone();
            vecops::axpy(alpha, &a, &mut y);
            for ((yi, &bi), &ai) in y.iter().zip(&b).zip(&a) {
                prop_assert!(
                    close32(*yi, bi as f64 + alpha as f64 * ai as f64),
                    "axpy f32 @ {}", tier
                );
            }
            let bits = [dt.to_bits(), nt.to_bits(), st.to_bits()];
            match first {
                None => first = Some(bits),
                Some(f) => prop_assert!(bits == f, "f32 vecops disagree bitwise at tier {}", tier),
            }
        });
    }
}

/// Deterministic ragged-tail sweep the random shape ranges undersample:
/// M % MR ≠ 0, N % NR ≠ 0, and inner dimensions straddling the `KC`
/// cache-block boundary (`K % KC ≠ 0` with one, two, and three partial or
/// full K blocks), for all three GEMM-family kernels at every tier.
#[test]
fn gemm_ragged_tails_and_k_blocking_conform_at_every_tier() {
    use ops::{KC, MR, NR};
    let mut rng = StdRng::seed_from_u64(77);
    let shapes: &[(usize, usize, usize)] = &[
        (MR + 1, KC - 1, NR + 1),
        (MR - 1, KC, NR - 1),
        (2 * MR + 3, KC + 1, 2 * NR + 5),
        (MR + 2, KC + 37, NR + 7),
        (3, 2 * KC + 5, 2 * NR + 1),
        (MR, 3 * KC - 1, NR),
    ];
    for &(m, k, n) in shapes {
        let a = Mat::uniform(m, k, 1.0, &mut rng);
        let b = Mat::uniform(k, n, 1.0, &mut rng);
        let slow = naive_matmul(&a, &b);
        assert_tiers_conform(&slow, &format!("matmul {m}x{k}x{n}"), || ops::matmul(&a, &b));

        // Aᵀ·B with the same inner-dimension stress: samples = k crosses
        // several TM_IB blocks, d_in/d_out are tile tails.
        let at = Mat::uniform(k, m, 1.0, &mut rng);
        let bt = Mat::uniform(k, n, 1.0, &mut rng);
        let slow_t = naive_matmul(&at.transpose(), &bt);
        assert_tiers_conform(&slow_t, &format!("t_matmul {k}x{m}->{m}x{n}"), || {
            ops::t_matmul(&at, &bt)
        });

        // A·Bᵀ with K = k (dot length crossing the 4-wide batches).
        let bbt = Mat::uniform(n, k, 1.0, &mut rng);
        let slow_bt = naive_matmul(&a, &bbt.transpose());
        assert_tiers_conform(&slow_bt, &format!("matmul_bt {m}x{k}·t{n}"), || {
            ops::matmul_bt(&a, &bbt)
        });
    }
}

/// **Sparsity-crossover regression test.** The adaptive `t_matmul` must
/// take the dense tile at low sparsity and the skip loop at high sparsity —
/// asserted by *bit-identical* agreement with the corresponding pinned
/// path (`TmPath::Tiled` / `TmPath::Skip`), so a mis-calibrated threshold
/// cannot silently route a block down the wrong loop. Both pinned paths are
/// also checked against the naive reference at every tier.
#[test]
fn t_matmul_sparsity_crossover_picks_the_documented_path() {
    use ops::TmPath;
    let n_samples = 3 * ops::TM_IB + 17; // several blocks + a partial one
    let (d_in, d_out) = (33, 21);
    for &zero_frac in &[0.0, 0.5, 0.9, 0.99] {
        let mut rng = StdRng::seed_from_u64(1234 + (zero_frac * 100.0) as u64);
        let mut a: Mat = Mat::uniform(n_samples, d_in, 1.0, &mut rng);
        a.map_inplace(|v| if (v * 1e4).rem_euclid(1.0) < zero_frac { 0.0 } else { v });
        let b = Mat::uniform(n_samples, d_out, 1.0, &mut rng);
        let slow = naive_matmul(&a.transpose(), &b);

        // Which loop must Auto match? Below the threshold: the dense tile;
        // above it: the skip loop. (0.5 < TM_SKIP_ZERO_FRAC < 0.9 — the
        // sweep brackets the threshold from both sides.)
        let expected_path =
            if zero_frac > ops::TM_SKIP_ZERO_FRAC { TmPath::Skip } else { TmPath::Tiled };

        gcon_runtime::for_each_available_tier(|tier| {
            let mut auto = Mat::default();
            ops::t_matmul_into_with(&a, &b, &mut auto, TmPath::Auto);
            let mut pinned = Mat::default();
            ops::t_matmul_into_with(&a, &b, &mut pinned, expected_path);
            for (x, y) in auto.as_slice().iter().zip(pinned.as_slice()) {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "zeros={zero_frac} @ {tier}: Auto disagrees with {expected_path:?} \
                     ({x} vs {y}) — wrong branch taken"
                );
            }
            // And both pinned paths stay correct vs naive.
            for path in [TmPath::Tiled, TmPath::Skip] {
                let mut out = Mat::default();
                ops::t_matmul_into_with(&a, &b, &mut out, path);
                for (x, y) in out.as_slice().iter().zip(slow.as_slice()) {
                    assert!(close(*x, *y), "zeros={zero_frac} {path:?} @ {tier}: {x} vs naive {y}");
                }
            }
        });
    }
}

/// Row lengths around the 4-nonzero unroll group (0..=9 nonzeros per row)
/// at feature widths on and off the lane multiples: `spmm` matches the
/// naive reference at every tier, and the tiers agree bitwise.
#[test]
fn spmm_unroll_tails_conform_at_every_tier() {
    let n = 10usize;
    let entries: Vec<Vec<(u32, f64)>> = (0..n)
        .map(|i| (0..i as u32).map(|j| (j, (i as f64 + 1.0) * 0.1 - 0.37 * j as f64)).collect())
        .collect();
    let sp = Csr::from_row_entries(n, n, entries);
    let mut rng = StdRng::seed_from_u64(17);
    for d in [1usize, 3, 8, 17] {
        let b = Mat::uniform(n, d, 1.0, &mut rng);
        let slow = naive_matmul(&sp.to_dense(), &b);
        let mut first: Option<(KernelTier, Mat)> = None;
        gcon_runtime::for_each_available_tier(|tier| {
            let fast = sp.spmm(&b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!(close(*x, *y), "d={d} @ {tier}: {x} vs naive {y}");
            }
            match &first {
                None => first = Some((tier, fast)),
                Some((t0, f0)) => {
                    for (x, y) in fast.as_slice().iter().zip(f0.as_slice()) {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "d={d}: tier {tier} and {t0} disagree bitwise: {x} vs {y}"
                        );
                    }
                }
            }
        });
    }
}

/// The length contract of the vector kernels holds in release builds — and
/// at every dispatch tier: a mismatch panics instead of silently truncating
/// via `zip`.
#[test]
fn vector_kernel_length_contract_is_release_checked_at_every_tier() {
    gcon_runtime::for_each_available_tier(|tier| {
        let r = std::panic::catch_unwind(|| vecops::dot(&[1.0, 2.0, 3.0], &[1.0]));
        assert!(r.is_err(), "dot must panic on length mismatch @ {tier}");
        let r = std::panic::catch_unwind(|| {
            let mut y = vec![0.0; 2];
            vecops::axpy(1.0, &[1.0, 2.0, 3.0], &mut y);
        });
        assert!(r.is_err(), "axpy must panic on length mismatch @ {tier}");
        let r = std::panic::catch_unwind(|| vecops::dist2(&[1.0], &[1.0, 2.0]));
        assert!(r.is_err(), "dist2 must panic on length mismatch @ {tier}");
    });
}
