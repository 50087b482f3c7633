//! Property tests for the substrate crates: linear algebra identities, CSR
//! structure, NN gradient checks over randomized architectures, DP sampler
//! distributions. These complement the per-module unit tests with
//! randomized coverage.

#![allow(clippy::needless_range_loop)] // index-parallel loops mirror the math
use gcon::graph::Csr;
use gcon::linalg::{ops, reduce, vecops, Mat};
use gcon::nn::{Activation, Mlp, MlpConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (AB)ᵀ = BᵀAᵀ through our three multiplication kernels.
    #[test]
    fn matmul_transpose_identity(seed in 0u64..500, m in 1usize..12, k in 1usize..12, n in 1usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Mat = Mat::uniform(m, k, 1.0, &mut rng);
        let b: Mat = Mat::uniform(k, n, 1.0, &mut rng);
        let ab_t = ops::matmul(&a, &b).transpose();
        let bt_at = ops::matmul(&b.transpose(), &a.transpose());
        for (x, y) in ab_t.as_slice().iter().zip(bt_at.as_slice()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    /// Frobenius inner product is symmetric and reduces to the squared norm.
    #[test]
    fn frobenius_inner_symmetry(seed in 0u64..500, m in 1usize..10, n in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Mat = Mat::uniform(m, n, 2.0, &mut rng);
        let b: Mat = Mat::uniform(m, n, 2.0, &mut rng);
        prop_assert!((ops::frobenius_inner(&a, &b) - ops::frobenius_inner(&b, &a)).abs() < 1e-12);
        prop_assert!((ops::frobenius_inner(&a, &a) - a.frobenius_norm_sq()).abs() < 1e-10);
    }

    /// Row normalization produces unit (or zero) rows and is idempotent.
    #[test]
    fn row_normalization_idempotent(seed in 0u64..500, m in 1usize..15, n in 1usize..15) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Mat::uniform(m, n, 3.0, &mut rng);
        a.normalize_rows_l2();
        for norm in reduce::row_norms2(&a) {
            prop_assert!(norm < 1e-12 || (norm - 1.0).abs() < 1e-12);
        }
        let before = a.clone();
        a.normalize_rows_l2();
        for (x, y) in a.as_slice().iter().zip(before.as_slice()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    /// CSR round-trip: to_dense of from_row_entries reproduces the entries,
    /// and a one-column spmm agrees with the dense product.
    #[test]
    fn csr_roundtrip(seed in 0u64..500, n in 1usize..20, density in 0.05f64..0.6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for row in entries.iter_mut() {
            for j in 0..n as u32 {
                if rng.gen::<f64>() < density {
                    row.push((j, rng.gen_range(-2.0..2.0)));
                }
            }
        }
        let sp = Csr::from_row_entries(n, n, entries);
        let dense = sp.to_dense();
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let fast = sp.spmm(&Mat::from_fn(n, 1, |i, _| x[i]));
        for i in 0..n {
            let slow = vecops::dot(dense.row(i), &x);
            prop_assert!((fast.get(i, 0) - slow).abs() < 1e-10);
        }
        prop_assert_eq!(sp.nnz(), dense.as_slice().iter().filter(|&&v| v != 0.0).count());
    }

    /// Full-network gradient check over randomized small architectures.
    #[test]
    fn mlp_gradcheck_random_architectures(
        seed in 0u64..200,
        d_in in 1usize..6,
        hidden in 1usize..8,
        d_out in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(
            &MlpConfig {
                dims: vec![d_in, hidden, d_out],
                hidden_activation: Activation::Tanh,
                output_activation: Activation::Sigmoid,
            },
            &mut rng,
        );
        let x = Mat::uniform(3, d_in, 1.0, &mut rng);
        let c = Mat::uniform(3, d_out, 1.0, &mut rng);
        let loss = |m: &Mlp| ops::frobenius_inner(&m.forward(&x), &c);
        let cache = mlp.forward_cached(&x);
        let (_, grads) = mlp.backward(&cache, c.clone());
        let h = 1e-6;
        // Check one random weight per layer (full sweeps live in unit tests).
        for (l, g) in grads.iter().enumerate() {
            let i = seed as usize % mlp.layers[l].w.rows();
            let j = (seed as usize / 7) % mlp.layers[l].w.cols();
            let mut mp = mlp.clone();
            mp.layers[l].w.add_at(i, j, h);
            let mut mm = mlp.clone();
            mm.layers[l].w.add_at(i, j, -h);
            let fd = (loss(&mp) - loss(&mm)) / (2.0 * h);
            prop_assert!((fd - g.dw.get(i, j)).abs() < 1e-4,
                "layer {} dW[{}][{}]: fd {} vs {}", l, i, j, fd, g.dw.get(i, j));
        }
    }

    /// Dataset binary codec round-trips arbitrary generated datasets.
    #[test]
    fn dataset_codec_roundtrip(seed in 0u64..100) {
        let d = gcon::datasets::two_moons_graph(seed);
        let bytes = gcon::datasets::io::encode_dataset(&d);
        let back = gcon::datasets::io::decode_dataset(&bytes).unwrap();
        prop_assert_eq!(back.labels, d.labels);
        prop_assert_eq!(back.graph.edges(), d.graph.edges());
        prop_assert_eq!(&back.features, &d.features);
        prop_assert_eq!(back.split.test, d.split.test);
    }

    /// Laplace mechanism output differs from input but preserves the mean
    /// over many coordinates (unbiasedness).
    #[test]
    fn laplace_mechanism_unbiased(seed in 0u64..100, eps in 0.5f64..5.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 20_000;
        let mut vals = vec![1.0; n];
        gcon::dp::mechanisms::laplace_mechanism(&mut vals, 1.0, eps, &mut rng);
        let mean = vecops::mean(&vals);
        // std of the mean = sqrt(2)/eps/sqrt(n)
        let tol = 6.0 * (2.0f64).sqrt() / (eps * (n as f64).sqrt());
        prop_assert!((mean - 1.0).abs() < tol, "mean {} tol {}", mean, tol);
    }
}
