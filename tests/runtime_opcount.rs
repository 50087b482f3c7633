//! Operation-count assertions for single-pass multi-scale propagation
//! (the acceptance criterion of the runtime refactor) and for the PPR
//! solve, its certificate and the push refresh. These live in their own
//! integration-test binary because they read deltas of the process-wide
//! `Ã·Z` product counter: a `Mutex` serializes the tests against each
//! other, and no other propagation work runs in this process.

use gcon::core::propagation::{
    concat_features, ppr_residual_into, ppr_staleness_bound, propagate, propagate_multi,
    refresh_ppr, spmm_ops_performed, PropagationStep,
};
use gcon::core::refresh::push::push_refresh;
use gcon::graph::normalize::row_stochastic_default;
use gcon::graph::CsrDelta;
use gcon::linalg::Mat;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes counter-reading tests within this binary.
static COUNTER_GUARD: Mutex<()> = Mutex::new(());

/// The acceptance criterion of the refactor: computing scales {m₁ < … < m_s}
/// in one sweep performs exactly max(mᵢ) `Ã·Z` products, not Σ mᵢ.
#[test]
fn single_pass_costs_max_not_sum() {
    let _guard = COUNTER_GUARD.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let g = gcon::graph::generators::erdos_renyi_gnm(50, 150, &mut rng);
    let a = row_stochastic_default(&g);
    let x = Mat::uniform(50, 4, 1.0, &mut rng);
    let steps =
        [PropagationStep::Finite(2), PropagationStep::Finite(5), PropagationStep::Finite(9)];

    let before = spmm_ops_performed();
    let _ = propagate_multi(&a, &x, 0.4, &steps);
    let single_pass = spmm_ops_performed() - before;
    assert_eq!(single_pass, 9, "single-pass must cost max(m_i) products");

    let before = spmm_ops_performed();
    for &s in &steps {
        let _ = propagate(&a, &x, 0.4, s);
    }
    let per_scale = spmm_ops_performed() - before;
    assert_eq!(per_scale, 16, "per-scale costs Σ m_i products");

    // concat_features rides the single-pass sweep.
    let before = spmm_ops_performed();
    let _ = concat_features(&a, &x, 0.4, &steps);
    assert_eq!(spmm_ops_performed() - before, 9);
}

/// With an `∞` scale the sweep costs max-finite + fixed-point iterations —
/// strictly fewer products than running PPR from scratch plus the finite
/// scales separately.
#[test]
fn single_pass_with_infinity_is_a_strict_continuation() {
    let _guard = COUNTER_GUARD.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(78);
    let g = gcon::graph::generators::erdos_renyi_gnm(40, 120, &mut rng);
    let a = row_stochastic_default(&g);
    let x = Mat::uniform(40, 3, 1.0, &mut rng);
    let steps = [PropagationStep::Finite(6), PropagationStep::Infinite];

    let before = spmm_ops_performed();
    let _ = propagate_multi(&a, &x, 0.5, &steps);
    let single_pass = spmm_ops_performed() - before;

    let before = spmm_ops_performed();
    for &s in &steps {
        let _ = propagate(&a, &x, 0.5, s);
    }
    let per_scale = spmm_ops_performed() - before;
    assert!(
        single_pass < per_scale,
        "continuation ({single_pass} products) must beat per-scale ({per_scale})"
    );
}

/// A cold PPR solve costs exactly one `Ã·Z` product per power sweep; the
/// refresh's certificate costs one more.
#[test]
fn cold_ppr_solve_costs_one_product_per_sweep() {
    let _guard = COUNTER_GUARD.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(79);
    let g = gcon::graph::generators::erdos_renyi_gnm(60, 180, &mut rng);
    let a = row_stochastic_default(&g);
    let x = Mat::uniform(60, 3, 1.0, &mut rng);

    // Warm-started from the features, the refresh is the cold solve.
    let before = spmm_ops_performed();
    let refresh = refresh_ppr(&a, &x, 0.3, &x);
    assert_eq!(spmm_ops_performed() - before, refresh.iterations + 1);

    let before = spmm_ops_performed();
    let _ = propagate(&a, &x, 0.3, PropagationStep::Infinite);
    assert_eq!(spmm_ops_performed() - before, refresh.iterations);
}

/// Each certificate costs one product, and a push refresh after a local
/// edit costs none: it repairs rows with scalar loops and certifies by a
/// dense scan of the maintained residual.
#[test]
fn push_refresh_performs_no_sparse_product() {
    let _guard = COUNTER_GUARD.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(80);
    let mut g = gcon::graph::generators::erdos_renyi_gnm(80, 240, &mut rng);
    let a = row_stochastic_default(&g);
    let mut x = Mat::uniform(80, 3, 1.0, &mut rng);
    x.normalize_rows_l2();
    let alpha = 0.2;
    let mut z = propagate(&a, &x, alpha, PropagationStep::Infinite);

    let before = spmm_ops_performed();
    let bound = ppr_staleness_bound(&a, &x, alpha, &z);
    let mut r = Mat::zeros(0, 0);
    let same = ppr_residual_into(&a, &x, alpha, &z, &mut r);
    assert_eq!(spmm_ops_performed() - before, 2);
    assert_eq!(bound.to_bits(), same.to_bits());

    let (u, v) = (0..80u32)
        .flat_map(|u| (u + 1..80).map(move |v| (u, v)))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("graph is not complete");
    let mut delta = CsrDelta::new();
    delta.insert_edge(u, v);
    let result = delta.apply(&mut g, &a, 0.5);
    let before = spmm_ops_performed();
    let out = push_refresh(&result.a_tilde, &x, alpha, &mut z, &mut r, &result.touched);
    assert_eq!(spmm_ops_performed() - before, 0);
    assert!(out.converged && out.rows_pushed > 0, "{out:?}");
}

/// The fused passes keep the accounting: an encode is one product (its
/// row blocks are not counted apiece), each APPR step one, and private
/// features with one aggregating scale an encode plus the one-hop.
#[test]
fn fused_passes_count_one_product_each() {
    use gcon::core::infer::{private_features, private_logits};
    use gcon::core::train::train_gcon;
    use gcon::core::GconConfig;
    use gcon::graph::Csr;
    let _guard = COUNTER_GUARD.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(81);
    let n = 700;
    let g = gcon::graph::generators::erdos_renyi_gnm(n, 3 * n, &mut rng);
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
    let x = Csr::from_dense(&Mat::from_fn(n, 30, |i, j| ((i * 7 + j) % 9 < 2) as u8 as f64));
    let mut cfg = GconConfig { steps: vec![PropagationStep::Finite(2)], ..Default::default() };
    cfg.encoder.epochs = 3;
    let idx: Vec<usize> = (0..100).collect();
    let model = train_gcon(&cfg, &g, &x, &labels, &idx, 2, 1.0, 1e-4, &mut rng);
    assert!(n > 5 * gcon::graph::csr::ROW_BLOCK, "several row blocks");

    let before = spmm_ops_performed();
    let _ = model.encoder.encode(&x);
    assert_eq!(spmm_ops_performed() - before, 1, "one encode");

    let a = row_stochastic_default(&g);
    let z = Mat::uniform(n, 16, 1.0, &mut rng);
    let before = spmm_ops_performed();
    let _ = propagate(&a, &z, 0.4, PropagationStep::Finite(3));
    assert_eq!(spmm_ops_performed() - before, 3, "three steps");

    let before = spmm_ops_performed();
    let _ = private_features(&model, &g, &x);
    assert_eq!(spmm_ops_performed() - before, 2, "encode + one-hop");

    // The one-hop, the assembly and the head are one product.
    let before = spmm_ops_performed();
    let _ = private_logits(&model, &g, &x);
    assert_eq!(spmm_ops_performed() - before, 2, "encode + one-pass logits");
    let mut graph_free = model.clone();
    graph_free.config.steps = vec![PropagationStep::Finite(0)];
    let before = spmm_ops_performed();
    let _ = private_logits(&graph_free, &g, &x);
    assert_eq!(spmm_ops_performed() - before, 1, "encode only: steps = [0] skip Ã");
}
