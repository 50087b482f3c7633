//! Criterion microbench for the shared runtime layer: allocating vs
//! buffer-reusing (`_into`) kernels, and per-scale vs single-pass
//! multi-scale propagation.
//!
//! The three comparisons recorded here are the ones the `gcon-runtime`
//! refactor targets:
//!
//! - `spmm` vs `spmm_into` (per-call output allocation removed),
//! - `propagate` vs `propagate_into` (ping-pong buffers across the APPR
//!   recursion),
//! - per-scale `concat_features` via repeated `propagate` vs the single-pass
//!   `propagate_multi` sweep (Σ mᵢ vs max mᵢ sparse products).

use criterion::{criterion_group, criterion_main, Criterion};
use gcon_core::propagation::{
    propagate, propagate_into, propagate_multi, spmm_ops_performed, PropagationStep,
};
use gcon_datasets::cora_ml;
use gcon_graph::normalize::row_stochastic_default;
use gcon_linalg::Mat;

fn bench_runtime(c: &mut Criterion) {
    let dataset = cora_ml(0.2, 0);
    let a_tilde = row_stochastic_default(&dataset.graph);
    let mut x = dataset.features.to_dense();
    x.normalize_rows_l2();
    let (n, d) = x.shape();

    let mut group = c.benchmark_group("runtime_layer");
    group.sample_size(10);

    group.bench_function("spmm_alloc", |b| b.iter(|| a_tilde.spmm(&x)));
    group.bench_function("spmm_into", |b| {
        let mut out = Mat::zeros(n, d);
        b.iter(|| a_tilde.spmm_into(&x, &mut out))
    });

    let alpha = 0.4;
    let m = 10;
    group.bench_function("propagate_alloc", |b| {
        b.iter(|| propagate(&a_tilde, &x, alpha, PropagationStep::Finite(m)))
    });
    group.bench_function("propagate_into", |b| {
        let mut z = Mat::zeros(n, d);
        let mut scratch = Mat::zeros(n, d);
        b.iter(|| {
            propagate_into(&a_tilde, &x, alpha, PropagationStep::Finite(m), &mut z, &mut scratch)
        })
    });

    // Multi-scale: {2, 5, 10} needs Σ mᵢ = 17 products per-scale but only
    // max mᵢ = 10 in the single-pass sweep.
    let steps =
        [PropagationStep::Finite(2), PropagationStep::Finite(5), PropagationStep::Finite(10)];
    group.bench_function("multiscale_per_scale", |b| {
        b.iter(|| {
            let parts: Vec<Mat> =
                steps.iter().map(|&s| propagate(&a_tilde, &x, alpha, s)).collect();
            let refs: Vec<&Mat> = parts.iter().collect();
            Mat::hcat_all(&refs)
        })
    });
    group.bench_function("multiscale_single_pass", |b| {
        b.iter(|| propagate_multi(&a_tilde, &x, alpha, &steps))
    });
    group.finish();

    // Operation-count assertion (the acceptance criterion of the runtime
    // refactor): the single-pass sweep performs exactly max(mᵢ) sparse
    // products, not Σ mᵢ. Benches run release-mode, so assert here too.
    let before = spmm_ops_performed();
    let _ = propagate_multi(&a_tilde, &x, alpha, &steps);
    let single_pass = spmm_ops_performed() - before;
    assert_eq!(single_pass, 10, "single-pass multi-scale must cost max(m_i) products");
    let before = spmm_ops_performed();
    for &s in &steps {
        let _ = propagate(&a_tilde, &x, alpha, s);
    }
    let per_scale = spmm_ops_performed() - before;
    assert_eq!(per_scale, 17, "per-scale propagation costs Σ m_i products");
    eprintln!("multi-scale products: single-pass {single_pass} vs per-scale {per_scale}");
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
