//! Criterion microbench backing **Figures 2/3**: the cost of the APPR
//! recursion `Z_m = (1−α)ÃZ_{m−1} + αX` as the propagation step m grows —
//! the axis both figures sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcon_core::propagation::{propagate, PropagationStep};
use gcon_datasets::cora_ml;
use gcon_graph::normalize::row_stochastic_default;

fn bench_propagation(c: &mut Criterion) {
    let dataset = cora_ml(0.1, 0);
    let a_tilde = row_stochastic_default(&dataset.graph);
    let mut x = dataset.features.to_dense();
    x.normalize_rows_l2();

    let mut group = c.benchmark_group("fig2_propagation");
    group.sample_size(10);
    for m in [1usize, 2, 5, 10, 20] {
        group.bench_with_input(BenchmarkId::new("appr_m", m), &m, |b, &m| {
            b.iter(|| propagate(&a_tilde, &x, 0.6, PropagationStep::Finite(m)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_propagation);
criterion_main!(benches);
