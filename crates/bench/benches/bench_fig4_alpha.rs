//! Criterion microbench backing **Figure 4**: the PPR fixed-point solve as a
//! function of the restart probability α (smaller α ⇒ slower geometric
//! contraction ⇒ more sweeps), plus the Theorem 1 calibration cost across
//! the ε grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcon_core::loss::{ConvexLoss, LossKind};
use gcon_core::params::{CalibrationInput, TheoremOneParams};
use gcon_core::propagation::{propagate, PropagationStep};
use gcon_datasets::cora_ml;
use gcon_graph::normalize::row_stochastic_default;

fn bench_alpha(c: &mut Criterion) {
    let dataset = cora_ml(0.1, 0);
    let a_tilde = row_stochastic_default(&dataset.graph);
    let mut x = dataset.features.to_dense();
    x.normalize_rows_l2();

    let mut group = c.benchmark_group("fig4_alpha");
    group.sample_size(10);
    for alpha in [0.2, 0.4, 0.6, 0.8] {
        group.bench_with_input(BenchmarkId::new("ppr_fixed_point", alpha), &alpha, |b, &a| {
            b.iter(|| propagate(&a_tilde, &x, a, PropagationStep::Infinite))
        });
    }
    for eps in [0.5, 4.0] {
        group.bench_with_input(BenchmarkId::new("theorem1_chain", eps), &eps, |b, &eps| {
            let input = CalibrationInput {
                eps,
                delta: 1e-4,
                omega: 0.9,
                lambda: 0.2,
                n1: 2000,
                num_classes: 7,
                dim: 16,
                bounds: ConvexLoss::new(LossKind::MultiLabelSoftMargin, 7).bounds(),
                psi: 0.5,
            };
            b.iter(|| TheoremOneParams::compute(&input))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_alpha);
criterion_main!(benches);
