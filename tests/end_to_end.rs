//! End-to-end integration tests: the full Algorithm 1 pipeline over real
//! (synthetic) datasets, exercising every crate together.

use gcon::baselines::{evaluate_baseline, Baseline};
use gcon::core::infer::{private_predict, public_predict};
use gcon::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fast_config() -> GconConfig {
    let mut cfg = GconConfig::default();
    cfg.encoder.epochs = 60;
    cfg.optimizer.max_iters = 600;
    cfg
}

fn test_f1(dataset: &Dataset, pred: &[usize]) -> f64 {
    let test: Vec<usize> = dataset.split.test.iter().map(|&i| pred[i]).collect();
    micro_f1(&test, &dataset.test_labels())
}

fn train(dataset: &Dataset, eps: f64, seed: u64) -> TrainedGcon {
    let mut rng = StdRng::seed_from_u64(seed);
    train_gcon(
        &fast_config(),
        &dataset.graph,
        &dataset.features,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        eps,
        dataset.default_delta(),
        &mut rng,
    )
}

#[test]
fn gcon_beats_majority_floor_on_homophilous_graph() {
    let dataset = gcon::datasets::two_moons_graph(1);
    let model = train(&dataset, 2.0, 2);
    let f1 = test_f1(&dataset, &private_predict(&model, &dataset.graph, &dataset.features));
    assert!(f1 > 0.6, "micro-F1 {f1} not above the 0.5 majority floor");
}

#[test]
fn utility_improves_from_tiny_to_generous_budget() {
    // Average over seeds so objective-perturbation noise does not flake.
    let dataset = gcon::datasets::two_moons_graph(3);
    let avg = |eps: f64| -> f64 {
        (0..3)
            .map(|s| {
                let model = train(&dataset, eps, 100 + s);
                test_f1(&dataset, &private_predict(&model, &dataset.graph, &dataset.features))
            })
            .sum::<f64>()
            / 3.0
    };
    let tight = avg(0.05);
    let loose = avg(4.0);
    assert!(loose >= tight - 0.02, "utility at ε=4 ({loose}) should not trail ε=0.05 ({tight})");
}

#[test]
fn gcon_outperforms_dpgcn_at_moderate_budget() {
    // The paper's headline comparison (Figure 1): adjacency perturbation
    // destroys the aggregation signal at small ε; objective perturbation
    // preserves it.
    let dataset = gcon::datasets::cora_ml(0.12, 5);
    let delta = dataset.default_delta();
    let eps = 1.0;
    let gcon_avg: f64 = (0..3)
        .map(|s| {
            let mut cfg = fast_config();
            cfg.alpha = 0.8; // the paper's best Cora-ML setting (Figure 4)
            cfg.alpha_inference = 0.8;
            let mut rng = StdRng::seed_from_u64(300 + s);
            let model = train_gcon(
                &cfg,
                &dataset.graph,
                &dataset.features,
                &dataset.labels,
                &dataset.split.train,
                dataset.num_classes,
                eps,
                delta,
                &mut rng,
            );
            test_f1(&dataset, &private_predict(&model, &dataset.graph, &dataset.features))
        })
        .sum::<f64>()
        / 3.0;
    let dpgcn_avg: f64 = (0..3)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(400 + s);
            evaluate_baseline(Baseline::Dpgcn, &dataset, eps, delta, &mut rng)
        })
        .sum::<f64>()
        / 3.0;
    assert!(
        gcon_avg > dpgcn_avg,
        "GCON ({gcon_avg:.3}) should beat DPGCN ({dpgcn_avg:.3}) at ε = 1"
    );
}

#[test]
fn training_is_deterministic_under_fixed_seed() {
    let dataset = gcon::datasets::two_moons_graph(7);
    let a = train(&dataset, 1.0, 9);
    let b = train(&dataset, 1.0, 9);
    assert_eq!(a.theta.as_slice(), b.theta.as_slice());
    assert_eq!(a.report.params.beta, b.report.params.beta);
}

#[test]
fn different_noise_draws_give_different_models() {
    let dataset = gcon::datasets::two_moons_graph(7);
    let a = train(&dataset, 1.0, 10);
    let b = train(&dataset, 1.0, 11);
    assert_ne!(a.theta.as_slice(), b.theta.as_slice());
}

#[test]
fn model_shapes_and_report_consistency() {
    let dataset = gcon::datasets::two_moons_graph(13);
    let model = train(&dataset, 2.0, 14);
    let d = model.config.steps.len() * model.encoder.d1();
    assert_eq!(model.theta.shape(), (d, dataset.num_classes));
    assert_eq!(model.dim(), d);
    assert_eq!(model.report.eps, 2.0);
    assert!(model.report.params.beta > 0.0);
    assert!(model.final_grad_norm <= 1e-10, "optimizer did not converge");
    // Expanded training set: n1 = n by default.
    assert_eq!(model.report.n1, dataset.num_nodes());
}

#[test]
fn public_inference_at_least_matches_private_on_average() {
    // Figure 2 vs Figure 3: the public test graph gives the model its full
    // multi-hop propagation, which should not hurt.
    let dataset = gcon::datasets::two_moons_graph(15);
    let mut priv_sum = 0.0;
    let mut pub_sum = 0.0;
    for s in 0..3 {
        let model = train(&dataset, 4.0, 500 + s);
        priv_sum += test_f1(&dataset, &private_predict(&model, &dataset.graph, &dataset.features));
        pub_sum += test_f1(&dataset, &public_predict(&model, &dataset.graph, &dataset.features));
    }
    assert!(
        pub_sum >= priv_sum - 0.15,
        "public ({pub_sum}) unexpectedly far below private ({priv_sum})"
    );
}

#[test]
fn heterophilous_graph_still_trains() {
    let dataset = gcon::datasets::actor(0.06, 17);
    let model = train(&dataset, 4.0, 18);
    let f1 = test_f1(&dataset, &private_predict(&model, &dataset.graph, &dataset.features));
    // 5 classes → 0.2 chance floor; features carry some signal.
    assert!(f1 > 0.2, "actor micro-F1 {f1} at chance level");
}

#[test]
fn zero_propagation_needs_no_noise_and_runs() {
    let dataset = gcon::datasets::two_moons_graph(19);
    let mut cfg = fast_config();
    cfg.steps = vec![PropagationStep::Finite(0)];
    let mut rng = StdRng::seed_from_u64(20);
    let model = train_gcon(
        &cfg,
        &dataset.graph,
        &dataset.features,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        0.5,
        dataset.default_delta(),
        &mut rng,
    );
    assert!(model.report.params.is_noise_free());
    assert_eq!(model.report.psi_z, 0.0);
    let f1 = test_f1(&dataset, &private_predict(&model, &dataset.graph, &dataset.features));
    assert!(f1 > 0.5, "m=0 (MLP-equivalent) micro-F1 {f1}");
}
