//! Empirically *audit* the privacy of GCON's objective perturbation: run the
//! mechanism hundreds of times on two neighboring graphs and convert the
//! output distributions into a statistical lower bound on the realized
//! privacy loss (Jagielski-style, Clopper–Pearson-backed).
//!
//! The audit is one-sided: a lower bound above the claimed ε would *prove* a
//! bug; a bound far below ε is expected. To show the harness has teeth, the
//! second table audits a deliberately broken trainer whose noise is scaled
//! away — it gets caught immediately.
//!
//! ```text
//! cargo run --release --example privacy_audit
//! ```

use gcon::core::loss::ConvexLoss;
use gcon::core::model::OptimizerConfig;
use gcon::core::noise::sample_noise_matrix;
use gcon::core::objective::PerturbedObjective;
use gcon::core::params::{CalibrationInput, TheoremOneParams};
use gcon::core::propagation::{concat_features, PropagationStep};
use gcon::core::sensitivity::psi_z;
use gcon::core::train::minimize;
use gcon::core::LossKind;
use gcon::dp::audit::{audit_eps_lower_bound, AuditConfig};
use gcon::graph::normalize::row_stochastic_default;
use gcon::linalg::{ops, Mat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // A small graph pair differing in one random edge (Definition 2).
    let mut rng = StdRng::seed_from_u64(7);
    let n = 24;
    let g = gcon::graph::generators::erdos_renyi_gnm(n, 55, &mut rng);
    let edges = g.edges();
    let (u, v) = edges[rng.gen_range(0..edges.len())];
    let g_prime = g.with_edge_removed(u, v);
    println!("auditing on a {n}-node graph; D' removes edge ({u}, {v})\n");

    let mut x = Mat::uniform(n, 4, 1.0, &mut rng);
    x.normalize_rows_l2();
    let c = 2;
    let mut y = Mat::zeros(n, c);
    for i in 0..n {
        y.set(i, i % c, 1.0);
    }
    let alpha = 0.6;
    let steps = [PropagationStep::Finite(2)];
    let z = concat_features(&row_stochastic_default(&g), &x, alpha, &steps);
    let zp = concat_features(&row_stochastic_default(&g_prime), &x, alpha, &steps);

    let loss_kind = LossKind::MultiLabelSoftMargin;
    let run_once = |zm: &Mat, lambda_total: f64, beta: f64, dir: &Mat, rng: &mut StdRng| {
        let b = sample_noise_matrix(zm.cols(), c, beta, rng);
        let obj = PerturbedObjective::new(zm, &y, ConvexLoss::new(loss_kind, c), lambda_total, &b);
        let opt = OptimizerConfig { grad_tol: 1e-9, ..Default::default() };
        let (theta, _, _) = minimize(&obj, Mat::zeros(zm.cols(), c), &opt);
        ops::frobenius_inner(&theta, dir)
    };

    println!("{:<28} {:>9} {:>12} {:>12}", "mechanism", "claimed ε", "audit ε_lb", "verdict");
    for &eps in &[0.5, 1.0, 2.0] {
        let lf = ConvexLoss::new(loss_kind, c);
        let params = TheoremOneParams::compute(&CalibrationInput {
            eps,
            delta: 1e-4,
            omega: 0.9,
            lambda: 0.3,
            n1: n,
            num_classes: c,
            dim: z.cols(),
            bounds: lf.bounds(),
            psi: psi_z(alpha, &steps),
        });
        // The adversary's best projection: the noiseless D/D' difference.
        let zero = Mat::zeros(z.cols(), c);
        let lt = params.lambda_total();
        let opt = OptimizerConfig { grad_tol: 1e-9, ..Default::default() };
        let t_d = minimize(
            &PerturbedObjective::new(&z, &y, ConvexLoss::new(loss_kind, c), lt, &zero),
            Mat::zeros(z.cols(), c),
            &opt,
        )
        .0;
        let t_dp = minimize(
            &PerturbedObjective::new(&zp, &y, ConvexLoss::new(loss_kind, c), lt, &zero),
            Mat::zeros(z.cols(), c),
            &opt,
        )
        .0;
        let mut dir = ops::sub(&t_dp, &t_d);
        let norm = dir.frobenius_norm();
        dir.map_inplace(|w| w / norm);

        let cfg = AuditConfig { trials: 200, delta: 1e-4, alpha: 0.05, thresholds: 24 };
        let r = audit_eps_lower_bound(
            |rng: &mut StdRng| run_once(&z, lt, params.beta, &dir, rng),
            |rng: &mut StdRng| run_once(&zp, lt, params.beta, &dir, rng),
            &cfg,
            &mut rng,
        );
        let ok = r.eps_lower_bound <= eps;
        println!(
            "{:<28} {:>9} {:>12.4} {:>12}",
            "GCON (honest β)",
            eps,
            r.eps_lower_bound,
            if ok { "consistent" } else { "VIOLATION" }
        );

        // The broken variant: same pipeline, noise rate scaled by 10⁶
        // (essentially no noise).
        let r_broken = audit_eps_lower_bound(
            |rng: &mut StdRng| run_once(&z, lt, params.beta * 1e6, &dir, rng),
            |rng: &mut StdRng| run_once(&zp, lt, params.beta * 1e6, &dir, rng),
            &cfg,
            &mut rng,
        );
        let caught = r_broken.eps_lower_bound > eps;
        println!(
            "{:<28} {:>9} {:>12.4} {:>12}",
            "broken (β × 10⁶)",
            eps,
            r_broken.eps_lower_bound,
            if caught { "CAUGHT" } else { "missed" }
        );
    }
    println!("\nA lower bound above the claimed ε falsifies the guarantee;");
    println!("the honest mechanism never crosses it, the undernoised one does.");
}
