//! The `train` workload: Algorithm 1 on the PubMed stand-in at full scale,
//! each training followed by private inference (Eq. 16) and checks; plus
//! the set-up every workload shares (dataset + one training) and the traced
//! stage-by-stage replica of `train_gcon` behind the training-layer spans.

use crate::host;
use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::{self, SpanId, Tracer};
use crate::Args;
use gcon_core::encoder::FeatureEncoder;
use gcon_core::infer::{head_logits, private_features, private_predict};
use gcon_core::noise::sample_noise_matrix;
use gcon_core::objective::PerturbedObjective;
use gcon_core::params::{CalibrationInput, TheoremOneParams};
use gcon_core::propagation::{concat_features_with_solver, spmm_ops_performed};
use gcon_core::sensitivity::psi_z_clipped;
use gcon_core::train::{minimize, train_gcon};
use gcon_core::{ConvexLoss, GconConfig, PrivacyReport, TrainedGcon};
use gcon_datasets::metrics::micro_f1;
use gcon_datasets::Dataset;
use gcon_graph::normalize::row_stochastic;
use gcon_linalg::Mat;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Privacy budget ε of every training (δ is the dataset's `1/|E|`).
pub const EPS: f64 = 4.0;

/// Times each workload's set-up runs; `setup_s` is the median.
pub const SETUP_REPS: u64 = 3;

/// Stated tolerance for the stage self times of a traced training adding
/// up to that training's wall time (the glue between stages, such as
/// selecting the training rows, is the only time no stage covers).
pub const STAGE_SUM_TOLERANCE: f64 = 0.05;

/// The harness's PubMed configuration (α = 0.4, α_I = 0.1, m₁ = 2).
pub fn pubmed_config() -> GconConfig {
    gcon_bench::default_gcon_config("pubmed")
}

/// The seed of training `i` of a run (set-up repetition `i` trains first,
/// then the `train` workload's cycles continue from [`SETUP_REPS`]).
pub fn train_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// What every workload's set-up starts from: the dataset and a model.
pub struct Base {
    pub ds: Dataset,
    pub model: TrainedGcon,
}

/// Generates the PubMed stand-in (19,717 nodes, d₀ = 500) and trains
/// model `i` of the run on it. When tracing, the training is the traced
/// replica, which gives every workload's traced run the training-layer
/// spans.
pub fn base_setup(seed: u64, i: u64, cfg: &GconConfig, tr: &Tracer) -> Base {
    let ds = tr.span("datasets.pubmed", None, i, |_| gcon_datasets::pubmed(1.0, seed));
    let model = if tr.enabled() {
        train_traced(tr, cfg, &ds, train_seed(seed, i), i).0
    } else {
        train_plain(cfg, &ds, train_seed(seed, i))
    };
    Base { ds, model }
}

pub fn train_plain(cfg: &GconConfig, ds: &Dataset, seed: u64) -> TrainedGcon {
    let mut rng = StdRng::seed_from_u64(seed);
    train_gcon(
        cfg,
        &ds.graph,
        &ds.features,
        &ds.labels,
        &ds.split.train,
        ds.num_classes,
        EPS,
        ds.default_delta(),
        &mut rng,
    )
}

/// `train_gcon` stage by stage through the same public functions, with a
/// span around each stage; also returns the root span. Must reproduce
/// `train_gcon`'s Θ bitwise for the same seed (checked by the traced
/// `train` run).
pub fn train_traced(
    tr: &Tracer,
    cfg: &GconConfig,
    ds: &Dataset,
    seed: u64,
    req: u64,
) -> (TrainedGcon, Option<SpanId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, c) = (ds.graph.num_nodes(), ds.num_classes);
    let delta = ds.default_delta();
    tr.span("core.train", None, req, |root| {
        let a_tilde =
            tr.span("graph.normalize", root, req, |_| row_stochastic(&ds.graph, cfg.clip_p));
        let y_labeled: Vec<usize> = ds.split.train.iter().map(|&i| ds.labels[i]).collect();
        let encoder = tr.span("core.encoder.fit", root, req, |_| {
            let x_labeled = ds.features.select_rows(&ds.split.train);
            FeatureEncoder::train(&cfg.encoder, &x_labeled, &y_labeled, c, &mut rng)
        });
        let x_enc = tr.span("core.encoder.encode", root, req, |_| {
            let mut x = encoder.encode(&ds.features);
            x.normalize_rows_l2();
            x
        });
        let ops0 = spmm_ops_performed();
        let z_all = tr.span("core.propagation", root, req, |_| {
            concat_features_with_solver(&a_tilde, &x_enc, cfg.alpha, &cfg.steps, cfg.ppr_solver)
        });
        let spmm_ops = spmm_ops_performed() - ops0;
        let (rows, row_labels): (Vec<usize>, Vec<usize>) = if cfg.expand_train_set {
            let mut lbls =
                tr.span("core.encoder.pseudo", root, req, |_| encoder.predict(&ds.features));
            for &i in &ds.split.train {
                lbls[i] = ds.labels[i];
            }
            ((0..n).collect(), lbls)
        } else {
            (ds.split.train.clone(), y_labeled.clone())
        };
        let z_train = z_all.select_rows(&rows);
        let n1 = rows.len();
        let mut y_onehot = Mat::zeros(n1, c);
        for (r, &label) in row_labels.iter().enumerate() {
            y_onehot.set(r, label, 1.0);
        }
        let d = z_train.cols();
        let loss = ConvexLoss::new(cfg.loss, c);
        let (psi, params, b) = tr.span("core.calibrate", root, req, |_| {
            let psi = psi_z_clipped(cfg.alpha, &cfg.steps, cfg.clip_p);
            let params = TheoremOneParams::compute(&calibration(cfg, loss, n1, c, d, psi, delta));
            let b = sample_noise_matrix(d, c, params.beta, &mut rng);
            (psi, params, b)
        });
        let (theta, iters, grad) = tr.span("core.minimize", root, req, |_| {
            let obj = PerturbedObjective::new(&z_train, &y_onehot, loss, params.lambda_total(), &b);
            minimize(&obj, Mat::zeros(d, c), &cfg.optimizer)
        });
        // The span-less counters of this training ride on zero-length spans
        // so the trace file keeps them next to the stage times.
        let now = Instant::now();
        tr.record("graph.spmm_ops", root, spmm_ops as u64, now, now);
        tr.record("core.minimize.iters", root, iters as u64, now, now);
        let model = TrainedGcon {
            theta,
            encoder,
            config: cfg.clone(),
            report: PrivacyReport { eps: EPS, delta, psi_z: psi, params, n1 },
            num_classes: c,
            opt_iterations: iters,
            final_grad_norm: grad,
        };
        (model, root)
    })
}

fn calibration(
    cfg: &GconConfig,
    loss: ConvexLoss,
    n1: usize,
    num_classes: usize,
    dim: usize,
    psi: f64,
    delta: f64,
) -> CalibrationInput {
    CalibrationInput {
        eps: EPS,
        delta,
        omega: cfg.omega,
        lambda: cfg.lambda,
        n1,
        num_classes,
        dim,
        bounds: loss.bounds(),
        psi,
    }
}

/// Checks a released model's (ε, δ, Ψ, β, Λ′, Λ̄) against Theorem 1
/// recomputed from its configuration, bit for bit.
pub fn check_calibration(model: &TrainedGcon, ds: &Dataset) -> Result<(), String> {
    let cfg = &model.config;
    let n1 = if cfg.expand_train_set { ds.graph.num_nodes() } else { ds.split.train.len() };
    let psi = psi_z_clipped(cfg.alpha, &cfg.steps, cfg.clip_p);
    let loss = ConvexLoss::new(cfg.loss, model.num_classes);
    let want = TheoremOneParams::compute(&calibration(
        cfg,
        loss,
        n1,
        model.num_classes,
        model.dim(),
        psi,
        ds.default_delta(),
    ));
    let r = &model.report;
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    let ok = same(r.eps, EPS)
        && same(r.delta, ds.default_delta())
        && same(r.psi_z, psi)
        && r.n1 == n1
        && same(r.params.beta, want.beta)
        && same(r.params.lambda_prime, want.lambda_prime)
        && same(r.params.lambda_eff, want.lambda_eff);
    if ok {
        Ok(())
    } else {
        Err(format!("privacy report {:?} differs from Theorem 1 {want:?} (Ψ = {psi})", r))
    }
}

pub fn test_f1(pred: &[usize], ds: &Dataset) -> f64 {
    let test_pred: Vec<usize> = ds.split.test.iter().map(|&i| pred[i]).collect();
    micro_f1(&test_pred, &ds.test_labels())
}

/// Private inference with a span per stage (features, then head).
pub fn infer_traced(tr: &Tracer, model: &TrainedGcon, ds: &Dataset, req: u64) -> Vec<usize> {
    tr.span("core.infer", None, req, |root| {
        let z = tr.span("core.infer.features", root, req, |_| {
            private_features(model, &ds.graph, &ds.features)
        });
        let logits = tr.span("core.infer.head", root, req, |_| head_logits(model, &z));
        gcon_linalg::reduce::row_argmax(&logits)
    })
}

/// Runs the workload's set-up [`SETUP_REPS`] times, passing the repetition
/// index and tearing the previous set-up down first, and keeps the last.
/// Each repetition is timed, then handed to `inspect` untimed.
pub fn repeated_setup<T>(
    report: &mut Report,
    mut once: impl FnMut(u64) -> Result<T, String>,
    mut inspect: impl FnMut(&T),
) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUP_REPS as usize);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let out = once(rep)?;
        times.push(t.elapsed().as_secs_f64());
        inspect(&out);
        last = Some(out);
    }
    report.named("setup_s", median(&times), "s");
    for (i, t) in times.iter().enumerate() {
        report.diag(&format!("setup_s.rep{i}"), *t, "s");
    }
    Ok(last.expect("at least one set-up"))
}

/// Training-layer metrics from the spans of traced trainings and inferences.
pub fn training_layers(tr: &Tracer, report: &mut Report) {
    let spans = tr.spans();
    let med = |name: &str, scale: f64| {
        let d = trace::durations(&spans, name);
        (!d.is_empty()).then(|| median(&d) * scale)
    };
    let ns_to_s = 1e-9;
    let ns_to_ms = 1e-6;
    let ns_to_us = 1e-3;
    for (metric, span, scale, unit) in [
        ("datasets.pubmed_s", "datasets.pubmed", ns_to_s, "s"),
        ("graph.normalize_ms", "graph.normalize", ns_to_ms, "ms"),
        ("core.encoder.fit_s", "core.encoder.fit", ns_to_s, "s"),
        ("core.encoder.encode_s", "core.encoder.encode", ns_to_s, "s"),
        ("core.encoder.pseudo_s", "core.encoder.pseudo", ns_to_s, "s"),
        ("core.propagation_ms", "core.propagation", ns_to_ms, "ms"),
        ("core.calibrate_us", "core.calibrate", ns_to_us, "us"),
        ("core.minimize_s", "core.minimize", ns_to_s, "s"),
        ("core.infer.features_ms", "core.infer.features", ns_to_ms, "ms"),
        ("core.infer.head_ms", "core.infer.head", ns_to_ms, "ms"),
    ] {
        if let Some(v) = med(span, scale) {
            report.layer(metric, v, unit);
        }
    }
    let counter = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.req as f64).collect()
    };
    let iters = counter("core.minimize.iters");
    if !iters.is_empty() {
        let it = median(&iters);
        report.layer("core.minimize_iters", it, "count");
        if let Some(ms) = med("core.minimize", ns_to_ms) {
            report.layer("core.minimize_ms_per_iter", ms / it.max(1.0), "ms");
        }
    }
    let ops = counter("graph.spmm_ops");
    if !ops.is_empty() {
        report.layer("graph.spmm_ops", median(&ops), "count");
    }
}

/// What the training cycles of a run measured.
struct Cycles {
    train_s: Vec<f64>,
    /// Process CPU seconds of each training (steal excluded), in ticks of
    /// 10 ms.
    cpu_s: Vec<f64>,
    infer_s: Vec<f64>,
    f1: Vec<f64>,
    iters: Vec<f64>,
    /// Process CPU seconds per wall second over the cycles.
    cpu_per_wall: f64,
    wall_s: f64,
    /// Traced only, per cycle: the replica's stage self times over its own
    /// wall time, and its wall time minus the plain training's.
    stage_ratio: Vec<f64>,
    overhead_s: Vec<f64>,
}

/// Trains, infers and checks, one seeded cycle after another, until
/// `phase` has passed and at least `min_cycles` ran. When tracing, each
/// cycle also runs the traced replica on the same seed (first on odd
/// cycles, second on even ones, so neither side always runs warm) and the
/// staged inference, and both must match the plain calls bitwise.
fn cycles(
    seed: u64,
    cfg: &GconConfig,
    ds: &Dataset,
    phase: Duration,
    min_cycles: u64,
    tr: &Tracer,
    report: &mut Report,
) -> Cycles {
    let mut c = Cycles {
        train_s: vec![],
        cpu_s: vec![],
        infer_s: vec![],
        f1: vec![],
        iters: vec![],
        cpu_per_wall: 0.0,
        wall_s: 0.0,
        stage_ratio: vec![],
        overhead_s: vec![],
    };
    let cpu0 = host::cpu_seconds("self");
    let start = Instant::now();
    let mut next = SETUP_REPS;
    while next < SETUP_REPS + min_cycles || start.elapsed() < phase {
        let i = next;
        next += 1;
        let seed = train_seed(seed, i);
        report.attempted += 1;
        let traced_first = tr.enabled() && i % 2 == 1;
        let replica = traced_first.then(|| timed(|| train_traced(tr, cfg, ds, seed, i)));
        let cpu_before = host::cpu_seconds("self");
        let (model, dt_train) = timed(|| train_plain(cfg, ds, seed));
        if let Some((c1, c0)) = host::cpu_seconds("self").zip(cpu_before) {
            c.cpu_s.push(c1 - c0);
        }
        let replica =
            replica.or_else(|| tr.enabled().then(|| timed(|| train_traced(tr, cfg, ds, seed, i))));
        let (pred, dt_infer) = timed(|| private_predict(&model, &ds.graph, &ds.features));
        let f1 = test_f1(&pred, ds);
        c.train_s.push(dt_train);
        c.infer_s.push(dt_infer);
        c.f1.push(f1);
        c.iters.push(model.opt_iterations as f64);

        let mut ok = true;
        if let Err(e) = check_calibration(&model, ds) {
            report.fail(format!("training {i}: {e}"));
            ok = false;
        }
        if !(f1 > 1.0 / ds.num_classes as f64 && f1 <= 1.0) {
            report.fail(format!("training {i}: test micro-F1 {f1} is no better than chance"));
            ok = false;
        }
        if let Some(((replica, root), dt_replica)) = replica {
            c.overhead_s.push(dt_replica - dt_train);
            let spans = tr.spans();
            let stages: u64 = spans
                .iter()
                .zip(trace::self_times(&spans))
                .filter(|(s, _)| s.parent.is_some() && s.parent == root)
                .map(|(_, t)| t)
                .sum();
            let wall = spans.iter().find(|s| Some(s.id) == root).map_or(0, trace::Span::dur_ns);
            c.stage_ratio.push(stages as f64 / wall as f64);
            let same_theta = replica.theta.shape() == model.theta.shape()
                && replica
                    .theta
                    .as_slice()
                    .iter()
                    .zip(model.theta.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same_theta {
                report.fail(format!(
                    "training {i}: the traced replica's Θ differs from train_gcon's"
                ));
                ok = false;
            }
            if infer_traced(tr, &model, ds, i) != pred {
                report.fail(format!("training {i}: staged inference differs from private_predict"));
                ok = false;
            }
        }
        report.failed += u64::from(!ok);
    }
    c.wall_s = start.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds("self").zip(cpu0).map_or(0.0, |(c1, c0)| c1 - c0);
    c.cpu_per_wall = cpu / c.wall_s;
    c
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Training-layer metrics of a traced run, from its cycles and spans.
fn cycle_layers(c: &Cycles, tr: &Tracer, report: &mut Report) {
    training_layers(tr, report);
    report.layer("runtime.cpu_per_wall", c.cpu_per_wall, "ratio");
    let ratio = median(&c.stage_ratio);
    report.diag("core.train.stage_sum_ratio", ratio, "ratio");
    if (ratio - 1.0).abs() > STAGE_SUM_TOLERANCE {
        report.fail(format!("stage self times add up to {ratio:.3} × the traced train_s, outside ±{STAGE_SUM_TOLERANCE}"));
    }
    let over = median(&c.overhead_s);
    report.layer("trace.overhead_ms", over * 1e3, "ms");
    report.layer("trace.overhead_pct", 100.0 * over / median(&c.train_s), "%");
}

/// The `train` workload.
pub fn run(args: &Args, tr: &Tracer, report: &mut Report) -> Result<Base, String> {
    let cfg = pubmed_config();
    // Set-up: dataset generation + a warm-up training (the first training
    // in a process is markedly slower than the rest).
    let base = repeated_setup(report, |rep| Ok(base_setup(args.seed, rep, &cfg, tr)), |_| ())?;
    let c = cycles(args.seed, &cfg, &base.ds, Duration::from_secs_f64(args.seconds), 1, tr, report);

    report.named_latency("train_s", &c.train_s, "s");
    report.named_latency("infer_s", &c.infer_s, "s");
    report.named("test_micro_f1", mean(&c.f1), "ratio");
    report.named("peak_rss_mb", host::peak_rss_mb("self").ok_or("no /proc/self/status")?, "MB");
    report.diag("trainings_per_s", c.train_s.len() as f64 / c.wall_s, "1/s");
    report.diag_latency("minimize_iters", &c.iters, "count");
    if !c.cpu_s.is_empty() {
        report.diag_latency("train_cpu_s", &c.cpu_s, "s");
    }
    if tr.enabled() {
        cycle_layers(&c, tr, report);
    }
    Ok(base)
}

/// The training layers measured inside another workload's traced run:
/// three cycles on that workload's dataset and configuration.
pub fn probe(args: &Args, base: &Base, tr: &Tracer, report: &mut Report) {
    let c = cycles(args.seed, &base.model.config, &base.ds, Duration::ZERO, 3, tr, report);
    cycle_layers(&c, tr, report);
}
