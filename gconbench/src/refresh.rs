//! The `refresh-rw` workload: a public-mode store with m₁ = ∞ (α = 0.4)
//! over a live graph. One writer thread sends seeded single-edge toggles
//! through a `DeltaCoalescer` at 5 edits/s while one reader thread reads
//! (snapshot, then a single-node forward) at 500 reads/s, then reads as
//! fast as it can; the writer keeps going throughout.

use crate::host;
use crate::load::{
    edit_stream, run_open_loop, schedule, wait_until, Edit, Mix, Sample, Zipf, ZIPF_EXPONENT,
};
use crate::report::Report;
use crate::stats::{mean, median, time_ns};
use crate::trace::Tracer;
use crate::train::{self, Base};
use crate::Args;
use gcon_core::{ApprChain, GconConfig, InfRefreshKind, PropagationStep, TrainedGcon};
use gcon_datasets::Dataset;
use gcon_graph::normalize::row_stochastic;
use gcon_graph::Graph;
use gcon_serve::{
    CoalesceConfig, DeltaCoalescer, DeltaOutcome, DynamicServingModel, ServingMode, StoreDtype,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Offered edit rate. One ∞ push refresh of the PubMed store costs
/// ~75 ms, so the two-core box saturates near 13 edits/s.
pub const EDIT_RATE: f64 = 5.0;

/// The reader's schedule: single-node reads at 500/s on one thread.
const READS: Mix = Mix { rate: 500.0, conns: 1, bulk_share: 0.0, bulk_size: 1, check_share: 0.0 };

/// Latency limit of `slo_attainment`, from the scheduled read.
const SLO_US: f64 = 5000.0;

/// Edits the traced run feeds a replica chain and `apply_delta` directly.
const REPLICA_EDITS: usize = 8;

/// The harness PubMed configuration with m₁ = ∞.
pub fn inf_config() -> GconConfig {
    let mut cfg = train::pubmed_config();
    cfg.steps = vec![PropagationStep::Infinite];
    cfg
}

fn build(model: &TrainedGcon, graph: Graph, ds: &Dataset, tr: &Tracer) -> DynamicServingModel {
    tr.span("serve.dynamic.build", None, 0, |_| {
        DynamicServingModel::build_with_dtype(
            model,
            graph,
            &ds.features,
            ServingMode::Public,
            StoreDtype::from_env(),
        )
    })
}

/// Builds the live store and warms the read path up.
fn prepare(model: &TrainedGcon, ds: &Dataset, tr: &Tracer) -> DynamicServingModel {
    let live = build(model, ds.graph.clone(), ds, tr);
    let n = ds.graph.num_nodes();
    for k in 0..2000 {
        std::hint::black_box(live.snapshot().model().logits(k * 7919 % n));
    }
    live
}

/// What the measured phases saw.
#[derive(Default)]
struct Phases {
    edits: Vec<Sample>,
    outcomes: Vec<DeltaOutcome>,
    reads: Vec<Sample>,
    closed_reads: u64,
    closed_wall_s: f64,
    snapshot_ns: Vec<f64>,
    logits_ns: Vec<f64>,
    edits_per_window: f64,
}

#[allow(clippy::too_many_arguments)]
fn measure(
    live: &DynamicServingModel,
    ds: &Dataset,
    edits: &[Edit],
    seed: u64,
    open_s: f64,
    closed_s: f64,
    tr: &Tracer,
    report: &mut Report,
) -> Phases {
    let n = ds.graph.num_nodes();
    let zipf = Zipf::new(n, ZIPF_EXPONENT, seed);
    let reads = schedule(seed, 0, &READS, open_s, &zipf);
    let coalescer = DeltaCoalescer::new(live, CoalesceConfig::from_env());
    let start = Instant::now() + Duration::from_millis(20);
    let closed_end = start + Duration::from_secs_f64(open_s + closed_s);
    let traced = tr.enabled();
    let (mut snapshot_ns, mut logits_ns) = (Vec::new(), Vec::new());
    let (mut last_gen, mut backwards) = (0, 0u64);
    // One read: snapshot, then a single-node forward on that generation.
    let mut read = |node: usize| {
        let t0 = Instant::now();
        let snap = live.snapshot();
        let t1 = Instant::now();
        let logits = snap.model().logits(node);
        if traced {
            snapshot_ns.push((t1 - t0).as_nanos() as f64);
            logits_ns.push(t1.elapsed().as_nanos() as f64);
        }
        let g = snap.generation();
        backwards += u64::from(g < last_gen);
        let ok = g >= last_gen && logits.iter().all(|v| v.is_finite());
        last_gen = last_gen.max(g);
        ok
    };
    let mut p = Phases::default();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let (mut samples, mut outcomes) = (Vec::new(), Vec::new());
            for (k, e) in edits.iter().enumerate() {
                let due = start + Duration::from_secs_f64(k as f64 / EDIT_RATE);
                wait_until(due);
                let sent = Instant::now();
                outcomes.push(coalescer.submit(e.delta(), None));
                samples.push(Sample { due, sent, done: Instant::now(), ok: true });
            }
            (samples, outcomes)
        });
        // The reader: open loop, then closed loop while the writer goes on.
        p.reads = run_open_loop(start, &reads, |_, op| read(op.nodes[0] as usize));
        let t0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC105_ED00);
        while Instant::now() < closed_end {
            let ok = read(zipf.sample(&mut rng) as usize);
            p.closed_reads += 1;
            report.attempted += 1;
            report.failed += u64::from(!ok);
        }
        p.closed_wall_s = t0.elapsed().as_secs_f64();
        (p.edits, p.outcomes) = writer.join().expect("writer thread panicked");
    });
    p.snapshot_ns = snapshot_ns;
    p.logits_ns = logits_ns;
    // Spans from the stamps every edit and read gets anyway.
    for (k, s) in p.edits.iter().enumerate() {
        tr.record("serve.coalesce.submit", None, k as u64, s.sent, s.done);
    }
    for (k, s) in p.reads.iter().enumerate() {
        tr.record("serve.dynamic.read", None, k as u64, s.sent, s.done);
    }
    let stats = coalescer.stats();
    p.edits_per_window = stats.edits as f64 / stats.windows.max(1) as f64;
    if backwards > 0 {
        report.fail(format!("readers saw the generation go backwards {backwards} times"));
    }
    for s in &p.reads {
        report.attempted += 1;
        report.failed += u64::from(!s.ok);
    }
    // Each edit publishes its own generation (one writer, one edit per
    // window), and generations only grow.
    report.attempted += p.outcomes.len() as u64;
    for (k, o) in p.outcomes.iter().enumerate() {
        let prev = if k == 0 { 0 } else { p.outcomes[k - 1].generation };
        if o.generation <= prev {
            report.failed += 1;
            report.fail(format!("edit {k} published generation {} after {prev}", o.generation));
        }
    }
    p
}

/// The final graph: `graph` with every edit applied in order.
fn apply_all(graph: &Graph, edits: &[Edit]) -> Graph {
    let mut set: BTreeSet<(u32, u32)> = graph.edges().into_iter().collect();
    for e in edits {
        if e.insert {
            set.insert((e.u, e.v));
        } else {
            set.remove(&(e.u, e.v));
        }
    }
    Graph::from_edges(graph.num_nodes(), &set.into_iter().collect::<Vec<_>>())
}

/// The traced run's replica: the next edits of the stream, each applied to
/// a separate graph + `Ã` + `ApprChain` (timing `CsrDelta::apply` and
/// `ApprChain::refresh`) and to the live store through `apply_delta`.
/// Then the coalescer's own cost: a no-op edit (inserting an edge that
/// exists) publishes nothing, so submitting it through a `DeltaCoalescer`
/// minus applying it directly, paired call by call, is the window wait.
fn replica_probe(
    live: &DynamicServingModel,
    model: &TrainedGcon,
    ds: &Dataset,
    graph: Graph,
    edits: &[Edit],
    report: &mut Report,
) {
    let cfg = &model.config;
    let mut graph = graph;
    let mut a_tilde = row_stochastic(&graph, cfg.clip_p);
    let mut x = model.encoder.encode(&ds.features);
    x.normalize_rows_l2();
    let mut chain = ApprChain::build(&a_tilde, &x, cfg.alpha, &cfg.steps, cfg.ppr_solver);
    let (mut delta_us, mut refresh_ms, mut apply_ms) = (vec![], vec![], vec![]);
    for e in edits {
        let d = e.delta();
        let t = Instant::now();
        let res = d.apply(&mut graph, &a_tilde, cfg.clip_p);
        delta_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        chain.refresh(&res.a_tilde, &x, &res.touched);
        refresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
        a_tilde = res.a_tilde;
        let t = Instant::now();
        live.apply_delta(&d, None);
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.layer("graph.delta.apply_us", median(&delta_us), "us");
    report.layer("core.refresh_ms", median(&refresh_ms), "ms");
    report.layer("serve.dynamic.apply_ms", median(&apply_ms), "ms");

    // Publishing copies the whole store into the new generation; time that
    // copy on the live store (apply minus delta and refresh is too noisy to
    // isolate it: two ~70 ms refreshes differ by more than it costs).
    let snap = live.snapshot();
    let publish_ns = time_ns(20, |_| match (snap.model().store_f64(), snap.model().store_f32()) {
        (Some(m), _) => drop(std::hint::black_box(m.clone())),
        (None, Some(m)) => drop(std::hint::black_box(m.clone())),
        (None, None) => unreachable!("a store is f64 or f32"),
    });
    report.layer("serve.dynamic.publish_ms", publish_ns / 1e6, "ms");

    let (u, v) = graph.edges()[0];
    let no_op = || {
        let mut d = gcon_graph::CsrDelta::new();
        d.insert_edge(u, v);
        d
    };
    let coalescer = DeltaCoalescer::new(live, CoalesceConfig::from_env());
    let waits: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            live.apply_delta(&no_op(), None);
            let direct = t.elapsed();
            let t = Instant::now();
            coalescer.submit(no_op(), None);
            (t.elapsed().as_secs_f64() - direct.as_secs_f64()) * 1e3
        })
        .collect();
    report.layer("serve.coalesce.wait_ms", median(&waits), "ms");
}

/// Compares the live store with one built from scratch on the final graph:
/// they may differ by at most the two ∞ staleness certificates (the
/// current generation's and the fresh build's). Counts as one operation.
fn check_against_rebuild(
    live: &DynamicServingModel,
    model: &TrainedGcon,
    ds: &Dataset,
    final_graph: Graph,
    report: &mut Report,
) {
    let fresh = DynamicServingModel::build_with_dtype(
        model,
        final_graph,
        &ds.features,
        ServingMode::Public,
        live.store_dtype(),
    );
    let (a, b) = (live.snapshot(), fresh.snapshot());
    let widen = |g: &gcon_serve::ServingGeneration| -> Vec<f64> {
        match g.model().store_f64() {
            Some(m) => m.as_slice().to_vec(),
            None => g
                .model()
                .store_f32()
                .map_or(vec![], |m| m.as_slice().iter().map(|&v| f64::from(v)).collect()),
        }
    };
    let (x, y) = (widen(&a), widen(&b));
    let s = model.config.steps.len() as f64;
    let rounding = if live.store_dtype() == StoreDtype::F32 { 1e-6 } else { 1e-14 };
    let bound = (a.staleness_bound() + b.staleness_bound()) / s + rounding;
    let diff = x.iter().zip(&y).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max);
    report.attempted += 1;
    report.diag("rebuild_max_diff", diff, "abs");
    report.diag("rebuild_bound", bound, "abs");
    if x.len() != y.len() || x.is_empty() || diff.is_nan() || diff > bound {
        report.failed += 1;
        report.fail(format!(
            "live store is {diff:e} from a rebuild on the final graph (bound {bound:e})"
        ));
    }
}

/// Refresh-layer metrics of one run (native or probe).
fn refresh_layers(p: &Phases, tr: &Tracer, report: &mut Report) {
    let spans = tr.spans();
    let build = crate::trace::durations(&spans, "serve.dynamic.build");
    if !build.is_empty() {
        report.layer("serve.dynamic.build_ms", median(&build) * 1e-6, "ms");
    }
    let solved: Vec<&DeltaOutcome> = p.outcomes.iter().filter(|o| o.inf_solver.is_some()).collect();
    let push = solved.iter().filter(|o| o.inf_solver == Some(InfRefreshKind::Push)).count();
    report.layer("core.refresh.push_share", push as f64 / solved.len().max(1) as f64, "ratio");
    let sweeps: Vec<f64> = p.outcomes.iter().map(|o| o.inf_iterations as f64).collect();
    let rows: Vec<f64> = p.outcomes.iter().map(|o| o.affected_rows as f64).collect();
    if !sweeps.is_empty() {
        report.layer("core.refresh.sweeps", median(&sweeps), "count");
        report.layer("core.refresh.affected_rows", median(&rows), "count");
    }
    report.layer("serve.coalesce.edits_per_window", p.edits_per_window, "count");
    if !p.snapshot_ns.is_empty() {
        report.layer("serve.dynamic.snapshot_ns", median(&p.snapshot_ns), "ns");
        report.layer("serve.model.logits_us", median(&p.logits_ns) / 1e3, "us");
    }
}

/// Runs the phases on `model`, then (traced) the replica probe, then the
/// rebuild check. Returns the phases for the metrics.
#[allow(clippy::too_many_arguments)]
fn session(
    live: &DynamicServingModel,
    model: &TrainedGcon,
    ds: &Dataset,
    seed: u64,
    open_s: f64,
    closed_s: f64,
    tr: &Tracer,
    report: &mut Report,
) -> Phases {
    let timed = ((open_s + closed_s) * EDIT_RATE).floor() as usize;
    let probe = if tr.enabled() { REPLICA_EDITS } else { 0 };
    let stream = edit_stream(seed, &ds.graph, timed + probe);
    let p = measure(live, ds, &stream[..timed], seed, open_s, closed_s, tr, report);
    if tr.enabled() {
        let graph = apply_all(&ds.graph, &stream[..timed]);
        replica_probe(live, model, ds, graph, &stream[timed..], report);
        refresh_layers(&p, tr, report);
    }
    check_against_rebuild(live, model, ds, apply_all(&ds.graph, &stream), report);
    p
}

/// The `refresh-rw` workload.
pub fn run(args: &Args, tr: &Tracer, report: &mut Report) -> Result<Base, String> {
    let cfg = inf_config();
    // Each set-up builds a store from its own model; test micro-F1 is
    // their mean, taken on generation 0.
    let mut f1 = Vec::new();
    let (base, live) = train::repeated_setup(
        report,
        |rep| {
            let base = train::base_setup(args.seed, rep, &cfg, tr);
            let live = prepare(&base.model, &base.ds, tr);
            Ok((base, live))
        },
        |(base, live)| f1.push(train::test_f1(&live.snapshot().model().predict_all(), &base.ds)),
    )?;
    report.named("test_micro_f1", mean(&f1), "ratio");
    let open_s = args.seconds * 2.0 / 3.0;
    let p =
        session(&live, &base.model, &base.ds, args.seed, open_s, args.seconds - open_s, tr, report);

    let visible: Vec<f64> = p.edits.iter().map(|s| s.since_due_us() / 1e3).collect();
    report.named_latency("edit_visible_p50_ms", &visible, "ms");
    report.diag_latency(
        "edit_submit_ms",
        &p.edits.iter().map(|s| s.since_sent_us() / 1e3).collect::<Vec<_>>(),
        "ms",
    );
    report.named_latency(
        "query_p50_us",
        &p.reads.iter().map(Sample::since_due_us).collect::<Vec<_>>(),
        "us",
    );
    let in_slo = p.reads.iter().filter(|s| s.ok && s.since_due_us() <= SLO_US).count();
    report.named("slo_attainment", in_slo as f64 / p.reads.len() as f64, "ratio");
    let staleness = p.outcomes.iter().map(|o| o.staleness_bound).fold(0.0, f64::max);
    report.named("staleness_max", staleness, "abs");
    if let Some(last) = p.outcomes.last() {
        report.diag("staleness_cumulative", last.cumulative_staleness_bound, "abs");
    }
    report.named("peak_rss_mb", host::peak_rss_mb("self").ok_or("no /proc/self/status")?, "MB");
    report.diag("edits", p.edits.len() as f64, "count");
    report.diag("closed_reads_per_s", p.closed_reads as f64 / p.closed_wall_s, "1/s");
    Ok(base)
}

/// The refresh layers measured briefly inside another workload's traced
/// run: that workload's model with its steps swapped to m₁ = ∞ (Θ keeps
/// its shape since s = 1; refresh cost does not depend on Θ's values).
pub fn probe(args: &Args, base: &Base, tr: &Tracer, report: &mut Report) {
    let mut model = base.model.clone();
    model.config.steps = vec![PropagationStep::Infinite];
    let live = prepare(&model, &base.ds, tr);
    session(&live, &model, &base.ds, args.seed, 2.0, 0.5, tr, report);
}
