//! The `serve` and `fleet` workloads: a real `gcond` child (`--store`, or
//! two `--shard` workers behind an in-process `Coordinator`) under an
//! open-loop mix of single and 64-node bulk reads, then a closed-loop
//! capacity phase. Every bulk answer and a seeded sample of single answers
//! is compared bitwise with the in-process `ServingModel`.

use crate::host;
use crate::load::{run_open_loop, schedule, Mix, Op, Sample, Zipf, ZIPF_EXPONENT};
use crate::report::Report;
use crate::stats::{mean, median, time_ns, Summary};
use crate::trace::Tracer;
use crate::train::{self, Base};
use crate::Args;
use gcon_serve::wire::{Request, Response};
use gcon_serve::{
    BatchConfig, BatchQueue, Coordinator, FleetConfig, GconClient, ServingMode, ServingModel,
    StoreDtype,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// One `gcond --store` process.
    Gcond,
    /// Two `gcond --shard` workers (2 shards × 1 replica) behind a
    /// coordinator in this process.
    Fleet,
}

/// 500 req/s over 2 connections: 90 % single reads, 10 % 64-node bulk reads.
pub const MIX: Mix =
    Mix { rate: 500.0, conns: 2, bulk_share: 0.1, bulk_size: 64, check_share: 0.1 };

/// Latency limit of `slo_attainment`, from the scheduled send.
pub const SLO_US: f64 = 5000.0;

/// Share of closed-loop answers compared with the in-process store.
const CLOSED_CHECK_SHARE: f64 = 0.01;

/// A `gcond` child process, killed and reaped when dropped.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawns `gcond` on an ephemeral loopback port and waits for its
    /// `listening on ADDR` line.
    pub fn spawn(gcond: &Path, args: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(gcond)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", gcond.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => Ok(Self { addr: addr.to_string(), child }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("gcond {args:?} did not report an address (printed {line:?})"))
            }
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

enum Backend {
    Gcond(Vec<GconClient>),
    Fleet(Coordinator),
}

/// A deployed store: the in-process reference, the processes serving it,
/// and the connections the load generators use.
pub struct Served {
    store: ServingModel,
    backend: Backend,
    // Declared last so connections close before the processes die.
    daemons: Vec<Daemon>,
}

/// One generator's connection.
enum Conn<'a> {
    Client(&'a mut GconClient),
    Fleet(&'a Coordinator),
}

impl Conn<'_> {
    /// Logits of `nodes`, row-major.
    fn read(&mut self, nodes: &[u64]) -> Result<Vec<f64>, String> {
        match (self, nodes) {
            (Conn::Client(c), [node]) => c.logits(*node).map_err(|e| e.to_string()),
            (Conn::Client(c), _) => {
                c.logits_bulk(nodes).map(|m| m.as_slice().to_vec()).map_err(|e| e.to_string())
            }
            (Conn::Fleet(f), [node]) => f.query(*node).map_err(|e| e.to_string()),
            (Conn::Fleet(f), _) => {
                f.bulk(nodes).map(|m| m.as_slice().to_vec()).map_err(|e| e.to_string())
            }
        }
    }
}

impl Served {
    fn conns(&mut self) -> Vec<Conn<'_>> {
        match &mut self.backend {
            Backend::Gcond(clients) => clients.iter_mut().map(Conn::Client).collect(),
            Backend::Fleet(coord) => (0..MIX.conns).map(|_| Conn::Fleet(&*coord)).collect(),
        }
    }

    fn daemon_sum(&self, f: impl Fn(&str) -> Option<f64>) -> Option<f64> {
        self.daemons.iter().map(|d| f(&d.pid())).sum()
    }
}

/// Whether `got` is bitwise the in-process store's logits of `nodes`.
fn matches_store(store: &ServingModel, nodes: &[u64], got: &[f64]) -> bool {
    let want: Vec<f64> = nodes.iter().flat_map(|&n| store.logits(n as usize)).collect();
    want.len() == got.len() && want.iter().zip(got).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Builds the private-mode store from `base`, starts the processes that
/// serve it, connects, and warms every connection up.
pub fn prepare(base: &Base, target: Target, args: &Args, tr: &Tracer) -> Result<Served, String> {
    let store = tr.span("serve.model.build", None, 0, |_| {
        ServingModel::build_with_dtype(
            &base.model,
            &base.ds.graph,
            &base.ds.features,
            ServingMode::Private,
            StoreDtype::from_env(),
        )
    });
    let gcond = args.gcond.as_path();
    let mut served = match target {
        Target::Gcond => {
            let path = args.out_dir.join(format!("serve-{}.gconstore", std::process::id()));
            tr.span("serve.model.save", None, 0, |_| store.save(&path))
                .map_err(|e| format!("saving the store: {e}"))?;
            let t = Instant::now();
            let path_arg = path.to_string_lossy();
            let daemon = Daemon::spawn(gcond, &["--store", &path_arg])?;
            tr.record("gcond.start", None, 0, t, Instant::now());
            let clients = (0..MIX.conns)
                .map(|_| {
                    tr.span("serve.client.connect", None, 0, |_| GconClient::connect(&daemon.addr))
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("connecting to gcond: {e}"))?;
            let _ = std::fs::remove_file(&path); // the daemon has loaded it
            Served { store, backend: Backend::Gcond(clients), daemons: vec![daemon] }
        }
        Target::Fleet => {
            let daemons = (0..2)
                .map(|_| Daemon::spawn(gcond, &["--shard"]))
                .collect::<Result<Vec<_>, _>>()?;
            let topology: Vec<Vec<String>> = daemons.iter().map(|d| vec![d.addr.clone()]).collect();
            let coord = tr
                .span("serve.fleet.deploy", None, 0, |_| {
                    Coordinator::deploy(&store, &topology, FleetConfig::from_env())
                })
                .map_err(|e| format!("deploying the fleet: {e}"))?;
            Served { store, backend: Backend::Fleet(coord), daemons }
        }
    };
    // Warm-up: every connection reads a spread of nodes, singly and in bulk.
    let n = served.store.num_nodes() as u64;
    let store = served.store.clone();
    for mut conn in served.conns() {
        for k in 0..200u64 {
            let nodes: Vec<u64> = if k % 10 == 9 {
                (0..64).map(|j| (k * 7919 + j * 104_729) % n).collect()
            } else {
                vec![k * 7919 % n]
            };
            let got = conn.read(&nodes).map_err(|e| format!("warm-up read: {e}"))?;
            if !matches_store(&store, &nodes, &got) {
                return Err(format!(
                    "warm-up answer for {nodes:?} differs from the in-process store"
                ));
            }
        }
    }
    Ok(served)
}

/// What the two measured phases saw.
struct Phases {
    singles: Vec<Sample>,
    bulks: Vec<Sample>,
    closed_ok: u64,
    closed_wall_s: f64,
    daemon_cpu_s: Option<f64>,
    consensus_ms: Vec<f64>,
    /// `gcond` only: the server's mean `BatchQueue` batch over the phases
    /// (bulk reads bypass the queue, so their rows are left out) and its
    /// gate rejections.
    server: Option<(f64, u64)>,
}

/// Runs the open-loop phase (`open_s`) then the closed-loop phase
/// (`closed_s`), checking answers and counting every operation.
fn measure(
    served: &mut Served,
    seed: u64,
    open_s: f64,
    closed_s: f64,
    tr: &Tracer,
    report: &mut Report,
) -> Result<Phases, String> {
    let n = served.store.num_nodes();
    let zipf = Zipf::new(n, ZIPF_EXPONENT, seed);
    let schedules: Vec<Vec<Op>> =
        (0..MIX.conns).map(|c| schedule(seed, c, &MIX, open_s, &zipf)).collect();
    let store = served.store.clone();
    let pids: Vec<String> = served.daemons.iter().map(Daemon::pid).collect();
    let daemon_cpu = || pids.iter().map(|p| host::cpu_seconds(p)).sum::<Option<f64>>();
    let cpu0 = daemon_cpu();
    let stats0 = server_stats(served);

    // Open loop: one generator thread per connection, plus (fleet only) a
    // once-a-second consensus check.
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(open_s);
    // One span per open-loop request, from the stamps every request gets
    // anyway, so tracing adds nothing to the timed path.
    let (single_span, bulk_span) = match served.backend {
        Backend::Gcond(_) => ("serve.client.query", "serve.client.bulk"),
        Backend::Fleet(_) => ("serve.fleet.query", "serve.fleet.bulk"),
    };
    let mut conns = served.conns();
    let consensus_target = conns.iter().find_map(|c| match c {
        Conn::Fleet(f) => Some(*f),
        Conn::Client(_) => None,
    });
    let (per_conn, consensus) = std::thread::scope(|scope| {
        let consensus = consensus_target.map(|coord| {
            scope.spawn(move || {
                let mut out = Vec::new();
                let mut next = start + Duration::from_millis(500);
                while next < end {
                    crate::load::wait_until(next);
                    let t = Instant::now();
                    let rep = coord.consensus_check();
                    out.push((
                        t.elapsed().as_secs_f64() * 1e3,
                        rep.quarantined.is_empty() && rep.unreachable.is_empty(),
                    ));
                    next += Duration::from_secs(1);
                }
                out
            })
        });
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&schedules)
            .map(|(conn, ops)| {
                scope.spawn(move || {
                    let mut answers: Vec<(usize, Vec<f64>)> = Vec::new();
                    let mut errors: Vec<String> = Vec::new();
                    let samples = run_open_loop(start, ops, |i, op| match conn.read(&op.nodes) {
                        Ok(v) => {
                            if op.check {
                                answers.push((i, v));
                            }
                            true
                        }
                        Err(e) => {
                            errors.push(e);
                            false
                        }
                    });
                    (samples, answers, errors)
                })
            })
            .collect();
        let per_conn: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect();
        (per_conn, consensus.map(|h| h.join().expect("consensus thread panicked")))
    });
    let daemon_cpu_s = daemon_cpu().zip(cpu0).map(|(c1, c0)| c1 - c0);

    let (mut singles, mut bulks) = (Vec::new(), Vec::new());
    for (conn, ((mut samples, answers, errors), ops)) in
        per_conn.into_iter().zip(&schedules).enumerate()
    {
        for (i, (s, op)) in samples.iter().zip(ops).enumerate() {
            let name = if op.is_bulk() { bulk_span } else { single_span };
            tr.record(name, None, (conn as u64) << 32 | i as u64, s.sent, s.done);
        }
        for (i, got) in answers {
            if !matches_store(&store, &ops[i].nodes, &got) {
                samples[i].ok = false;
                report.fail(format!(
                    "answer for {:?} differs from the in-process store",
                    &ops[i].nodes
                ));
            }
        }
        for e in errors.into_iter().take(3) {
            report.fail(format!("read failed: {e}"));
        }
        for (s, op) in samples.into_iter().zip(ops) {
            report.attempted += 1;
            report.failed += u64::from(!s.ok);
            if op.is_bulk() {
                bulks.push(s)
            } else {
                singles.push(s)
            }
        }
    }
    let mut consensus_ms = Vec::new();
    for (ms, clean) in consensus.unwrap_or_default() {
        report.attempted += 1;
        consensus_ms.push(ms);
        if !clean {
            report.failed += 1;
            report.fail("consensus check quarantined or lost a replica");
        }
    }

    // Closed loop: each connection sends its next single read as soon as
    // the previous answer arrives.
    let phase = Duration::from_secs_f64(closed_s);
    let t0 = Instant::now();
    let deadline = t0 + phase;
    let counts: Vec<(u64, u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (zipf, store) = (&zipf, &store);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xC105_ED00 ^ c as u64);
                    let (mut ok, mut failed, mut errors) = (0u64, 0u64, Vec::new());
                    while Instant::now() < deadline {
                        let node = u64::from(zipf.sample(&mut rng));
                        match conn.read(&[node]) {
                            Ok(v) if rng.gen::<f64>() >= CLOSED_CHECK_SHARE || matches_store(store, &[node], &v) => ok += 1,
                            Ok(_) => {
                                failed += 1;
                                errors.push(format!("closed-loop answer for node {node} differs from the in-process store"));
                            }
                            Err(e) => {
                                failed += 1;
                                errors.push(format!("closed-loop read failed: {e}"));
                            }
                        }
                    }
                    (ok, failed, errors)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("capacity thread panicked")).collect()
    });
    let closed_wall_s = t0.elapsed().as_secs_f64();
    let mut closed_ok = 0;
    for (ok, failed, errors) in counts {
        closed_ok += ok;
        report.attempted += ok + failed;
        report.failed += failed;
        for e in errors.into_iter().take(3) {
            report.fail(e);
        }
    }
    drop(conns);
    let bulk_rows: u64 = bulks.iter().filter(|s| s.ok).count() as u64 * MIX.bulk_size as u64;
    let server = match (stats0, server_stats(served)) {
        (Some(a), Some(b)) => {
            let singles = (b.requests - a.requests).saturating_sub(bulk_rows);
            Some((
                singles as f64 / (b.batches - a.batches).max(1) as f64,
                b.rejected_overload - a.rejected_overload,
            ))
        }
        _ => None,
    };
    Ok(Phases { singles, bulks, closed_ok, closed_wall_s, daemon_cpu_s, consensus_ms, server })
}

/// The `gcond` server's counters (`None` for the fleet).
fn server_stats(served: &mut Served) -> Option<gcon_serve::wire::WireStats> {
    match &mut served.backend {
        Backend::Gcond(clients) => clients[0].stats().ok(),
        Backend::Fleet(_) => None,
    }
}

fn since_sent_us(s: &[Sample]) -> Vec<f64> {
    s.iter().map(Sample::since_sent_us).collect()
}

/// Per-layer metrics of one serving deployment (native run or probe).
fn serving_layers(
    served: &mut Served,
    target: Target,
    p: &Phases,
    tr: &Tracer,
    report: &mut Report,
) {
    let spans = tr.spans();
    let med_span = |name: &str| {
        let d = crate::trace::durations(&spans, name);
        (!d.is_empty()).then(|| median(&d))
    };
    let all: Vec<Sample> = p.singles.iter().chain(&p.bulks).copied().collect();
    let late = Summary::of(&all.iter().map(Sample::late_us).collect::<Vec<_>>());
    let requests = all.len() as f64;
    let single_rtt = median(&since_sent_us(&p.singles));
    let bulk_rtt = median(&since_sent_us(&p.bulks));
    match target {
        Target::Gcond => {
            for (metric, span, scale, unit) in [
                ("serve.model.build_ms", "serve.model.build", 1e-6, "ms"),
                ("serve.model.save_ms", "serve.model.save", 1e-6, "ms"),
                ("gcond.start_ms", "gcond.start", 1e-6, "ms"),
                ("serve.client.connect_us", "serve.client.connect", 1e-3, "us"),
            ] {
                if let Some(v) = med_span(span) {
                    report.layer(metric, v * scale, unit);
                }
            }
            report.layer("serve.client.rtt_us", single_rtt, "us");
            report.layer("serve.client.bulk_rtt_us", bulk_rtt, "us");
            report.layer("gen.late_p50_us", late.p50, "us");
            report.layer("gen.late_p99_us", late.p99, "us");
            match p.server {
                Some((mean_batch, rejected)) => {
                    report.layer("serve.server.mean_batch", mean_batch, "count");
                    report.layer("serve.server.rejected", rejected as f64, "count");
                }
                None => report.fail("gcond stats request failed"),
            }
            if let Some(cpu) = p.daemon_cpu_s {
                report.layer("gcond.cpu_us_per_req", cpu * 1e6 / requests, "us");
            }
            in_process_layers(&served.store, report);
        }
        Target::Fleet => {
            if let Some(v) = med_span("serve.fleet.deploy") {
                report.layer("serve.fleet.deploy_ms", v * 1e-6, "ms");
            }
            report.layer("serve.fleet.query_us", single_rtt, "us");
            report.layer("serve.fleet.bulk_us", bulk_rtt, "us");
            if !p.consensus_ms.is_empty() {
                report.layer("serve.fleet.consensus_ms", median(&p.consensus_ms), "ms");
            }
            if let Backend::Fleet(coord) = &served.backend {
                let s = coord.stats();
                report.layer("serve.fleet.failovers", s.failovers as f64, "count");
                report.layer("serve.fleet.quarantined", s.quarantined as f64, "count");
                report.layer("serve.fleet.dead", s.dead as f64, "count");
            }
            match shard_hop_us(served) {
                Ok(us) => report.layer("serve.fleet.shard_hop_us", us, "us"),
                Err(e) => report.fail(e),
            }
        }
    }
}

/// Median round trip of a one-node `ShardQuery` sent straight to the first
/// shard worker (the hop the coordinator adds to every fleet read).
fn shard_hop_us(served: &Served) -> Result<f64, String> {
    let worker = &served.daemons[0];
    let mut client =
        GconClient::connect(&worker.addr).map_err(|e| format!("shard connect: {e}"))?;
    let classes = served.store.num_classes();
    let rows = served.store.num_nodes() as u64 / 2; // shard 0 owns [0, n/2)
    let mut times = Vec::with_capacity(300);
    for k in 0..300u64 {
        let node = k * 7919 % rows;
        let t = Instant::now();
        let m = client.shard_query(&[node], classes).map_err(|e| format!("shard query: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches_store(&served.store, &[node], m.as_slice()) {
            return Err(format!("shard answer for node {node} differs from the in-process store"));
        }
    }
    Ok(median(&times))
}

/// The in-process layers under the server: the head forward through a
/// session, the `BatchQueue` window, and the wire codec.
fn in_process_layers(store: &ServingModel, report: &mut Report) {
    let n = store.num_nodes();
    let nodes: Vec<usize> = (0..4096).map(|k| k * 7919 % n).collect();
    let mut session = store.session();
    let b1 = time_ns(2000, |i| {
        std::hint::black_box(session.logits_batch(&nodes[i % nodes.len()..][..1]));
    });
    let b64 = time_ns(500, |i| {
        let at = (i * 64) % (nodes.len() - 64);
        std::hint::black_box(session.logits_batch(&nodes[at..at + 64]));
    });
    report.layer("serve.session.b1_us", b1 / 1e3, "us");
    report.layer("serve.session.b64_us", b64 / 1e3, "us");

    let queue = BatchQueue::new(store, BatchConfig::default());
    let mut out = Vec::new();
    let batch = time_ns(200, |i| queue.query_into(nodes[i % nodes.len()], &mut out));
    if out != store.logits(nodes[199 % nodes.len()]) {
        report.fail("BatchQueue answer differs from the store");
    }
    report.layer("serve.batch.b1_us", batch / 1e3, "us");

    let bulk_nodes: Vec<u64> = nodes[..64].iter().map(|&v| v as u64).collect();
    let values: Vec<f64> = nodes[..64].iter().flat_map(|&v| store.logits(v)).collect();
    let frames = [
        Request::Query { token: 0x1234_5678, node: 42 }.encode(),
        Response::Logits { values: store.logits(42) }.encode(),
        Request::Bulk { token: 0x1234_5678, nodes: bulk_nodes }.encode(),
        Response::BulkChunk { start: 0, cols: store.num_classes() as u32, values }.encode(),
    ];
    let mut roundtrip_ok = true;
    let codec = time_ns(2000, |_| {
        let q = Request::Query { token: 0x1234_5678, node: 42 }.encode();
        roundtrip_ok &= Request::decode(std::hint::black_box(&q)).is_ok();
        for (k, f) in frames.iter().enumerate().skip(1) {
            let ok =
                if k % 2 == 0 { Request::decode(f).is_ok() } else { Response::decode(f).is_ok() };
            roundtrip_ok &= ok;
        }
        std::hint::black_box(Response::Logits { values: vec![0.5; 3] }.encode());
    });
    if !roundtrip_ok {
        report.fail("a wire frame failed to decode");
    }
    report.layer("serve.wire.codec_ns", codec, "ns");
}

/// The `serve` (Target::Gcond) or `fleet` (Target::Fleet) workload.
pub fn run(args: &Args, target: Target, tr: &Tracer, report: &mut Report) -> Result<Base, String> {
    let cfg = train::pubmed_config();
    // Each set-up serves its own model; test micro-F1 is their mean.
    let mut f1 = Vec::new();
    let (base, mut served) = train::repeated_setup(
        report,
        |rep| {
            let base = train::base_setup(args.seed, rep, &cfg, tr);
            let served = prepare(&base, target, args, tr)?;
            Ok((base, served))
        },
        |(base, served)| f1.push(train::test_f1(&served.store.predict_all(), &base.ds)),
    )?;
    report.named("test_micro_f1", mean(&f1), "ratio");
    let open_s = args.seconds * 2.0 / 3.0;
    let p = measure(&mut served, args.seed, open_s, args.seconds - open_s, tr, report)?;

    // Medians are timed from the actual send: timed from the scheduled
    // send, a VM stall that backs requests up behind a blocked connection
    // moves the median between runs. The scheduled-send series are kept as
    // `*_due_us` diagnostics.
    let since_due = |s: &[Sample]| s.iter().map(Sample::since_due_us).collect::<Vec<_>>();
    report.named_latency("query_p50_us", &since_sent_us(&p.singles), "us");
    report.named_latency("bulk_p50_us", &since_sent_us(&p.bulks), "us");
    report.diag_latency("query_due_us", &since_due(&p.singles), "us");
    report.diag_latency("bulk_due_us", &since_due(&p.bulks), "us");
    let all: Vec<&Sample> = p.singles.iter().chain(&p.bulks).collect();
    report.diag_latency("gen.late_us", &all.iter().map(|s| s.late_us()).collect::<Vec<_>>(), "us");
    let in_slo = all.iter().filter(|s| s.ok && s.since_due_us() <= SLO_US).count();
    report.named("slo_attainment", in_slo as f64 / all.len() as f64, "ratio");
    report.named("capacity_qps", p.closed_ok as f64 / p.closed_wall_s, "1/s");
    let rss = served.daemon_sum(host::peak_rss_mb).ok_or("no /proc/<pid>/status for gcond")?;
    report.named("peak_rss_mb", rss, "MB");
    report.diag("offered_rps", MIX.rate, "1/s");
    report.diag("achieved_open_rps", all.len() as f64 / open_s, "1/s");

    if tr.enabled() {
        serving_layers(&mut served, target, &p, tr, report);
    }
    Ok(base)
}

/// The serving layers measured briefly inside another workload's traced
/// run, on a store built from that workload's model.
pub fn probe(
    args: &Args,
    base: &Base,
    target: Target,
    tr: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut served = prepare(base, target, args, tr)?;
    let p = measure(&mut served, args.seed, 1.0, 0.5, tr, report)?;
    serving_layers(&mut served, target, &p, tr, report);
    Ok(())
}
