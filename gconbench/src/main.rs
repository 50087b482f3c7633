//! `gconbench` — the end-to-end benchmark of the GCON reproduction.
//!
//! ```text
//! gconbench --workload train|serve|fleet|refresh-rw --seed N --seconds S --trace 0|1
//!           [--gcond PATH] [--out DIR]
//! ```
//!
//! Runs one workload (see `README.md` in this directory), checks every
//! output, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the gated end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! workload's own end-to-end metrics and diagnostics (tails with sample
//! counts, the host stamp) are printed before it, and
//! the full record goes to `DIR/<workload>-seed<N>-trace<T>.json` (default
//! `DIR` is `.bench_out`), with the spans of a traced run beside it.
//! Exits 1 if any output was wrong, 2 on a usage or infrastructure error.

mod host;
mod load;
mod refresh;
mod report;
mod serving;
mod stats;
mod trace;
mod train;

use report::Report;
use serving::Target;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Train,
    Serve,
    Fleet,
    RefreshRw,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "train" => Self::Train,
            "serve" => Self::Serve,
            "fleet" => Self::Fleet,
            "refresh-rw" => Self::RefreshRw,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::Train => "train",
            Self::Serve => "serve",
            Self::Fleet => "fleet",
            Self::RefreshRw => "refresh-rw",
        }
    }

    /// The gated end-to-end metrics as `(gated name, the workload's own
    /// metric, scale, unit)`. Every workload must print every gated metric,
    /// so the two operation medians take generic names: `op_p50_ms` is the
    /// workload's main operation and `op2_p50_ms` its second one.
    fn gated_slots(self) -> [(&'static str, &'static str, f64, &'static str); 6] {
        let (op, op_scale, op2, op2_scale) = match self {
            Self::Train => ("train_s", 1e3, "infer_s", 1e3),
            Self::Serve | Self::Fleet => ("query_p50_us", 1e-3, "bulk_p50_us", 1e-3),
            Self::RefreshRw => ("edit_visible_p50_ms", 1.0, "query_p50_us", 1e-3),
        };
        [
            ("setup_s", "setup_s", 1.0, "s"),
            ("op_p50_ms", op, op_scale, "ms"),
            ("op2_p50_ms", op2, op2_scale, "ms"),
            ("test_micro_f1", "test_micro_f1", 1.0, "ratio"),
            ("peak_rss_mb", "peak_rss_mb", 1.0, "MB"),
            ("success_rate", "success_rate", 1.0, "ratio"),
        ]
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phases, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// The `gcond` binary (default: next to this executable).
    pub gcond: PathBuf,
    /// Where the record, the spans and temporary store files go.
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        let at = argv.iter().position(|a| a == flag)?;
        argv.get(at + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&workload)
        .ok_or_else(|| format!("unknown workload `{workload}` (train|serve|fleet|refresh-rw)"))?;
    let seed = get("--seed")
        .map_or(Ok(1), |s| s.parse().map_err(|_| format!("--seed: `{s}` is not an integer")))?;
    let seconds: f64 = get("--seconds")
        .map_or(Ok(15.0), |s| s.parse().map_err(|_| format!("--seconds: `{s}` is not a number")))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds must lie in [1, 600], got {seconds}"));
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let gcond = match get("--gcond") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| format!("locating this executable: {e}"))?
            .with_file_name("gcond"),
    };
    let out_dir = PathBuf::from(get("--out").unwrap_or_else(|| ".bench_out".into()));
    Ok(Args { workload, seed, seconds, trace, gcond, out_dir })
}

/// Runs the workload and, when tracing, short probes of every layer group
/// the workload's own path does not run, on the workload's own dataset and
/// model: training cycles, a `gcond --store`, a fleet, a live graph.
fn run(args: &Args, tr: &Tracer, report: &mut Report) -> Result<(), String> {
    let w = args.workload;
    let base = match w {
        Workload::Train => train::run(args, tr, report)?,
        Workload::Serve => serving::run(args, Target::Gcond, tr, report)?,
        Workload::Fleet => serving::run(args, Target::Fleet, tr, report)?,
        Workload::RefreshRw => refresh::run(args, tr, report)?,
    };
    if !tr.enabled() {
        return Ok(());
    }
    if w != Workload::Train {
        train::probe(args, &base, tr, report);
    }
    if w != Workload::Serve {
        serving::probe(args, &base, Target::Gcond, tr, report)?;
    }
    if w != Workload::Fleet {
        serving::probe(args, &base, Target::Fleet, tr, report)?;
    }
    if w != Workload::RefreshRw {
        refresh::probe(args, &base, tr, report);
    }
    // Cost of recording one span, on this host.
    let probe = Tracer::new(true);
    let t = Instant::now();
    for i in 0..10_000 {
        probe.span("probe", None, i, |_| ());
    }
    report.layer("trace.span_ns", t.elapsed().as_nanos() as f64 / 10_000.0, "ns");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gconbench: {e}");
            eprintln!("usage: gconbench --workload train|serve|fleet|refresh-rw --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("gconbench: creating {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let host = host::stamp(args.seed);
    let tr = Tracer::new(args.trace);
    let mut report = Report::default();
    let started = Instant::now();
    let steal0 = host::steal_jiffies();
    if let Err(e) = run(&args, &tr, &mut report) {
        eprintln!("gconbench: {} failed: {e}", args.workload.name());
        return ExitCode::from(2);
    }
    report.diag("run_wall_s", started.elapsed().as_secs_f64(), "s");
    // Share of the run's CPU time the hypervisor stole: timings of a run
    // with high steal are slow for reasons outside the program.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, host::steal_jiffies()) {
        report.diag("host.steal_pct", 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64, "%");
    }
    let success = report.success_rate();
    report.named("success_rate", success, "ratio");
    let gated = report.gated(&args.workload.gated_slots());

    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    if args.trace {
        let spans = tr.spans();
        for (name, t) in trace::layer_times(&spans) {
            report.diag(&format!("self_ms.{name}"), t.self_ns as f64 / 1e6, "ms");
            report.diag(&format!("calls.{name}"), t.calls as f64, "count");
        }
        let path = args.out_dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("gconbench: writing {}: {e}", path.display());
        }
    }
    let record = args.out_dir.join(format!("{stem}.json"));
    if let Err(e) = report.write_record(&record, args.workload.name(), args.trace, &host, &gated) {
        eprintln!("gconbench: writing {}: {e}", record.display());
    }

    for (k, v) in &host {
        println!("# host {k} = {v}");
    }
    for (k, m) in &report.diag {
        println!("# diag {k} = {} {}", m.value, m.unit);
    }
    for (k, m) in &report.named {
        let tails = match report.diag.get(&format!("{k}.n")) {
            Some(n) => format!(
                "  (n = {}, p99 = {}, p99.9 = {})",
                n.value,
                report.diag[&format!("{k}.p99")].value,
                report.diag[&format!("{k}.p999")].value
            ),
            None => String::new(),
        };
        println!("# e2e {k} = {} {}{tails}", m.value, m.unit);
    }
    for (k, m) in &gated {
        println!("# gated {k} = {} {}", m.value, m.unit);
    }
    for f in &report.failures {
        println!("# FAILED {f}");
    }
    println!("{}", report.result_json(args.trace, &gated));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
