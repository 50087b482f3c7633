//! What one run measured and checked, and how it is printed and recorded.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    /// The workload's end-to-end metrics under their own names
    /// (`train_s`, `query_p50_us`, `staleness_max`, ...).
    pub named: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics (the traced result).
    pub layers: BTreeMap<String, Metric>,
    /// Everything else worth reading: tails with sample counts, the
    /// scheduled-send medians, set-up repetitions.
    pub diag: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, for the log (counted in `failed` when they belong to
    /// an operation, and making the run incorrect in any case).
    pub failures: Vec<String>,
}

impl Report {
    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.insert(name, Metric { value, unit });
    }

    /// Records a named latency metric as the median of `values` (already in
    /// `unit`), with its p99, p99.9 and sample count as diagnostics.
    pub fn named_latency(&mut self, name: &'static str, values: &[f64], unit: &'static str) {
        let s = self.diag_latency(name, values, unit);
        self.named(name, s.p50, unit);
    }

    /// Sets a layer metric unless an earlier phase of this run already
    /// measured it (the workload's own path takes precedence over a probe).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.entry(name.to_string()).or_insert(Metric { value, unit });
    }

    pub fn diag(&mut self, name: &str, value: f64, unit: &'static str) {
        self.diag.insert(name.to_string(), Metric { value, unit });
    }

    /// Records a latency series as diagnostics: median, p99, p99.9 and the
    /// sample count, in `unit` (the series must already be in that unit).
    pub fn diag_latency(&mut self, name: &str, values: &[f64], unit: &'static str) -> Summary {
        let s = Summary::of(values);
        self.diag(&format!("{name}.p50"), s.p50, unit);
        self.diag(&format!("{name}.p99"), s.p99, unit);
        self.diag(&format!("{name}.p999"), s.p999, unit);
        self.diag(&format!("{name}.n"), s.n as f64, "count");
        s
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    pub fn success_rate(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }

    /// The gated end-to-end metrics: each `(slot, named metric, scale,
    /// unit)` of `slots` takes the named metric times `scale`. A missing
    /// named metric is a bug in the workload.
    pub fn gated(
        &self,
        slots: &[(&'static str, &'static str, f64, &'static str)],
    ) -> Vec<(&'static str, Metric)> {
        slots
            .iter()
            .map(|&(slot, name, scale, unit)| {
                let m = self
                    .named
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not record `{name}`"));
                (slot, Metric { value: m.value * scale, unit })
            })
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// `gated` metrics (untraced) or the per-layer metrics (traced).
    pub fn result_json(&self, traced: bool, gated: &[(&str, Metric)]) -> String {
        let layers = pairs(&self.layers);
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(if traced { &layers } else { gated })
        )
    }

    /// The full record of the run, host stamp included.
    pub fn write_record(
        &self,
        path: &Path,
        workload: &str,
        traced: bool,
        host: &[(&'static str, String)],
        gated: &[(&str, Metric)],
    ) -> std::io::Result<()> {
        let named: Vec<(&str, Metric)> = self.named.iter().map(|(k, m)| (*k, *m)).collect();
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": {},", json_str(workload));
        let _ = writeln!(out, "  \"traced\": {traced},");
        let host: Vec<String> =
            host.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
        let _ = writeln!(out, "  \"host\": {{{}}},", host.join(", "));
        let _ = writeln!(out, "  \"result\": {},", self.result_json(traced, gated));
        let _ = writeln!(out, "  \"gated\": {},", metrics_json(gated));
        let _ = writeln!(out, "  \"end_to_end\": {},", metrics_json(&named));
        let _ = writeln!(out, "  \"per_layer\": {},", metrics_json(&pairs(&self.layers)));
        let _ = writeln!(out, "  \"diagnostics\": {},", metrics_json(&pairs(&self.diag)));
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let _ = writeln!(out, "  \"failures\": [{}]", failures.join(", "));
        out.push_str("}\n");
        std::fs::write(path, out)
    }
}

fn pairs(m: &BTreeMap<String, Metric>) -> Vec<(&str, Metric)> {
    m.iter().map(|(k, v)| (k.as_str(), *v)).collect()
}

fn metrics_json(metrics: &[(&str, Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON number with every digit `f64` carries (`null` is never valid
/// here, so a non-finite value is a bug in the benchmark).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut r = Report { attempted: 10, failed: 1, ..Report::default() };
        r.named("setup_s", 0.8127, "s");
        r.named_latency("query_p50_us", &[700.0, 650.0, 900.0], "us");
        r.layer("core.minimize_s", 1.25, "s");
        r.layer("core.minimize_s", 9.0, "s"); // a probe never overrides
        let gated =
            r.gated(&[("setup_s", "setup_s", 1.0, "s"), ("op_p50_ms", "query_p50_us", 0.5, "ms")]);
        assert_eq!(
            r.result_json(false, &gated),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"op_p50_ms\": {\"value\": 350, \"unit\": \"ms\"}}}"
        );
        assert_eq!(r.diag["query_p50_us.n"].value, 3.0);
        assert_eq!(r.diag["query_p50_us.p99"].value, 900.0);
        assert!(r.result_json(true, &gated).contains("\"core.minimize_s\": {\"value\": 1.25"));
        assert_eq!(r.success_rate(), 0.9);
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
