//! Sample statistics and the result line the benchmark prints last.

use crate::ops::QueryTally;
use crate::spans::Spans;
use crate::Args;

/// Linear-interpolation percentile (`q` in 0..=1) of exact samples.
/// Returns 0 for an empty sample set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples per slice in [`sliced_percentile`].
pub const SLICE: usize = 50;

/// The median, over consecutive slices of about [`SLICE`] samples in
/// run order, of each slice's `q` percentile. A burst of interference
/// from outside the program moves one slice, not the reported value.
pub fn sliced_percentile(samples: &[f64], q: f64) -> f64 {
    let slices = (samples.len() / SLICE).max(1);
    let size = samples.len().div_ceil(slices).max(1);
    let per_slice: Vec<f64> = samples.chunks(size).map(|c| percentile(c, q)).collect();
    median(&per_slice)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run prints: op accounting plus named metrics with units.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Structural checks outside the ops (graph fingerprint, recovery).
    pub checks_ok: bool,
    /// Failed-check descriptions, printed to stderr.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            checks_ok: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Record a failed check; the run then reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.checks_ok = false;
            self.problems.push(what());
        }
    }

    /// Record one op's outcome.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.checks_ok && self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            // A run with no ops is already `correct: false`; the line
            // still reports at least one attempt, as the format requires.
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Print the end-to-end metrics every workload reports: set-up time,
/// peak memory, the share of ops that succeeded, and the median of the
/// workload's unit-op latencies (exact samples in run order; see
/// [`sliced_percentile`]). Tails are per-layer metrics of the traced
/// run: on a shared host they move by 2× between runs of one program.
pub fn emit_end_to_end(report: &mut Report, setup_s: f64, ms: &[f64]) {
    let ok = report.attempted - report.failed;
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric(
        "ok_share",
        ratio(ok as f64, report.attempted as f64),
        "share",
    );
    report.metric("p50_ms", sliced_percentile(ms, 0.5), "ms");
}

/// Every per-layer metric the traced run prints, with its unit. A layer
/// a workload does not exercise reads 0. `README.md` maps each to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("perfbench.slowdown", "ratio"),
    ("workload.build_graph_ms", "ms"),
    ("workload.late_p99_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.seeded_share", "share"),
    ("schema.stats_ms", "ms"),
    ("schema.self_ms_per_op", "ms"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.queued_share", "share"),
    ("serve.self_ms_per_op", "ms"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.batched_share", "share"),
    ("query.tried_per_result", "ratio"),
    ("query.eval_ms.sigma", "ms"),
    ("query.eval_ms.join", "ms"),
    ("query.eval_ms.rpe", "ms"),
    ("query.eval_ms.rpe_star", "ms"),
    ("query.read_p50_ms", "ms"),
    ("query.read_p99_ms", "ms"),
    ("query.join_p50_ms", "ms"),
    ("query.rpe_p50_ms", "ms"),
    ("query.rpe_star_p50_ms", "ms"),
    ("query.self_ms_per_op", "ms"),
    ("triples.shred_ms", "ms"),
    ("triples.edb_ms", "ms"),
    ("triples.fixpoint_ms", "ms"),
    ("triples.closure_p50_ms", "ms"),
    ("triples.self_ms_per_op", "ms"),
    ("store.commit_p50_ms", "ms"),
    ("store.commit_p90_ms", "ms"),
    ("store.wal_bytes_per_user_byte", "ratio"),
    ("store.recover_ms", "ms"),
    ("store.replay_ms_per_txn", "ms"),
    ("store.self_ms_per_op", "ms"),
    ("trace.overhead_share", "share"),
];

/// Values for [`PER_LAYER`], 0 until set.
pub struct Layers(Vec<f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(vec![0.0; PER_LAYER.len()])
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in PER_LAYER"));
        self.0[i] = value;
    }

    /// Set `<layer>.self_ms_per_op` from per-layer self-time totals,
    /// dividing each layer's total by `ops(layer)`: the count of unit
    /// ops whose spans it was summed over.
    pub fn set_self_times(&mut self, totals: &[(&'static str, f64)], ops: impl Fn(&str) -> usize) {
        for (layer, ms) in totals {
            let name = format!("{layer}.self_ms_per_op");
            if PER_LAYER.iter().any(|(n, _)| *n == name) {
                self.set(&name, ratio(*ms, ops(layer) as f64));
            }
        }
    }

    pub fn emit(self, report: &mut Report) {
        for ((name, unit), value) in PER_LAYER.iter().zip(self.0) {
            report.metric(name, value, unit);
        }
    }
}

/// The `query.*` layer metrics every traced workload shares.
pub fn set_query_layers(layers: &mut Layers, spans: &Spans, q: &QueryTally) {
    layers.set("query.parse_us", spans.median_ms("query", "parse") * 1e3);
    layers.set("query.plan_us", spans.median_ms("query", "plan") * 1e3);
    layers.set(
        "query.batched_share",
        ratio(q.batched as f64, q.selects as f64),
    );
    layers.set(
        "query.tried_per_result",
        ratio(q.tried as f64, q.results as f64),
    );
    for (metric, span) in [
        ("query.eval_ms.sigma", "eval.sigma"),
        ("query.eval_ms.join", "eval.join"),
        ("query.eval_ms.rpe", "eval.rpe"),
        ("query.eval_ms.rpe_star", "eval.rpe_star"),
    ] {
        layers.set(metric, spans.median_ms("query", span));
    }
}

/// Emit the per-layer metrics and write the spans out.
pub fn finish_trace(report: &mut Report, layers: Layers, spans: &Spans, args: &Args) {
    layers.emit(report);
    let path = args.span_file();
    if let Err(e) = spans.write_jsonl(&path) {
        report.check(false, || format!("writing {}: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn slices_ignore_one_slow_burst() {
        let mut s = vec![1.0; 5 * SLICE];
        s[..2 * SLICE].fill(100.0);
        assert_eq!(sliced_percentile(&s, 0.5), 1.0);
        assert_eq!(sliced_percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn json_line_has_exact_keys() {
        let mut r = Report::new();
        r.op(true);
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
