//! The unified `BENCH_workload.json` artifact and the regression
//! checker that compares a fresh run against a committed baseline.
//!
//! Schema envelope (shared with every other BENCH artifact):
//! `{"experiment", "schema_version", "host_cores", ...payload}`. The
//! payload carries the generator identity (scale, seed, fingerprint),
//! the replay determinism witness, per-scenario latency/throughput
//! rows, and the sampled telemetry timeline — the per-PR perf
//! trajectory in one machine-readable file.

use ssd_diag::json::{escape_into, Json};
use ssd_diag::{Code, Diagnostic};

use crate::driver::DriveReport;
use crate::gen::GenConfig;
use crate::replay::ReplayReport;

/// Schema version of `BENCH_workload.json`; bump on breaking changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Everything one `ssd bench` run produced.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub cfg: GenConfig,
    pub scenario: String,
    pub host_cores: u64,
    pub movies: u64,
    pub nodes: u64,
    pub edges: u64,
    pub graph_fingerprint: u64,
    pub gen_ms: u64,
    pub load_ms: u64,
    pub replay: ReplayReport,
    pub drive: DriveReport,
}

impl BenchReport {
    /// Render the artifact. Hand-rolled like every other report in the
    /// workspace — stable key order, no serializer dependency.
    pub fn to_json(&self) -> String {
        let mut rows = Vec::new();
        for s in &self.drive.scenarios {
            let completed = s.latency.count();
            let throughput = completed * 1000 / self.drive.wall_ms.max(1);
            rows.push(format!(
                "    {{\"name\": \"{}\", \"ops\": {}, \"completed\": {completed}, \
                 \"rejected\": {}, \"errors\": {}, \"p50_us\": {}, \"p90_us\": {}, \
                 \"p99_us\": {}, \"max_us\": {}, \"mean_us\": {}, \
                 \"throughput_ops_s\": {throughput}}}",
                s.scenario.name(),
                s.ops,
                s.rejected,
                s.errors,
                s.latency.percentile(50),
                s.latency.percentile(90),
                s.latency.percentile(99),
                s.latency.max(),
                s.latency.mean(),
            ));
        }
        let mut timeline = Vec::new();
        for t in &self.drive.timeline {
            timeline.push(format!(
                "    {{\"t_ms\": {}, \"queue_depth\": {}, \"admitted\": {}, \
                 \"rejected\": {}, \"completed\": {}, \"fuel_spent\": {}, \
                 \"fuel_estimated\": {}, \"generation_lag\": {}}}",
                t.t_ms,
                t.queue_depth,
                t.admitted,
                t.rejected,
                t.completed,
                t.fuel_spent,
                t.fuel_estimated,
                t.generation_lag
            ));
        }
        let m = &self.drive.metrics;
        let total_completed: u64 = self.drive.scenarios.iter().map(|s| s.latency.count()).sum();
        let mut scenario = String::new();
        escape_into(&self.scenario, &mut scenario);
        format!(
            "{{\n  \"experiment\": \"E21\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \
             \"host_cores\": {},\n  \"scale\": {},\n  \"seed\": {},\n  \
             \"scenario\": \"{}\",\n  \
             \"graph\": {{\"movies\": {}, \"nodes\": {}, \"edges\": {}, \
             \"fingerprint\": \"{:#018x}\", \"gen_ms\": {}, \"load_ms\": {}}},\n  \
             \"replay\": {{\"trace_fingerprint\": \"{:#018x}\", \"trace_len\": {}, \
             \"dispatched\": {}, \"queued\": {}, \"rejected\": {}, \"cancelled\": {}}},\n  \
             \"scenarios\": [\n{}\n  ],\n  \
             \"timeline\": [\n{}\n  ],\n  \
             \"totals\": {{\"wall_ms\": {}, \"ops\": {}, \"completed\": {total_completed}, \
             \"errors\": {}, \"throughput_ops_s\": {}, \"fuel_spent\": {}, \
             \"fuel_estimated\": {}, \"queue_peak\": {}, \"sched_p99_us\": {}}}\n}}\n",
            self.host_cores,
            self.cfg.scale,
            self.cfg.seed,
            scenario,
            self.movies,
            self.nodes,
            self.edges,
            self.graph_fingerprint,
            self.gen_ms,
            self.load_ms,
            self.replay.trace_fingerprint,
            self.replay.trace_len,
            self.replay.dispatched,
            self.replay.queued,
            self.replay.rejected,
            self.replay.cancelled,
            rows.join(",\n"),
            timeline.join(",\n"),
            self.drive.wall_ms,
            self.drive.total_ops,
            self.drive.total_errors(),
            total_completed * 1000 / self.drive.wall_ms.max(1),
            m.counters.fuel_spent,
            m.counters.fuel_estimated,
            m.queue_peak,
            m.latency.percentile(99),
        )
    }
}

/// Latency regressions beyond this factor fail the gate (generous, to
/// absorb CI noise).
pub const TOLERANCE: u64 = 3;
/// p99s below this many µs are never compared — at that magnitude the
/// factor is all scheduler jitter.
pub const P99_FLOOR_US: u64 = 2_000;
/// Per-scenario throughputs below this (ops/s) are skipped likewise.
pub const THROUGHPUT_FLOOR: u64 = 5;

/// Compare a fresh report against a committed baseline (both JSON
/// texts). Returns diagnostics: SSD060 for scenario errors in the
/// fresh run, SSD061 for regressions beyond [`TOLERANCE`], SSD062
/// (warning) when the baseline is not comparable.
pub fn check_against_baseline(fresh: &str, baseline: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Ok(fresh) = Json::parse(fresh) else {
        out.push(Diagnostic::new(
            Code::BaselineMismatch,
            "fresh bench report is not valid JSON".to_string(),
        ));
        return out;
    };

    // Fresh-run scenario errors fail regardless of any baseline.
    for row in fresh.path(&["scenarios"]).as_array() {
        let name = row.path(&["name"]).as_str().unwrap_or("?").to_string();
        let errors = row.path(&["errors"]).as_u64().unwrap_or(0);
        if errors > 0 {
            out.push(Diagnostic::new(
                Code::WorkloadScenarioFailed,
                format!("scenario {name}: {errors} op(s) failed unexpectedly"),
            ));
        }
    }

    let Ok(base) = Json::parse(baseline) else {
        out.push(Diagnostic::new(
            Code::BaselineMismatch,
            "baseline is not valid JSON; skipping regression comparison".to_string(),
        ));
        return out;
    };
    for key in ["schema_version", "scale", "seed", "scenario"] {
        let (f, b) = (fresh.path(&[key]), base.path(&[key]));
        if f != b {
            out.push(Diagnostic::new(
                Code::BaselineMismatch,
                format!(
                    "baseline {key} ({}) differs from fresh run ({}); \
                     skipping regression comparison",
                    b.render_short(),
                    f.render_short()
                ),
            ));
            return out;
        }
    }

    for brow in base.path(&["scenarios"]).as_array() {
        let name = brow.path(&["name"]).as_str().unwrap_or("?").to_string();
        if name == "cancel" {
            // A cancel op's latency measures the race between the cancel
            // token and a fast completion — per-run noise, not a
            // regression signal — so the class is exempt from the gate.
            // (Its op failures still raise SSD060 in the fresh-run pass.)
            continue;
        }
        let Some(frow) = fresh
            .path(&["scenarios"])
            .as_array()
            .iter()
            .find(|r| r.path(&["name"]).as_str() == Some(&name))
        else {
            out.push(Diagnostic::new(
                Code::BaselineMismatch,
                format!("scenario {name} is in the baseline but not the fresh run"),
            ));
            continue;
        };
        let (bp99, fp99) = (
            brow.path(&["p99_us"]).as_u64().unwrap_or(0),
            frow.path(&["p99_us"]).as_u64().unwrap_or(0),
        );
        if fp99 > P99_FLOOR_US && bp99 > 0 && fp99 > bp99.saturating_mul(TOLERANCE) {
            out.push(Diagnostic::new(
                Code::PerfRegression,
                format!("scenario {name}: p99 {fp99} µs exceeds {TOLERANCE}× baseline {bp99} µs"),
            ));
        }
        let (bth, fth) = (
            brow.path(&["throughput_ops_s"]).as_u64().unwrap_or(0),
            frow.path(&["throughput_ops_s"]).as_u64().unwrap_or(0),
        );
        if bth > THROUGHPUT_FLOOR && fth < bth / TOLERANCE {
            out.push(Diagnostic::new(
                Code::PerfRegression,
                format!(
                    "scenario {name}: throughput {fth} ops/s is below baseline \
                     {bth} ops/s / {TOLERANCE}"
                ),
            ));
        }
    }
    out
}
