//! Set-up shared by the workloads: generate and load the graph, warm the
//! triple index and the planner statistics, all before timing starts.
//! A run sets up several times and reports the median, keeping only the
//! last set-up alive.

use std::time::Instant;

use semistructured::Database;
use ssd_workload::{build_graph, GenConfig};

use crate::calib::{self, Timed};
use crate::report::median;

/// Times of one set-up's steps, or their medians over several set-ups.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// The whole set-up, seconds, scaled to the nominal host speed.
    pub setup_s: f64,
    pub build_graph_ms: f64,
    pub index_ms: f64,
    pub stats_ms: f64,
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Run `setup` [`SETUPS`] times, dropping each result before the next
/// starts, and return the last result with the median times. `setup` fills in
/// its step times; the total is measured here, right after a reference
/// timing that scales it.
pub fn repeat<T>(mut setup: impl FnMut(&mut SetupTimes) -> T) -> (T, SetupTimes) {
    let mut kept = None;
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(kept.take());
        let mut t = SetupTimes::default();
        let slowdown = calib::slowdown(3);
        let start = Instant::now();
        let value = setup(&mut t);
        let raw_ms = ms_since(start);
        t.setup_s = Timed { raw_ms, slowdown }.ms() / 1e3;
        times.push(t);
        kept = Some(value);
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let summary = SetupTimes {
        setup_s: med(|t| t.setup_s),
        build_graph_ms: med(|t| t.build_graph_ms),
        index_ms: med(|t| t.index_ms),
        stats_ms: med(|t| t.stats_ms),
    };
    (kept.expect("at least one set-up"), summary)
}

/// Generate the graph for `cfg`, recording the time in `t`.
pub fn generate(cfg: &GenConfig, t: &mut SetupTimes) -> Database {
    let start = Instant::now();
    let graph = build_graph(cfg);
    t.build_graph_ms = ms_since(start);
    Database::new(graph)
}

/// Build the triple index and the planner statistics of `db`, recording
/// their times in `t`. False when the index could not be built.
pub fn warm(db: &Database, t: &mut SetupTimes) -> bool {
    let start = Instant::now();
    let indexed = db.triple_index().is_some();
    t.index_ms = ms_since(start);
    let start = Instant::now();
    db.plan_stats();
    t.stats_ms = ms_since(start);
    indexed
}
