//! # ssd-workload — deterministic million-scale workload harness
//!
//! The observability backbone behind `ssd bench`: everything the
//! remaining performance claims are measured against.
//!
//! | piece | module | role |
//! |---|---|---|
//! | seeded IMDB-shaped graph generator | [`gen`] | byte-identical streams at 10^4–10^7 edges |
//! | scenario catalog | [`scenario`] | joins, σ-lookups, RPEs, closure, write txns, cancels |
//! | open-loop serve driver | [`driver`] | real [`Server`](ssd_serve::server::Server), arrival rates, session churn, live telemetry |
//! | deterministic replay | [`replay`] | same op sequence against the pure scheduler — the decision-trace witness |
//! | artifact + regression gate | [`report`] (over `ssd_diag::json`) | `BENCH_workload.json` and the SSD060/061/062 checker |
//!
//! The two determinism witnesses an artifact carries:
//! *graph fingerprint* (FNV-1a over the generated op stream) and
//! *replay trace fingerprint* (FNV-1a over the scheduler's decision
//! trace). Equal seeds must reproduce both, exactly — `ssd bench`
//! re-checks the former on every run and CI pins both.

pub mod driver;
pub mod gen;
pub mod replay;
pub mod report;
pub mod scenario;

use std::sync::Arc;
use std::time::Instant;

use ssd_serve::server::Server;
use ssd_serve::ServeConfig;
use ssd_trace::{phase_totals, Phase, SharedRing, Tracer};

/// The JSON reader the baseline gate uses, under its old path.
pub use ssd_diag::json;

pub use driver::{drive, DriveConfig, DriveReport};
pub use gen::{build_graph, fingerprint, GenConfig, Generator};
pub use replay::{replay, ReplayReport};
pub use report::{check_against_baseline, BenchReport, SCHEMA_VERSION};
pub use scenario::Scenario;

/// Orchestrate one full bench run: generate, load into a durable
/// store, replay deterministically, then drive the live server.
/// Returns the report plus, when `profile` is set, a per-phase fuel
/// breakdown of the whole workload rendered from the tracer.
pub fn run_bench(
    cfg: &GenConfig,
    dcfg: &DriveConfig,
    only: Option<Scenario>,
    profile: bool,
) -> Result<(BenchReport, Option<String>), String> {
    let ring = profile.then(|| SharedRing::new(1 << 20));
    let tracer = ring
        .as_ref()
        .map(|r| Tracer::with_sink(Box::new(r.clone())));

    // Phase 1: generate. The graph is streamed straight into its final
    // shape; the fingerprint witnesses the stream's bytes.
    let t0 = Instant::now();
    let graph_fingerprint = gen::fingerprint(cfg);
    let graph = {
        let _span = tracer
            .as_ref()
            .map(|t| t.span(Phase::Workload, "generate", None));
        gen::build_graph(cfg)
    };
    let gen_ms = t0.elapsed().as_millis() as u64;
    let (nodes, edges) = (graph.node_count() as u64, graph.edge_count() as u64);

    // Phase 2: load into a fresh store (write txns need a durable
    // backend; reads pin snapshot generations against it).
    let t1 = Instant::now();
    let dir = std::env::temp_dir().join(format!(
        "ssd-bench-{}-{}-{}",
        std::process::id(),
        cfg.seed,
        cfg.scale
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let db = semistructured::Database::new(graph);
    let store = {
        let _span = tracer
            .as_ref()
            .map(|t| t.span(Phase::Workload, "load_store", None));
        ssd_store::Store::init(&dir, &db).map_err(|e| format!("store init: {e}"))?;
        let (store, _report) = ssd_store::Store::open(&dir, &ssd_guard::Budget::unlimited())
            .map_err(|e| format!("store open: {e}"))?;
        store
    };
    let load_ms = t1.elapsed().as_millis() as u64;

    // Phase 3: deterministic replay — the decision-trace witness.
    let replay_report = {
        let _span = tracer
            .as_ref()
            .map(|t| t.span(Phase::Workload, "replay", None));
        replay::replay(cfg, dcfg, only)
    };

    // Phase 4: live drive against a real server over the store.
    let serve_cfg = ServeConfig {
        workers: dcfg.workers,
        queue_cap: dcfg.queue_cap,
        ..ServeConfig::default()
    };
    let store = Arc::new(store);
    let server = match &ring {
        Some(r) => Server::start_with_store_traced(
            Arc::clone(&store),
            serve_cfg,
            Tracer::with_sink(Box::new(r.clone())),
        ),
        None => Server::start_with_store(Arc::clone(&store), serve_cfg),
    };
    let drive_report = {
        let _span = tracer
            .as_ref()
            .map(|t| t.span(Phase::Workload, "drive", None));
        driver::drive(&server, cfg, dcfg, only)
    };
    server.shutdown();
    drop(tracer);
    let _ = std::fs::remove_dir_all(&dir);

    let report = BenchReport {
        cfg: cfg.clone(),
        scenario: only.map_or_else(|| "mixed".to_string(), |s| s.name().to_string()),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        movies: cfg.movies(),
        nodes,
        edges,
        graph_fingerprint,
        gen_ms,
        load_ms,
        replay: replay_report,
        drive: drive_report,
    };
    let profile_text = ring.map(|r| {
        let events = r.snapshot();
        format!(
            "per-phase fuel breakdown ({} events):\n{}",
            events.len(),
            phase_totals(&events)
        )
    });
    Ok((report, profile_text))
}
