//! `point_read`: σ-label title lookups, a different movie per op, sent
//! open loop at a fixed arrival rate to an in-process `Server` with two
//! workers over a read-only `Arc<Database>` with warm caches.
//!
//! One generator thread sends each lookup at its due time and one waiter
//! thread collects the answers in send order, so the load generator
//! never uses more threads than the host's two cores. Latency runs from
//! the op's due time to its answer, so a stalled send counts against the
//! ops behind it. The unit op is one lookup. Lookups go out in slices of
//! [`SLICE`], each after a reference timing on both cores (see `calib`).

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ssd_serve::server::{JobHandle, ServeConfig, Server, SessionHandle};
use ssd_serve::{JobKind, SessionQuota};
use ssd_trace::{Event, EventKind, FieldValue, Sink, Tracer};
use ssd_workload::gen::SplitMix64;
use ssd_workload::GenConfig;

use crate::calib::{self, Timed};
use crate::ops::{self, Lookup, QueryTally, Select};
use crate::report::{
    emit_end_to_end, finish_trace, median, percentile, ratio, set_query_layers, Layers, Report,
    SLICE,
};
use crate::setup::{self, ms_since};
use crate::spans::Spans;
use crate::Args;

/// Edges in the generated graph.
pub const SCALE: u64 = 100_000;
/// Arrival rate, lookups per second: well under what two workers
/// sustain (a lookup costs a few ms), so the queue stays short.
pub const RATE: f64 = 50.0;
/// Lookups the traced run also decomposes through the library calls
/// the server makes for each job.
const DECOMPOSED: u64 = 100;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_cap: 64,
        ..ServeConfig::default()
    }
}

fn quota() -> SessionQuota {
    SessionQuota {
        fuel: None,
        memory: None,
        max_concurrent: 64,
        job_fuel: 4_000_000_000,
        job_memory: 1 << 30,
    }
}

/// Is `outcome` exactly `{title: "<title>"}`?
fn answer_ok(handle: JobHandle, title: &str) -> bool {
    let outcome = handle.wait();
    if outcome.error.is_some() {
        return false;
    }
    let [chunk] = outcome.chunks.as_slice() else {
        return false;
    };
    ssd_graph::literal::parse_graph(chunk).is_ok_and(|g| ops::is_title_result(&g, title))
}

/// One sent lookup.
struct Sent {
    late_ms: f64,
    submit_us: f64,
    queued: bool,
    latency: Timed,
    ok: bool,
}

/// Send `lookups` open loop in slices of [`SLICE`] with a reference
/// timing between slices, and wait for every answer. A slice is scaled
/// by the mean of the timings before and after it, so a slowdown that
/// starts or ends during the slice is seen.
fn measure(
    session: &SessionHandle,
    lookups: &[Lookup],
    mut spans: Option<&mut Spans>,
) -> Vec<Sent> {
    let mut sent = Vec::with_capacity(lookups.len());
    let mut before = calib::slowdown_all_cores(3);
    for slice in lookups.chunks(SLICE) {
        let part = open_loop(session, slice, spans.as_deref_mut());
        let after = calib::slowdown_all_cores(3);
        for mut s in part {
            s.latency.slowdown = (before + after) / 2.0;
            sent.push(s);
        }
        before = after;
    }
    sent
}

/// Send `lookups` open loop at [`RATE`] and wait for every answer.
fn open_loop(
    session: &SessionHandle,
    lookups: &[Lookup],
    mut spans: Option<&mut Spans>,
) -> Vec<Sent> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, JobHandle)>();
    let mut sent: Vec<Sent> = Vec::with_capacity(lookups.len());
    let done = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut done = Vec::new();
            for (n, due, handle) in rx {
                let ok = answer_ok(handle, &lookups[n].title);
                done.push((n, ms_since(due), ok));
            }
            done
        });
        let start = Instant::now();
        for (n, lookup) in lookups.iter().enumerate() {
            let due = start + Duration::from_secs_f64(n as f64 / RATE);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t = Instant::now();
            let late_ms = (t - due).as_secs_f64() * 1e3;
            let res = match spans.as_deref_mut() {
                Some(sp) => sp.time("serve", "submit", || {
                    session.submit(JobKind::Query, &lookup.text)
                }),
                None => session.submit(JobKind::Query, &lookup.text),
            };
            let submit_us = t.elapsed().as_secs_f64() * 1e6;
            let queued = res.as_ref().is_ok_and(|h| h.queued);
            sent.push(Sent {
                late_ms,
                submit_us,
                queued,
                latency: Timed {
                    raw_ms: 0.0,
                    slowdown: 1.0,
                },
                ok: false,
            });
            if let Ok(handle) = res {
                tx.send((n, due, handle)).expect("waiter is alive");
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    });
    for (n, latency_ms, ok) in done {
        sent[n].latency.raw_ms = latency_ms;
        sent[n].ok = ok;
    }
    sent
}

/// The lookups of one run: consecutive ops from a seed-chosen start.
fn lookups(cfg: &GenConfig, first: u64, count: u64) -> Vec<Lookup> {
    (first..first + count)
        .map(|i| ops::lookup(cfg, i))
        .collect()
}

/// A running server with one open session; dropping it closes the
/// session and shuts the server down, joining its workers.
struct Served {
    server: Server,
    session: SessionHandle,
}

impl Served {
    /// Open a session and send one lookup, which fills the server's
    /// estimator statistics before timing starts.
    fn new(server: Server, warm: &Lookup) -> Served {
        let session = server.open_session(quota());
        let warmed = session
            .submit(JobKind::Query, &warm.text)
            .is_ok_and(|h| answer_ok(h, &warm.title));
        assert!(warmed, "warm-up lookup failed");
        Served { server, session }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.session.close();
        self.server.shutdown();
    }
}

/// A lifecycle event as recorded: when, its kind and name, and its job.
type Stamp = (Instant, EventKind, &'static str, u64);

/// Stamps each server lifecycle event with the time it was recorded.
#[derive(Clone, Default)]
struct Stamps(Arc<Mutex<Vec<Stamp>>>);

impl Sink for Stamps {
    fn record(&mut self, event: &Event) {
        let job = event.fields.iter().find_map(|(k, v)| match (k, v) {
            (&"job", FieldValue::U64(j)) => Some(*j),
            _ => None,
        });
        if let Some(job) = job {
            let mut log = self.0.lock().expect("stamp log");
            log.push((Instant::now(), event.kind, event.name, job));
        }
    }
}

impl Stamps {
    /// Per job, the time from admission (`admit` or `queue`) until a
    /// worker opened its `job` span, in ms.
    fn queue_waits(&self) -> Vec<f64> {
        let log = self.0.lock().expect("stamp log");
        let mut admitted = std::collections::HashMap::new();
        let mut waits = Vec::new();
        for (t, kind, name, job) in log.iter() {
            match (kind, *name) {
                (EventKind::Instant, "admit" | "queue") => {
                    admitted.insert(*job, *t);
                }
                (EventKind::Open, "job") => {
                    if let Some(a) = admitted.remove(job) {
                        waits.push((*t - a).as_secs_f64() * 1e3);
                    }
                }
                _ => {}
            }
        }
        waits
    }
}

pub fn run(args: &Args) -> Report {
    let cfg = GenConfig::new(args.scale.unwrap_or(SCALE), args.seed);
    let mut report = Report::new();
    let warm = ops::lookup(&cfg, cfg.movies() - 1);
    let ((db, served, indexed), setup) = setup::repeat(|t| {
        let db = setup::generate(&cfg, t);
        let indexed = setup::warm(&db, t);
        let db = Arc::new(db);
        let served = Served::new(Server::start(Arc::clone(&db), serve_config()), &warm);
        (db, served, indexed)
    });
    report.check(indexed, || "triple index did not build".to_owned());
    report.check(ops::fingerprint_matches(db.graph(), &cfg), || {
        "graph fingerprint differs from ssd_workload::fingerprint".to_owned()
    });
    let first = SplitMix64::new(args.seed ^ 0x706f_696e_745f_7264).below(cfg.movies());
    let per_window = (args.seconds.as_secs_f64() * RATE).ceil() as u64;

    if !args.trace {
        let sent = measure(&served.session, &lookups(&cfg, first, per_window), None);
        drop(served);
        check_on_time(&mut report, &sent);
        let latencies: Vec<f64> = tally(&mut report, &sent).iter().map(|t| t.ms()).collect();
        emit_end_to_end(&mut report, setup.setup_s, &latencies);
        return report;
    }

    // Traced run: half the window untraced, half with the server's
    // lifecycle tracer and spans around each submit, then the library
    // calls a served lookup makes, each in its own span.
    let half = per_window.div_ceil(2);
    let plain = measure(&served.session, &lookups(&cfg, first, half), None);
    drop(served);
    let stamps = Stamps::default();
    let tracer = Tracer::with_sink(Box::new(stamps.clone()));
    let served = Served::new(
        Server::start_traced(Arc::clone(&db), serve_config(), tracer),
        &warm,
    );
    let mut spans = Spans::new();
    let traced = measure(
        &served.session,
        &lookups(&cfg, first + half, half),
        Some(&mut spans),
    );
    drop(served);
    let mut queries = QueryTally::default();
    for l in lookups(&cfg, first, DECOMPOSED) {
        let root = spans.open("bench", "lookup");
        let got = ops::select_traced(&db, &l.text, Select::Sigma, &mut spans, &mut queries);
        spans.close(root);
        report.op(got.is_ok_and(|g| ops::is_title_result(&g, &l.title)));
    }
    let plain_timed = tally(&mut report, &plain);
    let plain_ms: Vec<f64> = plain_timed.iter().map(|t| t.raw_ms).collect();
    let traced_ms: Vec<f64> = tally(&mut report, &traced)
        .iter()
        .map(|t| t.raw_ms)
        .collect();

    let mut layers = Layers::new();
    layers.set("workload.build_graph_ms", setup.build_graph_ms);
    check_on_time(&mut report, &plain);
    check_on_time(&mut report, &traced);
    let late: Vec<f64> = plain.iter().chain(&traced).map(|s| s.late_ms).collect();
    layers.set("workload.late_p99_ms", percentile(&late, 0.99));
    layers.set("index.build_ms", setup.index_ms);
    layers.set("schema.stats_ms", setup.stats_ms);
    layers.set(
        "serve.submit_us",
        median(&traced.iter().map(|s| s.submit_us).collect::<Vec<_>>()),
    );
    layers.set(
        "serve.queue_wait_p99_ms",
        percentile(&stamps.queue_waits(), 0.99),
    );
    let queued = traced.iter().filter(|s| s.queued).count();
    layers.set(
        "serve.queued_share",
        ratio(queued as f64, traced.len() as f64),
    );
    set_query_layers(&mut layers, &spans, &queries);
    layers.set("query.read_p50_ms", median(&plain_ms));
    layers.set("query.read_p99_ms", percentile(&plain_ms, 0.99));
    // Submit spans cover the served lookups; query spans cover the
    // decomposed ones.
    layers.set_self_times(&spans.self_ms_by_layer(), |layer| match layer {
        "serve" => traced.len(),
        _ => DECOMPOSED as usize,
    });
    let slowdowns: Vec<f64> = plain_timed.iter().map(|t| t.slowdown).collect();
    layers.set("perfbench.slowdown", median(&slowdowns));
    layers.set(
        "trace.overhead_share",
        median(&traced_ms) / median(&plain_ms) - 1.0,
    );
    finish_trace(&mut report, layers, &spans, args);
    report
}

/// Count each sent lookup as an op; return the latencies of the
/// answered ones.
fn tally(report: &mut Report, sent: &[Sent]) -> Vec<Timed> {
    for s in sent {
        report.op(s.ok);
    }
    sent.iter().filter(|s| s.ok).map(|s| s.latency).collect()
}

/// A run is valid only if the generator kept to its schedule: the p99
/// send is no later than one inter-arrival gap.
fn check_on_time(report: &mut Report, sent: &[Sent]) {
    let late: Vec<f64> = sent.iter().map(|s| s.late_ms).collect();
    let p99 = percentile(&late, 0.99);
    let gap_ms = 1e3 / RATE;
    report.check(p99 < gap_ms, || {
        format!("generator fell behind: p99 send {p99:.2} ms late, over the {gap_ms} ms gap")
    });
}
