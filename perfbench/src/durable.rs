//! `durable`: one client over a durable store opened with its triple
//! index warm. Each cycle commits one `Scenario::WriteTxn` transaction
//! (acknowledged after fsync) and then runs σ-lookups on the new
//! snapshot. Every commit is a new generation, so the per-snapshot
//! caches (planner statistics, index) turn over. The run ends by
//! reopening the store over the log it left, which replays every
//! commit. The unit op is one cycle: the commit and its lookups.
//!
//! The client starts a cycle at most [`RATE`] times a second and waits
//! for each to finish before the next, so a run commits the same number
//! of transactions however fast the host is: the store's memory and its
//! recovery time grow with the commits it has seen. A cycle is timed
//! from its start, after one reference timing in the idle time before
//! it (see `calib`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use semistructured::{Database, Label};
use ssd_guard::Budget;
use ssd_store::{Store, Txn};
use ssd_workload::gen::SplitMix64;
use ssd_workload::{GenConfig, Scenario};

use crate::calib::{self, Timed};
use crate::ops::{self, QueryTally, Select};
use crate::report::{
    emit_end_to_end, finish_trace, median, percentile, ratio, set_query_layers, Layers, Report,
};
use crate::setup::{self, ms_since};
use crate::spans::Spans;
use crate::Args;

/// Edges in the generated graph.
pub const SCALE: u64 = 30_000;
/// Cycles started per second, well above what the cycles need.
pub const RATE: f64 = 8.0;
/// σ-lookups on each post-commit snapshot.
const READS_PER_COMMIT: u64 = 4;

/// A store directory that is removed when dropped.
struct StoreDir(PathBuf);

impl StoreDir {
    fn fresh(tag: usize) -> StoreDir {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one cycle measured.
struct Cycle {
    latency: Timed,
    commit_ms: f64,
    reads_ms: Vec<f64>,
    traced: bool,
}

/// `Seq` values of the `BenchW` runs visible in `db`.
fn bench_seqs(db: &Database) -> Vec<i64> {
    let Ok(r) = db.query("select S from db.BenchW.Run.Seq S") else {
        return Vec::new();
    };
    let g = r.graph();
    let mut seqs: Vec<i64> = g
        .edges(g.root())
        .iter()
        .filter_map(|e| match &e.label {
            Label::Value(v) => v.as_int(),
            Label::Symbol(_) => None,
        })
        .collect();
    seqs.sort_unstable();
    seqs
}

pub fn run(args: &Args) -> Report {
    let cfg = GenConfig::new(args.scale.unwrap_or(SCALE), args.seed);
    let mut report = Report::new();
    let mut tag = 0;
    let ((store, dir, fingerprint_ok), setup) = setup::repeat(|t| {
        let db = setup::generate(&cfg, t);
        let fingerprint_ok = ops::fingerprint_matches(db.graph(), &cfg);
        tag += 1;
        let dir = StoreDir::fresh(tag);
        Store::init(dir.path(), &db).expect("store init");
        drop(db);
        let (store, _) = Store::open(dir.path(), &Budget::unlimited()).expect("store open");
        setup::warm(&store.snapshot(), t);
        (store, dir, fingerprint_ok)
    });
    report.check(fingerprint_ok, || {
        "graph fingerprint differs from ssd_workload::fingerprint".to_owned()
    });
    report.check(store.snapshot().existing_index().is_some(), || {
        "triple index did not build".to_owned()
    });

    let mut rng = SplitMix64::new(args.seed ^ 0x6475_7261_626c_6521);
    let first_txn = rng.below(1 << 20);
    let mut next_read = rng.below(cfg.movies());
    let wal_start = store.wal_len();
    let mut spans = Spans::new();
    let mut tally = QueryTally::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    let (mut wal_bytes, mut user_bytes, mut seeded, mut stats_ms) = (0u64, 0u64, 0u64, Vec::new());
    let mut last: Option<(u64, Arc<Database>)> = None;
    let start = Instant::now();
    let planned = ((args.seconds.as_secs_f64() * RATE).ceil() as usize).max(2);
    for k in 0..planned {
        let slowdown = calib::slowdown(1);
        let due = start + Duration::from_secs_f64(k as f64 / RATE);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let seq = first_txn + k as u64;
        let txn = Txn::parse_script(&Scenario::WriteTxn.text(&cfg, seq)).expect("WriteTxn script");
        let reads: Vec<ops::Lookup> = (0..READS_PER_COMMIT)
            .map(|j| ops::lookup(&cfg, next_read + j))
            .collect();
        next_read += READS_PER_COMMIT;
        // The traced run alternates plain and traced cycles.
        let traced = args.trace && k % 2 == 1;
        let root = traced.then(|| spans.open("bench", "cycle"));
        let t = Instant::now();
        let info = if traced {
            spans.time("store", "commit", || store.commit(&txn))
        } else {
            store.commit(&txn)
        };
        let commit_ms = ms_since(t);
        let Ok(info) = info else {
            report.op(false);
            if let Some(root) = root {
                spans.close(root);
            }
            continue;
        };
        report.op(true);
        let snap = store.snapshot();
        seeded += u64::from(snap.existing_index().is_some());
        if traced {
            let st = Instant::now();
            spans.time("schema", "stats", || snap.plan_stats());
            stats_ms.push(ms_since(st));
        }
        let mut reads_ms = Vec::with_capacity(reads.len());
        for l in &reads {
            let t = Instant::now();
            let ok = if traced {
                ops::select_traced(&snap, &l.text, Select::Sigma, &mut spans, &mut tally)
                    .is_ok_and(|g| ops::is_title_result(&g, &l.title))
            } else {
                snap.query(&l.text)
                    .is_ok_and(|r| ops::is_title_result(r.graph(), &l.title))
            };
            reads_ms.push(ms_since(t));
            report.op(ok);
        }
        if let Some(root) = root {
            spans.close(root);
        }
        cycles.push(Cycle {
            latency: Timed {
                raw_ms: ms_since(t),
                slowdown,
            },
            commit_ms,
            reads_ms,
            traced,
        });
        wal_bytes += info.bytes;
        user_bytes += txn.body_bytes();
        last = Some((seq, snap));
    }
    let acked = cycles.len() as u64;
    report.check(store.wal_len() - wal_start == wal_bytes, || {
        "WAL grew by other than the acknowledged commit bytes".to_owned()
    });

    // The runs the last acknowledged snapshot holds; then only the log
    // is kept for recovery.
    let last = last.map(|(seq, snap)| (seq, bench_seqs(&snap)));
    drop(store);
    // Recovery: reopen over the log this run left.
    let t = Instant::now();
    let reopened = Store::open(dir.path(), &Budget::unlimited());
    let recover_ms = ms_since(t);
    match (&reopened, &last) {
        (Ok((store, rec)), Some((seq, acked_seqs))) => {
            report.check(
                store.generation() == acked && rec.generation == acked,
                || {
                    format!(
                        "reopened generation {} != {acked} acknowledged commits",
                        store.generation()
                    )
                },
            );
            // The last acknowledged txn is visible: the reopened state
            // holds exactly the runs it left (a clearing txn leaves none).
            let want: Vec<i64> = if seq % 8 == 7 {
                Vec::new()
            } else {
                ((seq - seq % 8).max(first_txn)..=*seq)
                    .map(|s| s as i64)
                    .collect()
            };
            let got = bench_seqs(&store.snapshot());
            report.check(got == want && *acked_seqs == want, || {
                format!("after reopen BenchW seqs are {got:?}, want {want:?}")
            });
        }
        (Err(e), _) => report.check(false, || format!("reopen failed: {}", e.headline())),
        (_, None) => report.check(false, || "no commit was acknowledged".to_owned()),
    }
    drop(reopened);
    drop(dir);

    let plain: Vec<&Cycle> = cycles.iter().filter(|c| !c.traced).collect();
    if !args.trace {
        let ms: Vec<f64> = plain.iter().map(|c| c.latency.ms()).collect();
        emit_end_to_end(&mut report, setup.setup_s, &ms);
        return report;
    }
    let cycle_ms: Vec<f64> = plain.iter().map(|c| c.latency.raw_ms).collect();
    let commit_ms: Vec<f64> = plain.iter().map(|c| c.commit_ms).collect();
    let reads_ms: Vec<f64> = plain
        .iter()
        .flat_map(|c| c.reads_ms.iter().copied())
        .collect();
    let traced_ms: Vec<f64> = cycles
        .iter()
        .filter(|c| c.traced)
        .map(|c| c.latency.raw_ms)
        .collect();
    let mut layers = Layers::new();
    layers.set("workload.build_graph_ms", setup.build_graph_ms);
    layers.set("index.build_ms", setup.index_ms);
    layers.set("index.seeded_share", ratio(seeded as f64, acked as f64));
    layers.set("schema.stats_ms", median(&stats_ms));
    set_query_layers(&mut layers, &spans, &tally);
    layers.set("query.read_p50_ms", median(&reads_ms));
    layers.set("query.read_p99_ms", percentile(&reads_ms, 0.99));
    layers.set("store.commit_p50_ms", median(&commit_ms));
    layers.set("store.commit_p90_ms", percentile(&commit_ms, 0.9));
    layers.set(
        "store.wal_bytes_per_user_byte",
        ratio(wal_bytes as f64, user_bytes as f64),
    );
    layers.set("store.recover_ms", recover_ms);
    layers.set("store.replay_ms_per_txn", ratio(recover_ms, acked as f64));
    layers.set_self_times(&spans.self_ms_by_layer(), |_| traced_ms.len());
    let slowdowns: Vec<f64> = plain.iter().map(|c| c.latency.slowdown).collect();
    layers.set("perfbench.slowdown", median(&slowdowns));
    layers.set(
        "trace.overhead_share",
        median(&traced_ms) / median(&cycle_ms) - 1.0,
    );
    finish_trace(&mut report, layers, &spans, args);
    report
}
