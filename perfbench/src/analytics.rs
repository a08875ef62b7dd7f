//! `analytics`: one client in a closed loop calls the library on a
//! read-only database with warm caches. Each pass runs the four
//! whole-graph ops: the `select_join` join, the 3-step RPE
//! `db.Entry.Movie.Title`, its Kleene-star variant `db.Entry.%*.Title`
//! and the `References` datalog closure. The unit op is one pass.

use std::time::Instant;

use semistructured::Database;
use ssd_workload::GenConfig;

use crate::calib::{self, Timed};
use crate::ops::{self, QueryTally, Select};
use crate::report::{emit_end_to_end, finish_trace, median, set_query_layers, Layers, Report};
use crate::setup::{self, ms_since};
use crate::spans::Spans;
use crate::Args;

/// Edges in the generated graph.
pub const SCALE: u64 = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Join,
    Rpe,
    RpeStar,
    Closure,
}

const OPS: [Op; 4] = [Op::Join, Op::Rpe, Op::RpeStar, Op::Closure];

/// Texts and expected answers, fixed for the run.
struct Plan {
    join: String,
    rpe: String,
    closure: String,
    join_rows: usize,
    title_rows: usize,
    closure_facts: usize,
}

impl Plan {
    fn new(cfg: &GenConfig) -> Plan {
        Plan {
            join: ops::join_text(cfg),
            rpe: ops::rpe_text(cfg),
            closure: ops::closure_text(cfg),
            join_rows: ops::expected_join_rows(cfg),
            title_rows: ops::expected_title_rows(cfg),
            closure_facts: ops::expected_closure_facts(cfg),
        }
    }

    /// Run `op` and check its answer. With `spans`, the op is split into
    /// its layer calls, each in a span.
    fn run(&self, db: &Database, op: Op, traced: Option<(&mut Spans, &mut QueryTally)>) -> bool {
        let (text, kind, want): (&str, _, _) = match op {
            Op::Join => (&self.join, Select::Join, self.join_rows),
            Op::Rpe => (&self.rpe, Select::Rpe, self.title_rows),
            Op::RpeStar => (ops::RPE_STAR, Select::RpeStar, self.title_rows),
            Op::Closure => {
                let got = match traced {
                    Some((spans, _)) => ops::closure_traced(db, &self.closure, spans),
                    None => ops::closure_plain(db, &self.closure),
                };
                return got == Ok(self.closure_facts);
            }
        };
        match traced {
            Some((spans, tally)) => ops::select_traced(db, text, kind, spans, tally)
                .is_ok_and(|g| ops::rows(&g) == want),
            None => db.query(text).is_ok_and(|r| ops::rows(r.graph()) == want),
        }
    }
}

fn op_span(op: Op) -> &'static str {
    match op {
        Op::Join => "join",
        Op::Rpe => "rpe",
        Op::RpeStar => "rpe_star",
        Op::Closure => "closure",
    }
}

pub fn run(args: &Args) -> Report {
    let cfg = GenConfig::new(args.scale.unwrap_or(SCALE), args.seed);
    let mut report = Report::new();
    let ((db, indexed), setup) = setup::repeat(|t| {
        let db = setup::generate(&cfg, t);
        let indexed = setup::warm(&db, t);
        (db, indexed)
    });
    report.check(indexed, || "triple index did not build".to_owned());
    report.check(ops::fingerprint_matches(db.graph(), &cfg), || {
        "graph fingerprint differs from ssd_workload::fingerprint".to_owned()
    });
    let plan = Plan::new(&cfg);
    // Every pass runs the four ops in one fixed order, so the allocation
    // pattern, and with it the peak RSS, is the same on every seed.

    let mut spans = Spans::new();
    let mut tally = QueryTally::default();
    let mut passes: Vec<Timed> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut op_ms: Vec<(Op, f64)> = Vec::new();
    let start = Instant::now();
    let mut pass = 0usize;
    let min_passes = 1 + usize::from(args.trace);
    while pass < min_passes || start.elapsed() < args.seconds {
        // The traced run alternates plain and traced passes, so the
        // difference between them is the tracing overhead.
        let traced = args.trace && pass % 2 == 1;
        let slowdown = calib::slowdown(3);
        let t_pass = Instant::now();
        for op in OPS {
            let t = Instant::now();
            let ok = if traced {
                let root = spans.open("bench", op_span(op));
                let ok = plan.run(&db, op, Some((&mut spans, &mut tally)));
                spans.close(root);
                ok
            } else {
                plan.run(&db, op, None)
            };
            report.op(ok);
            if !traced {
                op_ms.push((op, ms_since(t)));
            }
        }
        let pass_ms = ms_since(t_pass);
        if traced {
            traced_ms.push(pass_ms);
        } else {
            passes.push(Timed {
                raw_ms: pass_ms,
                slowdown,
            });
        }
        pass += 1;
    }

    if !args.trace {
        let ms: Vec<f64> = passes.iter().map(|p| p.ms()).collect();
        emit_end_to_end(&mut report, setup.setup_s, &ms);
        return report;
    }
    let op_p50 = |which: Op| {
        median(
            &op_ms
                .iter()
                .filter(|(o, _)| *o == which)
                .map(|(_, ms)| *ms)
                .collect::<Vec<_>>(),
        )
    };
    let mut layers = Layers::new();
    layers.set("workload.build_graph_ms", setup.build_graph_ms);
    layers.set("index.build_ms", setup.index_ms);
    layers.set("schema.stats_ms", setup.stats_ms);
    set_query_layers(&mut layers, &spans, &tally);
    layers.set("query.join_p50_ms", op_p50(Op::Join));
    layers.set("query.rpe_p50_ms", op_p50(Op::Rpe));
    layers.set("query.rpe_star_p50_ms", op_p50(Op::RpeStar));
    layers.set("triples.shred_ms", spans.median_ms("triples", "shred"));
    layers.set("triples.edb_ms", spans.median_ms("triples", "edb"));
    layers.set(
        "triples.fixpoint_ms",
        spans.median_ms("triples", "fixpoint"),
    );
    layers.set("triples.closure_p50_ms", op_p50(Op::Closure));
    layers.set_self_times(&spans.self_ms_by_layer(), |_| traced_ms.len());
    let plain_ms: Vec<f64> = passes.iter().map(|p| p.raw_ms).collect();
    let slowdowns: Vec<f64> = passes.iter().map(|p| p.slowdown).collect();
    layers.set("perfbench.slowdown", median(&slowdowns));
    layers.set(
        "trace.overhead_share",
        median(&traced_ms) / median(&plain_ms) - 1.0,
    );
    finish_trace(&mut report, layers, &spans, args);
    report
}
