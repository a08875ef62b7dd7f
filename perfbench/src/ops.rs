//! The ops the workloads run, their expected answers, and the two ways
//! of calling them: plain (one public call, as a user would) and traced
//! (the same work split into the layer calls it is made of, each inside
//! a span).

use semistructured::{AccessDecision, Database, Graph, Label, NodeId, Value};
use ssd_graph::Edge;
use ssd_query::{EvalOptions, EvalStats};
use ssd_triples::datalog::{edb_from_store, evaluate_with_facts, parse_program};
use ssd_workload::gen::{hash_op, GenOp, GenValue};
use ssd_workload::{fingerprint, GenConfig, Generator, Scenario};

use crate::spans::Spans;

/// The select queries the workloads run, by the span name of their
/// evaluation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Select {
    Sigma,
    Join,
    Rpe,
    RpeStar,
}

impl Select {
    pub fn eval_span(self) -> &'static str {
        match self {
            Select::Sigma => "eval.sigma",
            Select::Join => "eval.join",
            Select::Rpe => "eval.rpe",
            Select::RpeStar => "eval.rpe_star",
        }
    }
}

/// One σ-label title lookup: the query text and the title it must return.
#[derive(Debug, Clone)]
pub struct Lookup {
    pub text: String,
    pub title: String,
}

/// The σ-lookup for op `i`. The path is `Scenario::SigmaLookup`'s; its
/// projection `X` is a leaf (the result would be `{}` hit or miss), so
/// the lookup constructs `{title: "<title>"}` instead, which a hit alone
/// produces.
pub fn lookup(cfg: &GenConfig, i: u64) -> Lookup {
    let text = Scenario::SigmaLookup.text(cfg, i);
    let from = text
        .strip_prefix("select X from ")
        .expect("SigmaLookup text projects X");
    let title = from
        .split('"')
        .nth(1)
        .expect("SigmaLookup text quotes the title")
        .to_owned();
    Lookup {
        text: format!("select {{title: \"{title}\"}} from {from}"),
        title,
    }
}

/// Does `g` hold exactly `{title: "<title>"}`?
pub fn is_title_result(g: &Graph, title: &str) -> bool {
    let [edge] = g.edges(g.root()) else {
        return false;
    };
    let named_title = match &edge.label {
        Label::Symbol(s) => &*g.symbols().resolve(*s) == "title",
        Label::Value(_) => false,
    };
    let [value] = g.edges(edge.to) else {
        return false;
    };
    named_title && value.label == Label::Value(Value::from(title))
}

pub fn join_text(cfg: &GenConfig) -> String {
    Scenario::SelectJoin.text(cfg, 0)
}

/// The 3-step RPE, desugared the way the server desugars RPE jobs.
pub fn rpe_text(cfg: &GenConfig) -> String {
    format!("select X from db.{} X", Scenario::Rpe3.text(cfg, 0))
}

/// The Kleene-star variant of the RPE: every `Title` below an `Entry`.
pub const RPE_STAR: &str = "select X from db.Entry.%*.Title X";

pub fn closure_text(cfg: &GenConfig) -> String {
    Scenario::DatalogClosure.text(cfg, 0)
}

/// Result rows of the join: a `t` and a `d` edge per movie.
pub fn expected_join_rows(cfg: &GenConfig) -> usize {
    2 * cfg.movies() as usize
}

/// Result rows of both RPEs: one `Title` per movie.
pub fn expected_title_rows(cfg: &GenConfig) -> usize {
    cfg.movies() as usize
}

/// `reach` facts of the closure. Every `1/cycle_density`-th block of
/// `chain` consecutive movies is linked into one cycle of `k` entries
/// (the last block may be short); the closure of a `k`-cycle is `k²`
/// pairs.
pub fn expected_closure_facts(cfg: &GenConfig) -> usize {
    if cfg.cycle_density <= 0.0 {
        return 0;
    }
    let period = ((1.0 / cfg.cycle_density).round() as u64).max(1);
    let movies = cfg.movies();
    let mut facts = 0;
    let mut block = 0;
    while block * cfg.chain < movies {
        let k = cfg.chain.min(movies - block * cfg.chain);
        if block % period == 0 && k >= 2 {
            facts += (k * k) as usize;
        }
        block += 1;
    }
    facts
}

/// Fingerprint of the generator stream as found in `g`: every node and
/// edge the stream names must be in `g` and `g` must hold nothing else;
/// then the hash folded over the stream is returned, for comparison
/// with `ssd_workload::fingerprint`. `None` when `g` differs.
///
/// The stream is checked as it is generated, against `g`'s own edge
/// lists, so the check holds no copy of the graph and adds next to
/// nothing to the run's peak memory.
pub fn graph_fingerprint(g: &Graph, cfg: &GenConfig) -> Option<u64> {
    // Stream edges found per node. `build_graph` adds a node's edges in
    // stream order, so the next one is usually at this position.
    let mut found = vec![0usize; g.node_count()];
    let mut nodes = 0;
    // FNV-1a offset basis, where `ssd_workload::fingerprint` starts.
    let mut h = 0xcbf2_9ce4_8422_2325;
    for op in Generator::new(cfg.clone()) {
        h = hash_op(h, &op);
        let (from, label, to) = match &op {
            GenOp::Node { .. } => {
                nodes += 1;
                continue;
            }
            GenOp::SymEdge { from, name, to } => {
                (*from, Label::Symbol(g.symbols().get(name)?), *to)
            }
            GenOp::ValEdge { from, value, to } => {
                let v = match value {
                    GenValue::Str(s) => Value::from(s.as_str()),
                    GenValue::Int(i) => Value::from(*i),
                };
                (*from, Label::Value(v), *to)
            }
        };
        let from = usize::try_from(from).ok().filter(|&i| i < found.len())?;
        let to = NodeId::from_index(usize::try_from(to).ok()?);
        let out = g.edges(NodeId::from_index(from));
        let is_it = |e: &Edge| e.to == to && e.label == label;
        if !(out.get(found[from]).is_some_and(is_it) || out.iter().any(is_it)) {
            return None;
        }
        found[from] += 1;
    }
    let exact = g.node_ids().all(|n| found[n.index()] == g.edges(n).len());
    (exact && g.node_count() == nodes + 1).then_some(h)
}

/// Check a freshly built graph against the canonical stream fingerprint.
pub fn fingerprint_matches(g: &Graph, cfg: &GenConfig) -> bool {
    graph_fingerprint(g, cfg) == Some(fingerprint(cfg))
}

/// Row count of a result: its root edges.
pub fn rows(g: &Graph) -> usize {
    g.edges(g.root()).len()
}

/// Counters gathered from traced select calls.
#[derive(Debug, Default)]
pub struct QueryTally {
    pub selects: u64,
    pub batched: u64,
    pub tried: u64,
    pub results: u64,
}

/// The same select, split into `parse_query`, `select_access` and the
/// chosen engine (`evaluate_batched` or `evaluate_select`), each in a
/// `query` span.
pub fn select_traced(
    db: &Database,
    text: &str,
    kind: Select,
    spans: &mut Spans,
    tally: &mut QueryTally,
) -> Result<Graph, String> {
    let q = spans
        .time("query", "parse", || ssd_query::parse_query(text))
        .map_err(|e| e.to_string())?;
    let access = spans.time("query", "plan", || db.select_access(&q));
    let opts = EvalOptions::default();
    let batched = matches!(access, AccessDecision::Batched(_));
    let out: Result<(Graph, EvalStats), String> =
        spans.time("query", kind.eval_span(), || {
            match (&access, db.triple_index()) {
                (AccessDecision::Batched(plan), Some(index)) => {
                    ssd_query::evaluate_batched(db.graph(), index, &q, plan, &opts)
                }
                _ => ssd_query::evaluate_select(db.graph(), &q, &opts),
            }
        });
    let (graph, stats) = out?;
    tally.selects += 1;
    tally.batched += u64::from(batched);
    tally.tried += stats.assignments_tried as u64;
    tally.results += stats.results_constructed as u64;
    Ok(graph)
}

/// `reach` facts of a datalog program through the facade.
pub fn closure_plain(db: &Database, program: &str) -> Result<usize, String> {
    db.datalog(program).map(|e| e.count("reach"))
}

/// The same program split into `parse_program`, `Database::triples`
/// (shred), `edb_from_store` and `evaluate_with_facts` (fixpoint), each
/// in a `triples` span.
pub fn closure_traced(db: &Database, program: &str, spans: &mut Spans) -> Result<usize, String> {
    let p = spans.time("triples", "parse", || {
        parse_program(program, db.graph().symbols())
    })?;
    let store = spans.time("triples", "shred", || db.triples());
    let facts = spans.time("triples", "edb", || edb_from_store(&store));
    let eval = spans
        .time("triples", "fixpoint", || {
            evaluate_with_facts(&p, facts, true)
        })
        .map_err(|e| e.to_string())?;
    Ok(eval.count("reach"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_keeps_the_sigma_path() {
        let cfg = GenConfig::new(3_000, 42);
        let l = lookup(&cfg, 5);
        assert!(l.text.starts_with("select {title: \""));
        assert!(l
            .text
            .contains(&format!("db.Entry.Movie.Title.\"{}\" X", l.title)));
        assert_eq!(l.title.len(), cfg.payload);
    }

    #[test]
    fn small_graph_answers_match_expectations() {
        for seed in [42, 7] {
            let cfg = GenConfig::new(3_000, seed);
            let db = Database::new(ssd_workload::build_graph(&cfg));
            assert!(fingerprint_matches(db.graph(), &cfg));
            let l = lookup(&cfg, 3);
            assert!(is_title_result(
                db.query(&l.text).unwrap().graph(),
                &l.title
            ));
            let join = db.query(&join_text(&cfg)).unwrap();
            assert_eq!(rows(join.graph()), expected_join_rows(&cfg));
            let rpe = db.query(&rpe_text(&cfg)).unwrap();
            assert_eq!(rows(rpe.graph()), expected_title_rows(&cfg));
            let star = db.query(RPE_STAR).unwrap();
            assert_eq!(rows(star.graph()), expected_title_rows(&cfg));
            let reach = closure_plain(&db, &closure_text(&cfg)).unwrap();
            assert_eq!(reach, expected_closure_facts(&cfg));
            let mut spans = Spans::new();
            let mut tally = QueryTally::default();
            let traced = select_traced(&db, &l.text, Select::Sigma, &mut spans, &mut tally);
            assert!(is_title_result(&traced.unwrap(), &l.title));
            let reach = closure_traced(&db, &closure_text(&cfg), &mut spans).unwrap();
            assert_eq!(reach, expected_closure_facts(&cfg));
        }
    }

    #[test]
    fn a_changed_graph_fails_the_fingerprint() {
        let cfg = GenConfig::new(3_000, 42);
        let mut g = ssd_workload::build_graph(&cfg);
        let root = g.root();
        let extra = g.add_node();
        g.add_sym_edge(root, "Extra", extra);
        assert!(!fingerprint_matches(&g, &cfg));
    }
}
