//! Stratified datalog evaluation: naive and semi-naive.
//!
//! The EDB is `edge(Src, Label, Dst)`, `root(R)`, and `node(N)` (every
//! node occurring in a triple or as root). It comes from one of two
//! places, and both feed the same fixpoint loop:
//!
//! * the cached [`TripleIndex`] ([`evaluate_indexed`], the path behind
//!   `Database::datalog*`). `edge` is never copied: each `edge` literal
//!   reads the SPO, POS or OSP run that its bound positions select, and
//!   only the keys offered to the matcher are decoded. `node` is
//!   materialised from the runs only when the program mentions it, and
//!   `root` is one tuple.
//! * a [`TripleStore`] copied into sorted fact sets ([`edb_from_store`]):
//!   the set-backed reference path ([`evaluate`], [`evaluate_naive`],
//!   [`evaluate_with`]) that the index path is tested against.
//!
//! Programs are stratified on negation; within a stratum, recursion is
//! evaluated either naively (recompute everything each round) or
//! semi-naively (join only against the last round's delta). Experiment E6
//! measures the gap between the two, which §3's pointer to "graph datalog"
//! implicitly relies on being large.

use super::ast::{is_builtin, Atom, Program, Rule, Term};
use crate::algebra::Datum;
use crate::store::TripleStore;
use ssd_graph::NodeId;
use ssd_guard::{Exhausted, Guard};
use ssd_index::{Key, TripleIndex};
use ssd_trace::{Phase, Tracer};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

/// Fault-injection seam: hit once per fixpoint round.
pub const FP_DATALOG_ROUND: &str = "datalog.round";

/// Approximate bytes one derived tuple costs in the fact database.
/// Public so the static cost analysis charges the same unit it measures.
pub const TUPLE_COST: u64 = 96;

/// The EDB predicates and their arities. A program that uses one with
/// another arity is refused, even when the relation is empty.
pub const EDB_PREDICATES: &[(&str, usize)] = &[("edge", 3), ("node", 1), ("root", 1)];

/// The fact database: predicate name → set of tuples.
pub type Facts = HashMap<String, BTreeSet<Vec<Datum>>>;

/// Errors from evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    Unsafe(String),
    NotStratifiable(String),
    ArityMismatch {
        pred: String,
        expected: usize,
        got: usize,
    },
    /// A resource budget (fuel, memory, deadline, cancellation, fault
    /// injection) tripped mid-fixpoint.
    Exhausted(Exhausted),
}

impl std::fmt::Display for DatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatalogError::Unsafe(m) => write!(f, "unsafe program: {m}"),
            DatalogError::NotStratifiable(p) => {
                write!(
                    f,
                    "program is not stratifiable (negative cycle through {p})"
                )
            }
            DatalogError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(
                f,
                "predicate {pred} used with arity {got}, expected {expected}"
            ),
            DatalogError::Exhausted(e) => write!(f, "{}", e.headline()),
        }
    }
}

impl std::error::Error for DatalogError {}

/// Result of evaluating a program: all facts plus iteration statistics.
/// On the index path the facts hold the IDB relations and the EDB
/// relations that were materialised (`root`, and `node` when the
/// program mentions it), not `edge`.
#[derive(Debug)]
pub struct Evaluation {
    pub facts: Facts,
    /// Total fixpoint iterations across strata.
    pub iterations: usize,
    /// Total number of rule-body join evaluations performed (work measure
    /// for the naive vs semi-naive comparison).
    pub rule_evaluations: usize,
    /// Set when a guard in partial mode stopped evaluation early: the
    /// headline of the exhaustion cause. Facts hold everything derived up
    /// to that point (a sound under-approximation of the fixpoint).
    pub truncated: Option<String>,
}

impl Evaluation {
    /// Tuples derived for `pred` (empty slice view if none).
    pub fn tuples(&self, pred: &str) -> impl Iterator<Item = &Vec<Datum>> {
        self.facts.get(pred).into_iter().flatten()
    }

    pub fn count(&self, pred: &str) -> usize {
        self.facts.get(pred).map_or(0, BTreeSet::len)
    }
}

/// Build the EDB facts from a triple store.
pub fn edb_from_store(store: &TripleStore) -> Facts {
    let mut facts: Facts = HashMap::new();
    let mut edges = BTreeSet::new();
    let mut nodes = BTreeSet::new();
    for t in store.iter() {
        edges.insert(vec![
            Datum::Node(t.src),
            Datum::Label(t.label.clone()),
            Datum::Node(t.dst),
        ]);
        nodes.insert(vec![Datum::Node(t.src)]);
        nodes.insert(vec![Datum::Node(t.dst)]);
    }
    nodes.insert(vec![Datum::Node(store.root())]);
    facts.insert("edge".to_owned(), edges);
    facts.insert("node".to_owned(), nodes);
    facts.insert(
        "root".to_owned(),
        std::iter::once(vec![Datum::Node(store.root())]).collect(),
    );
    facts
}

/// The EDB facts an index-backed run needs beside the index itself:
/// `root` always, `node` when the program mentions it. A program that
/// derives `edge` tuples of its own extends the stored relation, so then
/// `edge` is materialised as well and the index is not read (`None`).
fn edb_from_index<'i>(
    program: &Program,
    index: &'i TripleIndex,
) -> (Facts, Option<&'i TripleIndex>) {
    let mut facts: Facts = HashMap::new();
    facts.insert(
        "root".to_owned(),
        std::iter::once(vec![node_datum(index.root())]).collect(),
    );
    let mentions_node = program
        .rules
        .iter()
        .any(|r| r.head.pred == "node" || r.body.iter().any(|l| l.atom.pred == "node"));
    if mentions_node {
        facts.insert("node".to_owned(), index_nodes(index));
    }
    if !program.rules.iter().any(|r| r.head.pred == "edge") {
        return (facts, Some(index));
    }
    let edges = index
        .spo()
        .iter()
        .filter_map(|&k| decode(index, k))
        .collect();
    facts.insert("edge".to_owned(), edges);
    (facts, None)
}

/// `node/1` from the runs: every source and destination of an indexed
/// triple, plus the root, in node-id order.
fn index_nodes(index: &TripleIndex) -> BTreeSet<Vec<Datum>> {
    let mut ids: Vec<u32> = index.spo().iter().flat_map(|&[s, _, o]| [s, o]).collect();
    ids.push(index.root());
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(|n| vec![node_datum(n)]).collect()
}

fn node_datum(id: u32) -> Datum {
    Datum::Node(NodeId::from_index(id as usize))
}

/// An SPO key as an `edge` tuple.
fn decode(index: &TripleIndex, [s, p, o]: Key) -> Option<Vec<Datum>> {
    let label = index.dict().resolve(p)?;
    Some(vec![
        node_datum(s),
        Datum::Label(label.clone()),
        node_datum(o),
    ])
}

/// Evaluate `program` over the EDB of `store`, semi-naively.
pub fn evaluate(program: &Program, store: &TripleStore) -> Result<Evaluation, DatalogError> {
    run(
        program,
        edb_from_store(store),
        None,
        Mode::SemiNaive,
        &Guard::unlimited(),
        None,
    )
}

/// Evaluate naively (for the E6 comparison).
// lint: allow(guard) — naive reference evaluator, kept only as the semi-naive oracle; production paths go through `evaluate_with`
pub fn evaluate_naive(program: &Program, store: &TripleStore) -> Result<Evaluation, DatalogError> {
    run(
        program,
        edb_from_store(store),
        None,
        Mode::Naive,
        &Guard::unlimited(),
        None,
    )
}

/// Evaluate semi-naively under a resource [`Guard`]. Fuel is ticked per
/// fixpoint round and per join candidate; memory is accounted per derived
/// tuple; deadline and cancellation are polled at every round boundary.
/// In partial mode exhaustion yields the facts derived so far with
/// [`Evaluation::truncated`] set; otherwise [`DatalogError::Exhausted`].
pub fn evaluate_with(
    program: &Program,
    store: &TripleStore,
    guard: &Guard,
) -> Result<Evaluation, DatalogError> {
    run(
        program,
        edb_from_store(store),
        None,
        Mode::SemiNaive,
        guard,
        None,
    )
}

/// As [`evaluate_with`], with structured tracing: one [`Phase::Datalog`]
/// span for the whole fixpoint, a child span per round (stratum, round
/// number, delta size, rule evaluations, guard fuel/memory deltas), and a
/// [`Phase::Guard`] instant when the guard stops evaluation.
pub fn evaluate_traced(
    program: &Program,
    store: &TripleStore,
    guard: &Guard,
    tracer: Option<&Tracer>,
) -> Result<Evaluation, DatalogError> {
    let res = run(
        program,
        edb_from_store(store),
        None,
        Mode::SemiNaive,
        guard,
        tracer,
    );
    trace_exhaustion(res, tracer)
}

/// As [`evaluate_traced`], over the cached triple index instead of a
/// store: `edge` literals read the index's runs directly (see the module
/// docs). Same results, guard accounting and trace events; fewer join
/// candidates, since a bound label or destination narrows the scan too.
pub fn evaluate_indexed(
    program: &Program,
    index: &TripleIndex,
    guard: &Guard,
    tracer: Option<&Tracer>,
) -> Result<Evaluation, DatalogError> {
    let (facts, edges) = edb_from_index(program, index);
    let res = run(program, facts, edges, Mode::SemiNaive, guard, tracer);
    trace_exhaustion(res, tracer)
}

/// Emit the [`Phase::Guard`] instant for a run the guard stopped.
fn trace_exhaustion(
    res: Result<Evaluation, DatalogError>,
    tracer: Option<&Tracer>,
) -> Result<Evaluation, DatalogError> {
    if let Err(e) = &res {
        ssd_trace::instant(
            tracer,
            Phase::Guard,
            "exhausted",
            vec![("cause", e.to_string().into())],
        );
    }
    res
}

/// Evaluate over explicit base facts (no store).
pub fn evaluate_with_facts(
    program: &Program,
    base: Facts,
    semi_naive: bool,
) -> Result<Evaluation, DatalogError> {
    evaluate_with_facts_guarded(program, base, semi_naive, &Guard::unlimited())
}

/// As [`evaluate_with_facts`], under a resource [`Guard`].
pub fn evaluate_with_facts_guarded(
    program: &Program,
    base: Facts,
    semi_naive: bool,
    guard: &Guard,
) -> Result<Evaluation, DatalogError> {
    run(
        program,
        base,
        None,
        if semi_naive {
            Mode::SemiNaive
        } else {
            Mode::Naive
        },
        guard,
        None,
    )
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Naive,
    SemiNaive,
}

/// Assign each IDB predicate a stratum such that positive dependencies stay
/// within or below, and negative dependencies come from strictly below.
/// Public so the static analyzer can certify stratifiability without
/// running the program.
pub fn stratify(program: &Program) -> Result<Vec<Vec<&Rule>>, DatalogError> {
    let idb: Vec<&str> = program.idb_predicates();
    let mut stratum: HashMap<&str, usize> = idb.iter().map(|p| (*p, 0)).collect();
    let max_strata = idb.len() + 1;
    // Fixpoint: raise strata until stable (Ullman's algorithm).
    let mut changed = true;
    let mut rounds = 0usize;
    while changed {
        changed = false;
        rounds += 1;
        if rounds > max_strata * program.rules.len().max(1) + 1 {
            // A stratum exceeded the number of predicates: negative cycle.
            let culprit = idb.first().copied().unwrap_or("?").to_owned();
            return Err(DatalogError::NotStratifiable(culprit));
        }
        for rule in &program.rules {
            let head_pred = rule.head.pred.as_str();
            let head_stratum = stratum[head_pred];
            for lit in &rule.body {
                let p = lit.atom.pred.as_str();
                let Some(&body_stratum) = stratum.get(p) else {
                    continue; // EDB predicate
                };
                let required = if lit.positive {
                    body_stratum
                } else {
                    body_stratum + 1
                };
                if required > head_stratum {
                    if required >= max_strata {
                        return Err(DatalogError::NotStratifiable(head_pred.to_owned()));
                    }
                    stratum.insert(head_pred, required);
                    changed = true;
                }
            }
        }
    }
    let top = stratum.values().copied().max().unwrap_or(0);
    let mut strata: Vec<Vec<&Rule>> = vec![Vec::new(); top + 1];
    for rule in &program.rules {
        strata[stratum[rule.head.pred.as_str()]].push(rule);
    }
    Ok(strata)
}

/// The fixpoint loop. `edges`, when set, serves every `edge` literal
/// from the index; otherwise `edge` is a fact set like any other.
fn run(
    program: &Program,
    mut facts: Facts,
    edges: Option<&TripleIndex>,
    mode: Mode,
    guard: &Guard,
    tracer: Option<&Tracer>,
) -> Result<Evaluation, DatalogError> {
    let mut dsp = ssd_trace::span(tracer, Phase::Datalog, "datalog", Some(guard));
    let exh = DatalogError::Exhausted;
    program.check_safety().map_err(DatalogError::Unsafe)?;
    check_arities(program, &facts)?;
    let strata = stratify(program)?;
    let mut iterations = 0usize;
    let mut rule_evaluations = 0usize;
    'strata: for (si, stratum_rules) in strata.iter().enumerate() {
        if stratum_rules.is_empty() {
            continue;
        }
        let recursive_preds: BTreeSet<&str> =
            stratum_rules.iter().map(|r| r.head.pred.as_str()).collect();
        // Initialise deltas with any facts already present for these preds
        // (usually empty).
        let mut delta: Facts = HashMap::new();
        for p in &recursive_preds {
            let existing = facts.get(*p).cloned().unwrap_or_default();
            delta.insert((*p).to_owned(), existing);
        }
        // First full round (naive step) to seed.
        let mut round = 0usize;
        loop {
            iterations += 1;
            let mut round_sp = ssd_trace::span(tracer, Phase::Datalog, "round", Some(guard));
            let rule_evals_before = rule_evaluations;
            // Round boundary: observe deadline/cancellation promptly even
            // when single rounds burn few ticks.
            guard.poll().map_err(exh)?;
            if !(guard.tick(1).map_err(exh)? && guard.fail_point(FP_DATALOG_ROUND).map_err(exh)?) {
                break 'strata;
            }
            let mut new_delta: Facts = HashMap::new();
            for rule in stratum_rules {
                let derived = match mode {
                    Mode::Naive => {
                        rule_evaluations += 1;
                        eval_rule(rule, &facts, edges, None, guard).map_err(exh)?
                    }
                    Mode::SemiNaive => {
                        // One evaluation per occurrence of a recursive
                        // predicate in the body, with that occurrence
                        // restricted to the delta. Rules with no recursive
                        // body literal run only on the first iteration.
                        let rec_positions: Vec<usize> = rule
                            .body
                            .iter()
                            .enumerate()
                            .filter(|(_, l)| {
                                l.positive && recursive_preds.contains(l.atom.pred.as_str())
                            })
                            .map(|(i, _)| i)
                            .collect();
                        if rec_positions.is_empty() {
                            // Non-recursive rules fire once, on the seed round.
                            if round == 0 {
                                rule_evaluations += 1;
                                eval_rule(rule, &facts, edges, None, guard).map_err(exh)?
                            } else {
                                BTreeSet::new()
                            }
                        } else if round == 0 {
                            // Seed round: recursive literals have no prior
                            // delta; run the rule in full once (it typically
                            // finds nothing until base rules populate facts).
                            rule_evaluations += 1;
                            eval_rule(rule, &facts, edges, None, guard).map_err(exh)?
                        } else {
                            let mut out = BTreeSet::new();
                            for &pos in &rec_positions {
                                rule_evaluations += 1;
                                out.extend(
                                    eval_rule(rule, &facts, edges, Some((pos, &delta)), guard)
                                        .map_err(exh)?,
                                );
                            }
                            out
                        }
                    }
                };
                'derive: for tuple in derived {
                    let known = facts
                        .get(rule.head.pred.as_str())
                        .is_some_and(|s| s.contains(&tuple));
                    if !known {
                        if !guard.alloc(TUPLE_COST).map_err(exh)? {
                            break 'derive;
                        }
                        new_delta
                            .entry(rule.head.pred.clone())
                            .or_default()
                            .insert(tuple);
                    }
                }
            }
            // Merge new facts.
            let mut grew = false;
            for (pred, tuples) in &new_delta {
                let entry = facts.entry(pred.clone()).or_default();
                for t in tuples {
                    if entry.insert(t.clone()) {
                        grew = true;
                    }
                }
            }
            if round_sp.enabled() {
                let delta_tuples: usize = new_delta.values().map(BTreeSet::len).sum();
                round_sp.field("stratum", si);
                round_sp.field("round", round);
                round_sp.field("delta", delta_tuples);
                round_sp.field("rule_evals", rule_evaluations - rule_evals_before);
            }
            round_sp.close();
            if mode == Mode::SemiNaive {
                delta = new_delta;
            }
            round += 1;
            if !grew {
                break;
            }
        }
    }
    // Ensure all head predicates exist in the output even if empty — also
    // after a partial-mode stop, so truncated results stay well-formed.
    for stratum_rules in &strata {
        for rule in stratum_rules {
            facts.entry(rule.head.pred.clone()).or_default();
        }
    }
    let truncated = guard.truncation().map(|e| e.headline());
    if let (Some(t), Some(why)) = (tracer, &truncated) {
        t.instant(
            Phase::Guard,
            "truncated",
            vec![("cause", why.as_str().into())],
        );
    }
    if dsp.enabled() {
        dsp.field("iterations", iterations);
        dsp.field("rule_evals", rule_evaluations);
        dsp.field("facts", facts.values().map(BTreeSet::len).sum::<usize>());
    }
    dsp.close();
    Ok(Evaluation {
        facts,
        iterations,
        rule_evaluations,
        truncated,
    })
}

/// Every predicate keeps one arity: its stored facts', else the EDB
/// table's, else that of its first use in the program.
fn check_arities(program: &Program, facts: &Facts) -> Result<(), DatalogError> {
    let mut arity: HashMap<String, usize> = EDB_PREDICATES
        .iter()
        .map(|&(p, a)| (p.to_owned(), a))
        .collect();
    for (p, tuples) in facts {
        if let Some(t) = tuples.iter().next() {
            arity.insert(p.clone(), t.len());
        }
    }
    let check =
        |arity: &mut HashMap<String, usize>, atom: &Atom| match arity.get(atom.pred.as_str()) {
            Some(&a) if a != atom.terms.len() => Err(DatalogError::ArityMismatch {
                pred: atom.pred.clone(),
                expected: a,
                got: atom.terms.len(),
            }),
            Some(_) => Ok(()),
            None => {
                arity.insert(atom.pred.clone(), atom.terms.len());
                Ok(())
            }
        };
    for rule in &program.rules {
        check(&mut arity, &rule.head)?;
        for lit in &rule.body {
            check(&mut arity, &lit.atom)?;
        }
    }
    Ok(())
}

/// Evaluate one rule body against `facts` (and `edges`, when `edge` is
/// read from the index), optionally restricting the positive literal at
/// `delta_at.0` to the delta relation. Returns derived
/// head tuples. Fuel is ticked per join candidate considered; in partial
/// mode exhaustion returns the tuples derivable from the bindings built
/// so far.
fn eval_rule(
    rule: &Rule,
    facts: &Facts,
    edges: Option<&TripleIndex>,
    delta_at: Option<(usize, &Facts)>,
    guard: &Guard,
) -> Result<BTreeSet<Vec<Datum>>, Exhausted> {
    type Binding = HashMap<String, Datum>;
    let empty = BTreeSet::new();
    let mut bindings: Vec<Binding> = vec![HashMap::new()];
    'body: for (i, lit) in rule.body.iter().enumerate() {
        if is_builtin(lit.atom.pred.as_str()) {
            // Builtins filter the current bindings; safety guarantees all
            // their variables are bound.
            bindings.retain(|b| {
                let sat = eval_builtin(&lit.atom, b);
                if lit.positive {
                    sat
                } else {
                    !sat
                }
            });
            if bindings.is_empty() {
                return Ok(BTreeSet::new());
            }
            continue;
        }
        let pred = lit.atom.pred.as_str();
        let source = match (delta_at, edges) {
            (Some((pos, delta)), _) if pos == i => Source::Set(delta.get(pred).unwrap_or(&empty)),
            (_, Some(index)) if pred == "edge" => Source::Index(index),
            _ => Source::Set(facts.get(pred).unwrap_or(&empty)),
        };
        if lit.positive {
            let mut next = Vec::new();
            for b in &bindings {
                for tuple in candidates(source, &lit.atom, b) {
                    if !guard.tick(1)? {
                        bindings = next;
                        break 'body;
                    }
                    if let Some(extended) = try_match(&lit.atom, &tuple, b) {
                        next.push(extended);
                    }
                }
            }
            bindings = next;
        } else {
            // Negation: all variables already bound (safety-checked), so
            // just filter.
            let mut kept = Vec::new();
            for b in bindings {
                if !guard.tick(1)? {
                    bindings = kept;
                    break 'body;
                }
                if !candidates(source, &lit.atom, &b)
                    .any(|tuple| try_match(&lit.atom, &tuple, &b).is_some())
                {
                    kept.push(b);
                }
            }
            bindings = kept;
        }
        if bindings.is_empty() {
            return Ok(BTreeSet::new());
        }
    }
    let mut out = BTreeSet::new();
    'heads: for b in bindings {
        let mut tuple = Vec::with_capacity(rule.head.terms.len());
        for t in &rule.head.terms {
            match t {
                // The safety check guarantees head vars are bound; if that
                // invariant ever breaks, drop the binding rather than panic.
                Term::Var(v) => match b.get(v) {
                    Some(d) => tuple.push(d.clone()),
                    None => continue 'heads,
                },
                Term::Const(d) => tuple.push(d.clone()),
            }
        }
        out.insert(tuple);
    }
    Ok(out)
}

/// Evaluate a builtin comparison over a complete binding. Unbound
/// variables (impossible after the safety check) make the builtin
/// unsatisfied rather than panicking.
fn eval_builtin(atom: &Atom, binding: &HashMap<String, Datum>) -> bool {
    let resolve = |t: &Term| resolved(t, binding).cloned();
    let (Some(a), Some(b)) = (
        atom.terms.first().and_then(&resolve),
        atom.terms.get(1).and_then(&resolve),
    ) else {
        return false;
    };
    use crate::algebra::Datum::*;
    match atom.pred.as_str() {
        "eq" => a == b,
        "neq" => a != b,
        op => match (&a, &b) {
            // Ordered comparisons apply to values only (node ids and
            // symbols have no meaningful order for queries).
            (Label(la), Label(lb)) => match (la.as_value(), lb.as_value()) {
                (Some(va), Some(vb)) => {
                    let ord = va.query_cmp(vb);
                    match op {
                        "lt" => ord == std::cmp::Ordering::Less,
                        "le" => ord != std::cmp::Ordering::Greater,
                        "gt" => ord == std::cmp::Ordering::Greater,
                        "ge" => ord != std::cmp::Ordering::Less,
                        // is_builtin covers exactly the six above; treat
                        // anything else as unsatisfied.
                        _ => false,
                    }
                }
                _ => false,
            },
            _ => false,
        },
    }
}

/// Where a body literal's tuples come from.
#[derive(Clone, Copy)]
enum Source<'s> {
    /// A sorted fact set: an IDB relation, a delta, explicit facts, or a
    /// materialised EDB relation.
    Set(&'s BTreeSet<Vec<Datum>>),
    /// The `edge` relation, read from the triple index's runs.
    Index(&'s TripleIndex),
}

/// The datum `term` stands for under `binding`, if it is resolved
/// (a constant, or a bound variable).
fn resolved<'a>(term: &'a Term, binding: &'a HashMap<String, Datum>) -> Option<&'a Datum> {
    match term {
        Term::Const(d) => Some(d),
        Term::Var(v) => binding.get(v),
    }
}

/// The tuples of `source` worth offering to [`try_match`] for `atom`
/// under `binding`: stored facts are borrowed, index keys decoded as
/// they are offered. Tuples outside the returned range can never match,
/// so candidates (and the fuel ticked per candidate) shrink without
/// changing any result. For `edge(Y, 'References', Z)` with `Y` bound
/// this is the out-adjacency of one node: the difference between linear
/// and quadratic fixpoints on large graphs.
///
/// * A fact set is lexicographically sorted, so the leading run of
///   resolved terms (constants or bound variables) narrows the scan to
///   one range.
/// * The index picks the run whose sort order leads with the resolved
///   positions: SPO when the source is resolved (`range2` with the label
///   too), POS when the label is (`range2` with the destination too),
///   OSP when only the destination is, and all of SPO when none is. A
///   resolved position the index cannot hold (a label missing from the
///   dictionary, a node in the label column or a label in a node
///   column) matches nothing.
fn candidates<'s>(
    source: Source<'s>,
    atom: &Atom,
    binding: &HashMap<String, Datum>,
) -> Box<dyn Iterator<Item = Cow<'s, [Datum]>> + 's> {
    let index = match source {
        Source::Set(set) => {
            let prefix: Vec<Datum> = atom
                .terms
                .iter()
                .map_while(|t| resolved(t, binding).cloned())
                .collect();
            let stored = |t: &'s Vec<Datum>| Cow::Borrowed(t.as_slice());
            return if prefix.is_empty() {
                Box::new(set.iter().map(stored))
            } else {
                Box::new(
                    set.range(prefix.clone()..)
                        .take_while(move |t| t.starts_with(&prefix))
                        .map(stored),
                )
            };
        }
        Source::Index(index) => index,
    };
    let [ts, tp, to] = atom.terms.as_slice() else {
        return Box::new(std::iter::empty());
    };
    // `None`: free. `Some(None)`: resolved, but absent from the index.
    let node = |t: &Term| resolved(t, binding).map(|d| d.as_node().map(|n| n.index() as u32));
    let label =
        |t: &Term| resolved(t, binding).map(|d| d.as_label().and_then(|l| index.label_id(l)));
    let (s, p, o) = (node(ts), label(tp), node(to));
    if [s, p, o].contains(&Some(None)) {
        return Box::new(std::iter::empty());
    }
    let (keys, to_spo): (&'s [Key], fn(&Key) -> Key) = match (s.flatten(), p.flatten(), o.flatten())
    {
        (Some(s), Some(p), _) => (index.spo().range2(s, p), |k| *k),
        (Some(s), None, _) => (index.spo().range1(s), |k| *k),
        (None, Some(p), Some(o)) => (index.pos().range2(p, o), |&[p, o, s]| [s, p, o]),
        (None, Some(p), None) => (index.pos().range1(p), |&[p, o, s]| [s, p, o]),
        (None, None, Some(o)) => (index.osp().range1(o), |&[o, s, p]| [s, p, o]),
        (None, None, None) => (index.spo().as_slice(), |k| *k),
    };
    Box::new(
        keys.iter()
            .filter_map(move |k| decode(index, to_spo(k)).map(Cow::Owned)),
    )
}

fn try_match(
    atom: &Atom,
    tuple: &[Datum],
    binding: &HashMap<String, Datum>,
) -> Option<HashMap<String, Datum>> {
    if atom.terms.len() != tuple.len() {
        return None;
    }
    let mut out = binding.clone();
    for (term, datum) in atom.terms.iter().zip(tuple) {
        match term {
            Term::Const(c) => {
                if c != datum {
                    return None;
                }
            }
            Term::Var(v) => match out.get(v) {
                Some(bound) if bound != datum => return None,
                Some(_) => {}
                None => {
                    out.insert(v.clone(), datum.clone());
                }
            },
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::ast::parse_program;
    use ssd_graph::literal::parse_graph;
    use ssd_graph::Graph;

    fn chain(n: usize) -> Graph {
        // root -a-> n1 -a-> n2 ... linear chain of n edges.
        let mut g = Graph::new();
        let mut cur = g.root();
        for _ in 0..n {
            let next = g.add_node();
            g.add_sym_edge(cur, "a", next);
            cur = next;
        }
        g
    }

    fn tc_program(g: &Graph) -> Program {
        parse_program(
            "path(X, Y) :- edge(X, _L, Y).\n\
             path(X, Y) :- edge(X, _L, Z), path(Z, Y).",
            g.symbols(),
        )
        .unwrap()
    }

    #[test]
    fn transitive_closure_on_chain() {
        let g = chain(5);
        let store = TripleStore::from_graph(&g);
        let eval = evaluate(&tc_program(&g), &store).unwrap();
        // n*(n+1)/2 pairs for a 5-edge chain: 15.
        assert_eq!(eval.count("path"), 15);
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let g = parse_graph("{a: @x = {f: {g: @x}}, b: {f: {h: 1}}}").unwrap();
        let store = TripleStore::from_graph(&g);
        let p = tc_program(&g);
        let semi = evaluate(&p, &store).unwrap();
        let naive = evaluate_naive(&p, &store).unwrap();
        assert_eq!(semi.facts.get("path"), naive.facts.get("path"));
        assert!(semi.count("path") > 0);
    }

    #[test]
    fn semi_naive_does_less_work_on_long_chains() {
        let g = chain(30);
        let store = TripleStore::from_graph(&g);
        let p = tc_program(&g);
        let semi = evaluate(&p, &store).unwrap();
        let naive = evaluate_naive(&p, &store).unwrap();
        assert_eq!(semi.count("path"), naive.count("path"));
        // Work measure: naive re-derives everything each round.
        // Count derived-tuple work via rule_evaluations * average relation
        // size is implicit; here we just require semi-naive to not exceed
        // naive in iterations and to have produced the same result.
        assert!(semi.iterations <= naive.iterations + 1);
    }

    #[test]
    fn cycle_reachability_terminates() {
        let g = parse_graph("@x = {next: @x}").unwrap();
        let store = TripleStore::from_graph(&g);
        let eval = evaluate(&tc_program(&g), &store).unwrap();
        assert_eq!(eval.count("path"), 1); // (root, root)
    }

    #[test]
    fn label_constants_filter_edges() {
        let g = parse_graph("{a: {x: 1}, b: {x: 2}}").unwrap();
        let p = parse_program("hit(Y) :- edge(_X, a, Y).", g.symbols()).unwrap();
        let store = TripleStore::from_graph(&g);
        let eval = evaluate(&p, &store).unwrap();
        assert_eq!(eval.count("hit"), 1);
    }

    #[test]
    fn stratified_negation() {
        // Nodes not reachable from the root via `a` edges.
        let g = parse_graph("{a: {a: {}}, b: {c: {}}}").unwrap();
        let p = parse_program(
            "reach(X) :- root(X).\n\
             reach(Y) :- reach(X), edge(X, a, Y).\n\
             unreached(X) :- node(X), not reach(X).",
            g.symbols(),
        )
        .unwrap();
        let store = TripleStore::from_graph(&g);
        let eval = evaluate(&p, &store).unwrap();
        // Reachable via a-edges: root, its a-child, grandchild = 3 nodes.
        assert_eq!(eval.count("reach"), 3);
        assert_eq!(
            eval.count("unreached") + eval.count("reach"),
            eval.count("node")
        );
        assert!(eval.count("unreached") > 0);
    }

    #[test]
    fn non_stratifiable_rejected() {
        let g = Graph::new();
        let p = parse_program(
            "p(X) :- node(X), not q(X).\n\
             q(X) :- node(X), not p(X).",
            g.symbols(),
        )
        .unwrap();
        let store = TripleStore::from_graph(&g);
        assert!(matches!(
            evaluate(&p, &store),
            Err(DatalogError::NotStratifiable(_))
        ));
    }

    #[test]
    fn unsafe_program_rejected() {
        let g = Graph::new();
        let p = parse_program("q(X, Y) :- node(X).", g.symbols()).unwrap();
        let store = TripleStore::from_graph(&g);
        assert!(matches!(evaluate(&p, &store), Err(DatalogError::Unsafe(_))));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let g = chain(1);
        let p = parse_program("q(X) :- edge(X, _Y).", g.symbols()).unwrap();
        let store = TripleStore::from_graph(&g);
        assert!(matches!(
            evaluate(&p, &store),
            Err(DatalogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn facts_in_program_text() {
        let g = Graph::new();
        let p = parse_program(
            "likes(\"ann\", \"bob\").\nlikes(\"bob\", \"cy\").\n\
             knows(X, Y) :- likes(X, Y).\n\
             knows(X, Y) :- likes(X, Z), knows(Z, Y).",
            g.symbols(),
        )
        .unwrap();
        let store = TripleStore::from_graph(&g);
        let eval = evaluate(&p, &store).unwrap();
        assert_eq!(eval.count("knows"), 3);
    }

    #[test]
    fn same_generation_query() {
        // A small binary tree; same-generation is the classic recursive
        // non-transitive-closure query.
        let g = parse_graph("{l: {l: {}, r: {}}, r: {l: {}, r: {}}}").unwrap();
        let p = parse_program(
            "sg(X, X) :- node(X).\n\
             sg(X, Y) :- edge(P, _L1, X), edge(Q, _L2, Y), sg(P, Q).",
            g.symbols(),
        )
        .unwrap();
        let store = TripleStore::from_graph(&g);
        let eval = evaluate(&p, &store).unwrap();
        // Generations: 1 root, 2 mid, 4 leaves → 1 + 4 + 16 = 21 pairs.
        assert_eq!(eval.count("sg"), 21);
    }

    #[test]
    fn idb_predicates_present_even_when_empty() {
        let g = Graph::new();
        let p = parse_program("q(X) :- edge(X, _L, _Y).", g.symbols()).unwrap();
        let store = TripleStore::from_graph(&g);
        let eval = evaluate(&p, &store).unwrap();
        assert_eq!(eval.count("q"), 0);
        assert!(eval.facts.contains_key("q"));
    }
}

#[cfg(test)]
mod builtin_tests {
    use super::*;
    use crate::datalog::ast::parse_program;
    use ssd_graph::literal::parse_graph;

    #[test]
    fn lt_filters_values() {
        let g = parse_graph("{m: {Year: 1942}, m: {Year: 1972}, m: {Year: 1977}}").unwrap();
        let p = parse_program(
            "old(M) :- edge(_R, m, M), edge(M, 'Year', Y), edge(Y, V, _L), lt(V, 1970).",
            g.symbols(),
        )
        .unwrap();
        let store = crate::store::TripleStore::from_graph(&g);
        let eval = evaluate(&p, &store).unwrap();
        assert_eq!(eval.count("old"), 1);
    }

    #[test]
    fn neq_works_on_nodes() {
        // Pairs of distinct movie nodes.
        let g = parse_graph("{m: {}, m: {}}").unwrap();
        let p = parse_program(
            "pair(X, Y) :- edge(_R, m, X), edge(_S, m, Y), neq(X, Y).",
            g.symbols(),
        )
        .unwrap();
        let store = crate::store::TripleStore::from_graph(&g);
        let eval = evaluate(&p, &store).unwrap();
        assert_eq!(eval.count("pair"), 2); // (a,b) and (b,a)
    }

    #[test]
    fn ge_with_mixed_numeric_kinds() {
        let g = parse_graph("{x: 2, y: 2.5}").unwrap();
        let p = parse_program("big(V) :- edge(_N, V, _L), ge(V, 2.5).", g.symbols()).unwrap();
        let store = crate::store::TripleStore::from_graph(&g);
        let eval = evaluate(&p, &store).unwrap();
        assert_eq!(eval.count("big"), 1);
    }

    #[test]
    fn unbound_builtin_var_rejected() {
        let g = parse_graph("{}").unwrap();
        let p = parse_program("q(X) :- node(X), lt(Y, 5).", g.symbols()).unwrap();
        let store = crate::store::TripleStore::from_graph(&g);
        assert!(matches!(evaluate(&p, &store), Err(DatalogError::Unsafe(_))));
    }

    #[test]
    fn builtin_head_rejected() {
        let g = parse_graph("{}").unwrap();
        let p = parse_program("lt(X, X) :- node(X).", g.symbols()).unwrap();
        let store = crate::store::TripleStore::from_graph(&g);
        assert!(matches!(evaluate(&p, &store), Err(DatalogError::Unsafe(_))));
    }

    #[test]
    fn builtin_wrong_arity_rejected() {
        let g = parse_graph("{}").unwrap();
        let p = parse_program("q(X) :- node(X), lt(X).", g.symbols()).unwrap();
        let store = crate::store::TripleStore::from_graph(&g);
        assert!(matches!(evaluate(&p, &store), Err(DatalogError::Unsafe(_))));
    }

    #[test]
    fn negated_builtin() {
        let g = parse_graph("{x: 1, y: 3}").unwrap();
        // ge(V, 0) first restricts V to numeric labels (symbols never
        // satisfy ordered builtins), then the negated gt filters.
        let p = parse_program(
            "small(V) :- edge(_N, V, _L), ge(V, 0), not gt(V, 2).",
            g.symbols(),
        )
        .unwrap();
        let store = crate::store::TripleStore::from_graph(&g);
        let eval = evaluate(&p, &store).unwrap();
        assert_eq!(eval.count("small"), 1);
    }

    #[test]
    fn recursive_rule_with_builtin_bound() {
        // Bounded reachability: count edges with int labels below a cap —
        // builtins inside recursion still converge.
        let g = parse_graph("@x = {1: {2: {3: @x}}}").unwrap();
        let p = parse_program(
            "r(X) :- root(X).\n\
             r(Y) :- r(X), edge(X, L, Y), lt(L, 3).",
            g.symbols(),
        )
        .unwrap();
        let store = crate::store::TripleStore::from_graph(&g);
        let eval = evaluate(&p, &store).unwrap();
        assert_eq!(eval.count("r"), 3); // root, after 1, after 2 (not past 3)
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use crate::datalog::ast::parse_program;
    use ssd_graph::literal::parse_graph;
    use ssd_graph::Graph;
    use ssd_guard::Budget;

    /// Run `program` on `graph` over the index and over the store, each
    /// under an active guard; return both evaluations and their fuel.
    fn both(graph: &str, program: &str) -> ((Evaluation, u64), (Evaluation, u64)) {
        let g = parse_graph(graph).unwrap();
        let p = parse_program(program, g.symbols()).unwrap();
        let index = TripleIndex::build(&g).unwrap();
        let store = TripleStore::from_graph(&g);
        let run = |indexed: bool| {
            let guard = Budget::unlimited().max_steps(u64::MAX / 4).guard();
            let eval = if indexed {
                evaluate_indexed(&p, &index, &guard, None)
            } else {
                evaluate_with(&p, &store, &guard)
            };
            (eval.unwrap(), guard.steps_used())
        };
        (run(true), run(false))
    }

    const GRAPH: &str = "{a: {x: 1, y: 2}, b: {x: 3}, a: {z: {x: 4}}}";

    #[test]
    fn constant_label_scans_one_pos_range() {
        let ((ix, ix_fuel), (st, st_fuel)) = both(GRAPH, "hit(Y) :- edge(_X, x, Y).");
        assert_eq!(ix.facts.get("hit"), st.facts.get("hit"));
        assert_eq!(ix.count("hit"), 3);
        // Seed round: one round tick plus the three `x` edges; the
        // second round (nothing recursive) is one more tick.
        assert_eq!(ix_fuel, 1 + 3 + 1);
        assert!(st_fuel > ix_fuel, "the store scans every edge");
    }

    #[test]
    fn absent_label_yields_nothing_without_scanning() {
        let ((ix, ix_fuel), (st, _)) = both(GRAPH, "hit(Y) :- edge(_X, nope, Y).");
        assert_eq!(ix.count("hit"), 0);
        assert_eq!(ix.facts.get("hit"), st.facts.get("hit"));
        assert_eq!(ix_fuel, 1, "one round tick, no candidates");
    }

    #[test]
    fn edge_stays_in_the_index_and_node_only_when_mentioned() {
        let ((ix, _), _) = both(GRAPH, "hit(Y) :- edge(_X, x, Y).");
        let mut preds: Vec<&String> = ix.facts.keys().collect();
        preds.sort();
        assert_eq!(preds, ["hit", "root"]);
        let ((ix, _), (st, _)) = both(
            GRAPH,
            "out(X) :- edge(X, _L, _Y).\nleaf(X) :- node(X), not out(X).",
        );
        assert_eq!(ix.facts.get("node"), st.facts.get("node"));
        assert_eq!(ix.facts.get("leaf"), st.facts.get("leaf"));
        assert!(!ix.facts.contains_key("edge"));
    }

    #[test]
    fn a_program_deriving_edge_extends_the_stored_relation() {
        let ((ix, _), (st, _)) = both(
            GRAPH,
            "edge(X, self, X) :- root(X).\nhit(Y) :- edge(_X, self, Y).",
        );
        assert_eq!(ix.facts.get("edge"), st.facts.get("edge"));
        assert_eq!(ix.facts.get("hit"), st.facts.get("hit"));
        assert_eq!(ix.count("hit"), 1);
    }

    #[test]
    fn edb_arities_hold_even_on_an_empty_graph() {
        let g = Graph::new();
        let p = parse_program("q(X) :- edge(X, _Y).", g.symbols()).unwrap();
        let index = TripleIndex::build(&g).unwrap();
        assert!(matches!(
            evaluate_indexed(&p, &index, &Guard::unlimited(), None),
            Err(DatalogError::ArityMismatch { .. })
        ));
    }
}
