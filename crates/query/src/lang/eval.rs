//! Evaluation of select-from-where queries.
//!
//! Semantics (UnQL's select fragment): the bindings enumerate assignments
//! by nested-loop joins of RPE matches; for each assignment that satisfies
//! the `where` clause, the constructor is evaluated to a tree; the query
//! result is the *set union* of those trees (union of their top-level edge
//! sets), so `select T ...` with T bound to title nodes yields the set of
//! all title values.
//!
//! Options toggle the optimizer behaviours benchmarked in E10:
//! condition pushdown (evaluate each conjunct as soon as its variables are
//! bound — §4's "extensions of existing techniques for optimization") and
//! DataGuide pruning (\[20\]: skip bindings whose path provably matches
//! nothing).

use super::ast::{CmpOp, Cond, Construct, Expr, LabelExpr, SelectQuery, Source};
use crate::rpe::eval::{eval_nfa_guarded, eval_rpe_guarded};
use crate::rpe::{Nfa, Rpe};
use ssd_diag::{Code, Diagnostic};
use ssd_graph::ops::copy_subgraph;
use ssd_graph::{Edge, Graph, Label, LabelKind, NodeId, Value};
use ssd_guard::{Exhausted, Guard};
use ssd_schema::DataGuide;
use ssd_trace::{Phase, Tracer};
use std::collections::HashMap;

/// Fault-injection seam: hit once per binding evaluated by the
/// nested-loop enumerator.
pub const FP_SELECT_BINDING: &str = "select.binding";

/// Approximate bytes one constructed result tree costs. Public so the
/// static cost analysis charges the same unit it measures.
pub const CONSTRUCT_COST: u64 = 128;

/// Exhaustion flows through the evaluator's existing `Result<_, String>`
/// error channel as a rendered headline, exactly like the analyzer gate's
/// SSD0xx refusals.
pub(crate) fn exh(e: Exhausted) -> String {
    e.headline()
}

/// A bound value: a tree node or an edge label.
#[derive(Debug, Clone, PartialEq)]
pub enum BindVal {
    Tree(NodeId),
    Label(Label),
}

/// Evaluation options (the optimizer's knobs).
#[derive(Default)]
pub struct EvalOptions<'a> {
    /// Evaluate conjuncts of the `where` clause as soon as their variables
    /// are bound instead of after all bindings.
    pub pushdown: bool,
    /// Simplify RPEs algebraically before compiling.
    pub simplify_rpe: bool,
    /// Answer db-rooted bindings *from* a DataGuide. This is exact, not
    /// just a pruning heuristic: a data node is reached by some word of
    /// the path language iff a guide node holding it in its target set is
    /// reached by the same word, so evaluating the RPE over the (smaller,
    /// deterministic) guide and unioning target sets returns precisely
    /// the data matches — the path-index payoff of §4/\[22\].
    pub guide: Option<&'a DataGuide>,
    /// Resource guard enforced during evaluation (`None` = unlimited).
    pub guard: Option<&'a Guard>,
    /// Structured-event destination (`None` = tracing disabled; the only
    /// cost left is the `Option` branch at each instrumentation point).
    pub tracer: Option<&'a Tracer>,
}

impl<'a> EvalOptions<'a> {
    /// Everything on.
    pub fn optimized(guide: Option<&'a DataGuide>) -> EvalOptions<'a> {
        EvalOptions {
            pushdown: true,
            simplify_rpe: true,
            guide,
            guard: None,
            tracer: None,
        }
    }

    /// The same options with a resource guard attached.
    #[must_use]
    pub fn with_guard(mut self, guard: &'a Guard) -> EvalOptions<'a> {
        self.guard = Some(guard);
        self
    }

    /// The same options with a tracer attached.
    #[must_use]
    pub fn with_tracer(mut self, tracer: &'a Tracer) -> EvalOptions<'a> {
        self.tracer = Some(tracer);
        self
    }
}

/// Statistics from one evaluation.
#[derive(Debug, Default, Clone)]
pub struct EvalStats {
    /// Assignments that reached the construct stage.
    pub results_constructed: usize,
    /// Assignments enumerated (tuples tried).
    pub assignments_tried: usize,
    /// Bindings skipped by guide pruning.
    pub guide_pruned: usize,
    /// RPE evaluations performed.
    pub rpe_evals: usize,
    /// Analyzer warnings surfaced by the pre-evaluation gate (headline
    /// form). Errors refuse evaluation instead of landing here.
    pub warnings: Vec<String>,
    /// Set when partial-results mode stopped evaluation early: the
    /// headline of the exhaustion that caused the truncation. The result
    /// graph is still well-formed, just incomplete.
    pub truncated: Option<String>,
    /// Per-binding actuals (one entry per query binding, in binding
    /// order) — the dynamic counterpart of the static per-binding cost
    /// intervals, and what `explain --analyze` prints next to them.
    pub per_binding: Vec<BindingProfile>,
}

/// Actuals accumulated for one binding while the nested-loop enumerator
/// runs.
#[derive(Debug, Default, Clone)]
pub struct BindingProfile {
    /// Variable the binding introduces.
    pub var: String,
    /// The binding's path expression, display form.
    pub path: String,
    /// Times the binding's RPE was (re-)evaluated, once per enclosing
    /// assignment prefix.
    pub tried: u64,
    /// Matches produced across all evaluations.
    pub matched: u64,
    /// Guard fuel consumed computing this binding's matches (0 when the
    /// guard is inactive).
    pub fuel: u64,
}

/// Evaluate `query` against `g`, returning the result graph (rooted at the
/// union of all constructed trees) and statistics.
///
/// Evaluation is gated on the static analyzer
/// ([`crate::analyze::analyze_query`]): error diagnostics refuse to run
/// (their error set coincides with [`SelectQuery::validate`]'s rejection
/// set, so nothing that used to evaluate is newly rejected); warnings are
/// collected into [`EvalStats::warnings`].
pub fn evaluate_select(
    g: &Graph,
    query: &SelectQuery,
    opts: &EvalOptions<'_>,
) -> Result<(Graph, EvalStats), String> {
    let unlimited = Guard::unlimited();
    let guard = opts.guard.unwrap_or(&unlimited);
    let mut sp = ssd_trace::span(opts.tracer, Phase::Eval, "select", Some(guard));
    let analysis = {
        let _a = ssd_trace::span(opts.tracer, Phase::Analyze, "analyze", Some(guard));
        crate::analyze::analyze_query(query, None, None)
    };
    if analysis.has_errors() {
        let errors: Vec<String> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.is_error())
            .map(|d| d.headline())
            .collect();
        return Err(errors.join("; "));
    }
    let mut result = ResultBuilder::new(g);
    let mut stats = EvalStats {
        warnings: analysis
            .diagnostics
            .iter()
            .filter(|d| !d.is_error())
            .map(|d| d.headline())
            .collect(),
        per_binding: binding_profiles(query),
        ..EvalStats::default()
    };

    // Precompile binding paths.
    let compiled: Vec<(Option<(Rpe, crate::rpe::ast::Step)>, Nfa)> = query
        .bindings
        .iter()
        .map(|b| {
            let path = if opts.simplify_rpe {
                b.path.simplify()
            } else {
                b.path.clone()
            };
            let split = path.split_trailing_label_var();
            let nfa = match &split {
                Some((prefix, _)) => Nfa::compile(prefix),
                None => Nfa::compile(&path),
            };
            (split, nfa)
        })
        .collect();

    // Guide pruning: a db-rooted binding whose path matches nothing in the
    // guide matches nothing in the data.
    if let Some(guide) = opts.guide {
        for (i, b) in query.bindings.iter().enumerate() {
            if b.source == Source::Db {
                let path = if opts.simplify_rpe {
                    b.path.simplify()
                } else {
                    b.path.clone()
                };
                let probe = match path.split_trailing_label_var() {
                    Some((prefix, step)) => {
                        // The prefix must be non-empty somewhere, and the
                        // final step must match some guide edge.
                        let mids =
                            eval_rpe_guarded(guide.graph(), guide.graph().root(), &prefix, guard)
                                .map_err(exh)?;
                        mids.iter().any(|&m| {
                            guide
                                .graph()
                                .edges(m)
                                .iter()
                                .any(|e| step.matches(&e.label, guide.graph().symbols()))
                        })
                    }
                    None => !eval_rpe_guarded(guide.graph(), guide.graph().root(), &path, guard)
                        .map_err(exh)?
                        .is_empty(),
                };
                if !probe {
                    stats.guide_pruned += 1;
                    let _ = i;
                    // Empty result.
                    return Ok((result.finish(), stats));
                }
            }
        }
    }

    // Conjuncts for pushdown, each tagged with its variable set.
    let conjuncts: Vec<&Cond> = query
        .condition
        .as_ref()
        .map(|c| c.conjuncts())
        .unwrap_or_default();
    // For pushdown: the earliest binding index after which each conjunct is
    // fully bound.
    let bound_after: Vec<usize> = conjuncts
        .iter()
        .map(|c| {
            let vars = c.vars();
            let mut idx = 0;
            for (i, b) in query.bindings.iter().enumerate() {
                let binds_here = vars.contains(b.var.as_str())
                    || b.path.label_vars().iter().any(|lv| vars.contains(lv));
                if binds_here {
                    idx = i + 1;
                }
            }
            idx.max(1)
        })
        .collect();

    let mut env: HashMap<String, BindVal> = HashMap::new();
    let outcome = enumerate(
        g,
        query,
        &compiled,
        &conjuncts,
        &bound_after,
        opts,
        guard,
        0,
        &mut env,
        &mut result,
        &mut stats,
    );
    if let Err(why) = &outcome {
        ssd_trace::instant(
            opts.tracer,
            Phase::Guard,
            "exhausted",
            vec![("cause", why.clone().into())],
        );
    }
    outcome?;
    let result = result.finish();
    note_truncation(guard, &mut stats);
    finish_select_trace(opts.tracer, &mut sp, &stats);
    Ok((result, stats))
}

/// Shared per-binding initialisation: one zeroed profile per binding, in
/// binding order, so `explain --analyze` lines up with the static
/// per-binding intervals.
pub(crate) fn binding_profiles(query: &SelectQuery) -> Vec<BindingProfile> {
    query
        .bindings
        .iter()
        .map(|b| BindingProfile {
            var: b.var.clone(),
            path: b.path.to_string(),
            ..BindingProfile::default()
        })
        .collect()
}

/// Trace epilogue shared by [`evaluate_select`] and
/// [`evaluate_select_seeded`]: one child span per binding carrying its
/// accumulated actuals (fuel attributed so folded stacks weigh the
/// bindings correctly), a truncation instant when partial mode stopped
/// early, and summary fields on the enclosing select span.
pub(crate) fn finish_select_trace(
    tracer: Option<&Tracer>,
    sp: &mut ssd_trace::Span<'_>,
    stats: &EvalStats,
) {
    let Some(t) = tracer else { return };
    if let Some(why) = &stats.truncated {
        t.instant(
            Phase::Guard,
            "truncated",
            vec![("cause", why.as_str().into())],
        );
    }
    for bp in &stats.per_binding {
        let id = t.open_detached(
            Phase::Eval,
            "binding",
            sp.id(),
            vec![
                ("var", bp.var.as_str().into()),
                ("path", bp.path.as_str().into()),
            ],
        );
        t.close_detached(
            id,
            Phase::Eval,
            "binding",
            bp.fuel,
            0,
            vec![
                ("var", bp.var.as_str().into()),
                ("tried", bp.tried.into()),
                ("matched", bp.matched.into()),
            ],
        );
    }
    sp.field("results", stats.results_constructed);
    sp.field("assignments", stats.assignments_tried);
    sp.field("rpe_evals", stats.rpe_evals);
    sp.field("guide_pruned", stats.guide_pruned);
}

/// In partial mode, surface the guard's recorded truncation as an SSD107
/// warning plus [`EvalStats::truncated`].
pub(crate) fn note_truncation(guard: &Guard, stats: &mut EvalStats) {
    if let Some(why) = guard.truncation() {
        stats.truncated = Some(why.headline());
        stats.warnings.push(
            Diagnostic::new(
                Code::TruncatedResult,
                format!("result truncated: {}", why.message()),
            )
            .headline(),
        );
    }
}

/// Evaluate `query` with its *first* binding's variable pre-bound to
/// `node` (and its label variable, if any, to `label`): the residual
/// sub-query of \[35\]-style query decomposition
/// ([`crate::decompose::evaluate_select_parallel`]). The first binding's
/// path is NOT re-evaluated; `node`/`label` must come from a prior
/// evaluation of it.
pub fn evaluate_select_seeded(
    g: &Graph,
    query: &SelectQuery,
    node: NodeId,
    label: Option<Label>,
    opts: &EvalOptions<'_>,
) -> Result<(Graph, EvalStats), String> {
    query.validate()?;
    if query.bindings.is_empty() {
        return Err("seeded evaluation requires at least one binding".into());
    }
    let unlimited = Guard::unlimited();
    let guard = opts.guard.unwrap_or(&unlimited);
    let mut sp = ssd_trace::span(opts.tracer, Phase::Eval, "select.seeded", Some(guard));
    let mut result = ResultBuilder::new(g);
    let mut stats = EvalStats {
        per_binding: binding_profiles(query),
        ..EvalStats::default()
    };
    let compiled: Vec<(Option<(Rpe, crate::rpe::ast::Step)>, Nfa)> = query
        .bindings
        .iter()
        .map(|b| {
            let path = if opts.simplify_rpe {
                b.path.simplify()
            } else {
                b.path.clone()
            };
            let split = path.split_trailing_label_var();
            let nfa = match &split {
                Some((prefix, _)) => Nfa::compile(prefix),
                None => Nfa::compile(&path),
            };
            (split, nfa)
        })
        .collect();
    let conjuncts: Vec<&Cond> = query
        .condition
        .as_ref()
        .map(|c| c.conjuncts())
        .unwrap_or_default();
    let bound_after: Vec<usize> = conjuncts
        .iter()
        .map(|c| {
            let vars = c.vars();
            let mut idx = 0;
            for (i, b) in query.bindings.iter().enumerate() {
                let binds_here = vars.contains(b.var.as_str())
                    || b.path.label_vars().iter().any(|lv| vars.contains(lv));
                if binds_here {
                    idx = i + 1;
                }
            }
            idx.max(1)
        })
        .collect();
    let mut env: HashMap<String, BindVal> = HashMap::new();
    env.insert(query.bindings[0].var.clone(), BindVal::Tree(node));
    if let (Some(lv), Some(l)) = (query.bindings[0].path.label_vars().first(), label) {
        env.insert((*lv).to_string(), BindVal::Label(l));
    }
    // Conjuncts bound by binding 0 are checked up front under pushdown.
    if opts.pushdown {
        for (ci, c) in conjuncts.iter().enumerate() {
            if bound_after[ci] == 1 && !eval_cond(g, c, &env, guard, &mut stats)? {
                return Ok((result.finish(), stats));
            }
        }
    }
    let outcome = enumerate(
        g,
        query,
        &compiled,
        &conjuncts,
        &bound_after,
        opts,
        guard,
        1, // skip binding 0: it is seeded
        &mut env,
        &mut result,
        &mut stats,
    );
    if let Err(why) = &outcome {
        ssd_trace::instant(
            opts.tracer,
            Phase::Guard,
            "exhausted",
            vec![("cause", why.clone().into())],
        );
    }
    outcome?;
    let result = result.finish();
    note_truncation(guard, &mut stats);
    finish_select_trace(opts.tracer, &mut sp, &stats);
    Ok((result, stats))
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    g: &Graph,
    query: &SelectQuery,
    compiled: &[(Option<(Rpe, crate::rpe::ast::Step)>, Nfa)],
    conjuncts: &[&Cond],
    bound_after: &[usize],
    opts: &EvalOptions<'_>,
    guard: &Guard,
    depth: usize,
    env: &mut HashMap<String, BindVal>,
    result: &mut ResultBuilder,
    stats: &mut EvalStats,
) -> Result<(), String> {
    if !(guard.tick(1).map_err(exh)? && guard.enter_depth(depth).map_err(exh)?) {
        return Ok(());
    }
    if depth == query.bindings.len() {
        stats.assignments_tried += 1;
        // Residual conditions (all, if no pushdown; none, if pushdown got
        // them all).
        if !opts.pushdown {
            for c in conjuncts {
                if !eval_cond(g, c, env, guard, stats)? {
                    return Ok(());
                }
            }
        }
        if !guard.alloc(CONSTRUCT_COST).map_err(exh)? {
            return Ok(());
        }
        stats.results_constructed += 1;
        result.add_row(g, &query.construct, env)?;
        return Ok(());
    }
    if !guard.fail_point(FP_SELECT_BINDING).map_err(exh)? {
        return Ok(());
    }
    let binding = &query.bindings[depth];
    let start = match &binding.source {
        Source::Db => g.root(),
        Source::Var(v) => match env.get(v) {
            Some(BindVal::Tree(n)) => *n,
            Some(BindVal::Label(_)) => {
                return Err(format!("binding source {v} is a label, not a tree"))
            }
            None => return Err(format!("unbound source variable {v}")),
        },
    };
    let (split, nfa) = &compiled[depth];
    stats.rpe_evals += 1;
    let fuel_before = guard.steps_used();
    // Guide-exact evaluation: a db-rooted RPE can be answered entirely
    // from the DataGuide (see `EvalOptions::guide`).
    let guide_mids: Option<Vec<NodeId>> = match (&binding.source, opts.guide) {
        (Source::Db, Some(guide)) => {
            let guide_nodes =
                eval_nfa_guarded(guide.graph(), guide.graph().root(), nfa, guard).map_err(exh)?;
            let mut mids: Vec<NodeId> = guide_nodes
                .into_iter()
                .flat_map(|gn| guide.targets(gn).iter().copied())
                .collect();
            mids.sort_unstable();
            mids.dedup();
            Some(mids)
        }
        _ => None,
    };
    let matches: Vec<(Option<Label>, NodeId)> = match split {
        Some((_, step)) => {
            let mids = match guide_mids {
                Some(m) => m,
                None => eval_nfa_guarded(g, start, nfa, guard).map_err(exh)?,
            };
            let mut out = Vec::new();
            'scan: for mid in mids {
                for e in g.edges(mid) {
                    if !guard.tick(1).map_err(exh)? {
                        break 'scan;
                    }
                    if step.matches(&e.label, g.symbols()) {
                        out.push((Some(e.label.clone()), e.to));
                    }
                }
            }
            out.sort();
            out.dedup();
            out
        }
        None => match guide_mids {
            Some(m) => m.into_iter().map(|n| (None, n)).collect(),
            None => eval_nfa_guarded(g, start, nfa, guard)
                .map_err(exh)?
                .into_iter()
                .map(|n| (None, n))
                .collect(),
        },
    };
    if let Some(bp) = stats.per_binding.get_mut(depth) {
        bp.tried += 1;
        bp.matched += matches.len() as u64;
        bp.fuel += guard.steps_used().saturating_sub(fuel_before);
    }
    let label_var = binding.path.label_vars().first().map(|s| s.to_string());
    for (label, node) in matches {
        env.insert(binding.var.clone(), BindVal::Tree(node));
        if let (Some(lv), Some(l)) = (&label_var, &label) {
            env.insert(lv.clone(), BindVal::Label(l.clone()));
        }
        // Pushdown: check all conjuncts that became fully bound here.
        let mut ok = true;
        if opts.pushdown {
            for (ci, c) in conjuncts.iter().enumerate() {
                if bound_after[ci] == depth + 1 && !eval_cond(g, c, env, guard, stats)? {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            enumerate(
                g,
                query,
                compiled,
                conjuncts,
                bound_after,
                opts,
                guard,
                depth + 1,
                env,
                result,
                stats,
            )?;
        }
        env.remove(&binding.var);
        if let Some(lv) = &label_var {
            env.remove(lv);
        }
    }
    Ok(())
}

/// A select result under construction, shared by both engines. Each
/// row's top-level edges are queued and inserted into the root once, in
/// [`ResultBuilder::finish`]: one hashed dedup over all rows instead of a
/// scan of the growing root per row.
pub(crate) struct ResultBuilder {
    graph: Graph,
    /// One shared leaf for all constructed atoms: equal atoms then
    /// produce identical (label, node) edges, which the edge-set union
    /// dedupes — matching the model's set semantics.
    atom_leaf: NodeId,
    /// Data node → its copy in `graph`, so repeated references to one
    /// data subtree share structure across rows.
    copy_memo: HashMap<NodeId, NodeId>,
    /// Top-level edges of the rows so far, in row order, duplicates
    /// included.
    root_edges: Vec<Edge>,
}

impl ResultBuilder {
    pub(crate) fn new(g: &Graph) -> ResultBuilder {
        let mut graph = Graph::with_symbols(g.symbols_handle());
        let atom_leaf = graph.add_node();
        ResultBuilder {
            graph,
            atom_leaf,
            copy_memo: HashMap::new(),
            root_edges: Vec::new(),
        }
    }

    /// Evaluate the constructor for one assignment and queue the edge set
    /// it contributes at the top level.
    pub(crate) fn add_row(
        &mut self,
        g: &Graph,
        c: &Construct,
        env: &HashMap<String, BindVal>,
    ) -> Result<(), String> {
        match c {
            Construct::Node(entries) => {
                for (lx, sub) in entries {
                    let label = eval_label_expr(g, lx, env)?;
                    let to = self.node(g, sub, env)?;
                    self.root_edges.push(Edge { label, to });
                }
            }
            Construct::Var(v) => match env.get(v) {
                Some(BindVal::Tree(n)) => {
                    // Union semantics: contribute the node's edges (copied).
                    let copied = self.copy(g, *n);
                    self.root_edges.extend_from_slice(self.graph.edges(copied));
                }
                Some(BindVal::Label(l)) => {
                    // A label contributes itself as a value edge.
                    let label = label_as_value(l, g);
                    self.root_edges.push(Edge {
                        label,
                        to: self.atom_leaf,
                    });
                }
                None => return Err(format!("unbound variable {v} in construct")),
            },
            Construct::Atom(v) => self.root_edges.push(Edge {
                label: Label::Value(v.clone()),
                to: self.atom_leaf,
            }),
        }
        Ok(())
    }

    /// The result graph: the queued root edges inserted as one set (first
    /// occurrences, in row order), and nothing the root does not reach.
    pub(crate) fn finish(mut self) -> Graph {
        let root = self.graph.root();
        self.graph.extend_edges(root, self.root_edges);
        self.graph.gc();
        self.graph
    }

    /// Evaluate a constructor to a node in the result graph.
    fn node(
        &mut self,
        g: &Graph,
        c: &Construct,
        env: &HashMap<String, BindVal>,
    ) -> Result<NodeId, String> {
        match c {
            Construct::Node(entries) => {
                let n = self.graph.add_node();
                for (lx, sub) in entries {
                    let label = eval_label_expr(g, lx, env)?;
                    let node = self.node(g, sub, env)?;
                    self.graph.add_edge(n, label, node);
                }
                Ok(n)
            }
            Construct::Var(v) => match env.get(v) {
                Some(BindVal::Tree(n)) => Ok(self.copy(g, *n)),
                Some(BindVal::Label(l)) => {
                    let n = self.graph.add_node();
                    let label = label_as_value(l, g);
                    self.graph.add_edge(n, label, self.atom_leaf);
                    Ok(n)
                }
                None => Err(format!("unbound variable {v} in construct")),
            },
            Construct::Atom(v) => {
                let n = self.graph.add_node();
                self.graph
                    .add_edge(n, Label::Value(v.clone()), self.atom_leaf);
                Ok(n)
            }
        }
    }

    /// Copy a subtree from the data graph into the result graph
    /// (cycle-safe; memoized so repeated references share structure).
    fn copy(&mut self, g: &Graph, n: NodeId) -> NodeId {
        if let Some(&img) = self.copy_memo.get(&n) {
            return img;
        }
        let img = copy_subgraph(g, n, &mut self.graph);
        // copy_subgraph doesn't expose its internal map; record at least
        // the root image. (Sharing *within* one copy is preserved by
        // copy_subgraph; sharing across separate construct evaluations
        // is preserved by this memo.)
        self.copy_memo.insert(n, img);
        img
    }
}

fn eval_label_expr(
    g: &Graph,
    lx: &LabelExpr,
    env: &HashMap<String, BindVal>,
) -> Result<Label, String> {
    match lx {
        LabelExpr::Symbol(s) => Ok(Label::symbol(g.symbols(), s)),
        LabelExpr::Value(v) => Ok(Label::Value(v.clone())),
        LabelExpr::LabelVar(v) => match env.get(v) {
            Some(BindVal::Label(l)) => Ok(l.clone()),
            Some(BindVal::Tree(_)) => Err(format!("{v} is a tree variable, not a label")),
            None => Err(format!("unbound label variable ^{v}")),
        },
    }
}

/// View a bound label as a value label for use in atom positions: value
/// labels pass through; symbols become their name string.
fn label_as_value(l: &Label, g: &Graph) -> Label {
    match l {
        Label::Value(_) => l.clone(),
        Label::Symbol(s) => Label::Value(Value::Str(g.symbols().resolve(*s).to_string())),
    }
}

/// Evaluate a condition under the current environment.
pub(crate) fn eval_cond(
    g: &Graph,
    c: &Cond,
    env: &HashMap<String, BindVal>,
    guard: &Guard,
    stats: &mut EvalStats,
) -> Result<bool, String> {
    match c {
        Cond::Cmp(a, op, b) => {
            let va = expr_values(g, a, env)?;
            let vb = expr_values(g, b, env)?;
            // Existential overloading (Lorel-style): true if some pair of
            // values satisfies the comparison.
            Ok(va.iter().any(|x| {
                vb.iter().any(|y| {
                    let ord = x.query_cmp(y);
                    match op {
                        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                        CmpOp::Lt => ord == std::cmp::Ordering::Less,
                        CmpOp::Le => ord != std::cmp::Ordering::Greater,
                        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                        CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    }
                })
            }))
        }
        Cond::Like(e, pat) => {
            let vals = expr_values(g, e, env)?;
            Ok(vals.iter().any(|v| match v {
                Value::Str(s) => like_match(s, pat),
                _ => false,
            }))
        }
        Cond::TypeIs(e, kind) => match e {
            Expr::Var(v) => match env.get(v) {
                Some(BindVal::Label(l)) => Ok(l.kind() == *kind),
                Some(BindVal::Tree(n)) => Ok(g
                    .values_at(*n)
                    .iter()
                    .any(|val| LabelKind::from_value_kind(val.kind()) == *kind)),
                None => Err(format!("unbound variable {v}")),
            },
            Expr::Const(v) => Ok(LabelKind::from_value_kind(v.kind()) == *kind),
        },
        Cond::Exists(v, path) => match env.get(v) {
            Some(BindVal::Tree(n)) => {
                stats.rpe_evals += 1;
                Ok(!eval_rpe_guarded(g, *n, path, guard)
                    .map_err(exh)?
                    .is_empty())
            }
            Some(BindVal::Label(_)) => Err(format!("{v} is a label, not a tree")),
            None => Err(format!("unbound variable {v}")),
        },
        Cond::Not(inner) => Ok(!eval_cond(g, inner, env, guard, stats)?),
        Cond::And(a, b) => {
            Ok(eval_cond(g, a, env, guard, stats)? && eval_cond(g, b, env, guard, stats)?)
        }
        Cond::Or(a, b) => {
            Ok(eval_cond(g, a, env, guard, stats)? || eval_cond(g, b, env, guard, stats)?)
        }
    }
}

/// The set of values an expression denotes: constants denote themselves;
/// tree variables denote the values hanging off their node (Lorel's
/// object-vs-value coercion); label variables denote their label's value
/// (symbols coerce to their name string so `L like "act%"` works).
fn expr_values(g: &Graph, e: &Expr, env: &HashMap<String, BindVal>) -> Result<Vec<Value>, String> {
    match e {
        Expr::Const(v) => Ok(vec![v.clone()]),
        Expr::Var(v) => match env.get(v) {
            Some(BindVal::Tree(n)) => Ok(g.values_at(*n).into_iter().cloned().collect()),
            Some(BindVal::Label(Label::Value(val))) => Ok(vec![val.clone()]),
            Some(BindVal::Label(Label::Symbol(s))) => {
                Ok(vec![Value::Str(g.symbols().resolve(*s).to_string())])
            }
            None => Err(format!("unbound variable {v}")),
        },
    }
}

/// SQL-style LIKE restricted to `%` at the ends: `"abc"`, `"abc%"`,
/// `"%abc"`, `"%abc%"`.
fn like_match(s: &str, pat: &str) -> bool {
    let starts = pat.starts_with('%');
    let ends = pat.ends_with('%');
    let core = pat.trim_start_matches('%').trim_end_matches('%');
    match (starts, ends) {
        (false, false) => s == core,
        (false, true) => s.starts_with(core),
        (true, false) => s.ends_with(core),
        (true, true) => s.contains(core),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse_query;
    use ssd_graph::bisim::graphs_bisimilar;
    use ssd_graph::literal::{parse_graph, write_graph};

    fn movie_db() -> Graph {
        parse_graph(
            r#"{Entry: {Movie: {Title: "Casablanca",
                                Cast: {Actors: "Bogart", Actors: "Bacall"},
                                Director: "Curtiz",
                                Year: 1942}},
                Entry: {Movie: {Title: "Play it again, Sam",
                                Cast: {Credit: {Actors: "Allen"}},
                                Director: "Allen",
                                Year: 1972}},
                Entry: {TV_Show: {Title: "Annie Hall Special",
                                  Episode: 3}}}"#,
        )
        .unwrap()
    }

    fn run(g: &Graph, src: &str) -> Graph {
        let q = parse_query(src).unwrap();
        let (result, _) = evaluate_select(g, &q, &EvalOptions::default()).unwrap();
        result
    }

    #[test]
    fn analyzer_gate_refuses_errors_and_surfaces_warnings() {
        let g = movie_db();
        // Error: unbound variable — refused with the diagnostic code.
        let q = parse_query("select T from db.Entry.Movie.Title T").map(|mut q| {
            q.construct = Construct::Var("Z".into());
            q
        });
        let err = evaluate_select(&g, &q.unwrap(), &EvalOptions::default()).unwrap_err();
        assert!(err.contains("SSD001"), "{err}");
        assert!(err.contains("unbound variable"), "{err}");
        // Warning: unused binding — runs, but lands in stats.warnings.
        let q2 = parse_query("select T from db.Entry.Movie.Title T, db.Entry E").unwrap();
        let (_, stats) = evaluate_select(&g, &q2, &EvalOptions::default()).unwrap();
        assert_eq!(stats.warnings.len(), 1, "{:?}", stats.warnings);
        assert!(stats.warnings[0].contains("SSD004"), "{:?}", stats.warnings);
    }

    #[test]
    fn select_titles() {
        let g = movie_db();
        let r = run(&g, "select T from db.Entry.Movie.Title T");
        // Union of the two title nodes' edges: two string value edges.
        assert_eq!(r.out_degree(r.root()), 2);
        let vals: Vec<String> = r
            .values_at(r.root())
            .iter()
            .filter_map(|v| v.as_str().map(str::to_owned))
            .collect();
        assert!(vals.contains(&"Casablanca".to_string()));
    }

    #[test]
    fn construct_wraps_results() {
        let g = movie_db();
        let r = run(&g, "select {Title: T} from db.Entry.Movie.Title T");
        assert_eq!(r.successors_by_name(r.root(), "Title").len(), 2);
        let expected =
            parse_graph(r#"{Title: "Casablanca", Title: "Play it again, Sam"}"#).unwrap();
        assert!(graphs_bisimilar(&r, &expected));
    }

    #[test]
    fn variables_tie_paths_together() {
        // §3's point: Title and Director must come from the SAME movie.
        let g = movie_db();
        let r = run(
            &g,
            r#"select {Pair: {T: T, D: D}} from db.Entry.Movie M, M.Title T, M.Director D"#,
        );
        let pairs = r.successors_by_name(r.root(), "Pair");
        assert_eq!(pairs.len(), 2);
        // No cross-product pair (Casablanca, Allen) style mixing: check each
        // pair is internally consistent.
        for p in pairs {
            let t = r.successors_by_name(p, "T")[0];
            let d = r.successors_by_name(p, "D")[0];
            let tv = r.values_at(t)[0].as_str().unwrap().to_owned();
            let dv = r.values_at(d)[0].as_str().unwrap().to_owned();
            match tv.as_str() {
                "Casablanca" => assert_eq!(dv, "Curtiz"),
                "Play it again, Sam" => assert_eq!(dv, "Allen"),
                other => panic!("unexpected title {other}"),
            }
        }
    }

    #[test]
    fn where_comparison_filters() {
        let g = movie_db();
        let r = run(
            &g,
            r#"select T from db.Entry.Movie M, M.Title T, M.Year Y where Y < 1950"#,
        );
        assert_eq!(r.out_degree(r.root()), 1);
        assert_eq!(r.values_at(r.root())[0].as_str(), Some("Casablanca"));
    }

    #[test]
    fn where_string_equality() {
        let g = movie_db();
        let r = run(
            &g,
            r#"select {Found: M} from db.Entry.Movie M, M.Title T where T = "Casablanca""#,
        );
        assert_eq!(r.successors_by_name(r.root(), "Found").len(), 1);
    }

    #[test]
    fn exists_condition() {
        let g = movie_db();
        let r = run(
            &g,
            r#"select T from db.Entry.%.Title T, db.Entry.% M where exists M.Episode and exists M.Title"#,
        );
        // Both Entry children M with Episode: only the TV show; but T ranges
        // over all titles — M and T are not tied here, so all titles appear
        // (cross product semantics).
        assert_eq!(r.out_degree(r.root()), 3);
        let r2 = run(
            &g,
            r#"select T from db.Entry.% M, M.Title T where exists M.Episode"#,
        );
        assert_eq!(r2.out_degree(r2.root()), 1);
        assert_eq!(
            r2.values_at(r2.root())[0].as_str(),
            Some("Annie Hall Special")
        );
    }

    #[test]
    fn label_variables_and_like() {
        let g = movie_db();
        // All attribute names under entries that start with "Dir".
        let r = run(&g, r#"select L from db.Entry.%.^L X where L like "Dir%""#);
        assert_eq!(r.out_degree(r.root()), 1);
        assert_eq!(r.values_at(r.root())[0].as_str(), Some("Director"));
    }

    #[test]
    fn label_variable_in_construct_position() {
        let g = movie_db();
        let r = run(&g, r#"select {^L: X} from db.Entry.TV_Show.^L X"#);
        // TV show attributes rebuilt under the result root.
        assert_eq!(r.successors_by_name(r.root(), "Title").len(), 1);
        assert_eq!(r.successors_by_name(r.root(), "Episode").len(), 1);
    }

    #[test]
    fn negated_step_allen_not_in_casablanca() {
        let g = movie_db();
        // Movies where "Allen" occurs below without crossing another Movie
        // edge.
        let r = run(
            &g,
            r#"select T from db.Entry.Movie M, M.Title T, M.(!Movie)*."Allen" A"#,
        );
        assert_eq!(r.out_degree(r.root()), 1);
        assert_eq!(
            r.values_at(r.root())[0].as_str(),
            Some("Play it again, Sam")
        );
    }

    #[test]
    fn type_predicates() {
        let g = movie_db();
        let r = run(&g, r#"select {N: X} from db.Entry.%.^L X where isint(X)"#);
        // Year (x2) and Episode carry ints.
        assert_eq!(r.successors_by_name(r.root(), "N").len(), 3);
    }

    #[test]
    fn atom_constructor() {
        let g = movie_db();
        let r = run(&g, r#"select {hit: 1} from db.Entry.Movie M"#);
        // Two movies but identical constructed trees union to one edge...
        // each construct makes a fresh node, so edges dedup by (label, node)
        // only; bisimilarity collapses them.
        let expected = parse_graph("{hit: 1, hit: 1}").unwrap();
        assert!(graphs_bisimilar(&r, &expected));
    }

    #[test]
    fn empty_result_is_empty_graph() {
        let g = movie_db();
        let r = run(&g, r#"select T from db.Nope.Title T"#);
        assert!(r.is_leaf(r.root()));
    }

    #[test]
    fn pushdown_agrees_with_baseline() {
        let g = movie_db();
        let q = parse_query(
            r#"select {T: T, D: D} from db.Entry.Movie M, M.Title T, M.Director D, M.Year Y
               where Y > 1950 and D = "Allen""#,
        )
        .unwrap();
        let (base, base_stats) = evaluate_select(&g, &q, &EvalOptions::default()).unwrap();
        let (opt, opt_stats) = evaluate_select(
            &g,
            &q,
            &EvalOptions {
                pushdown: true,
                simplify_rpe: true,
                guide: None,
                guard: None,
                tracer: None,
            },
        )
        .unwrap();
        assert!(graphs_bisimilar(&base, &opt));
        // Pushdown prunes assignments before full enumeration.
        assert!(opt_stats.assignments_tried <= base_stats.assignments_tried);
    }

    #[test]
    fn guide_pruning_short_circuits_empty_queries() {
        let g = movie_db();
        let guide = DataGuide::build(&g);
        let q = parse_query(r#"select T from db.NoSuchLabel.%* T"#).unwrap();
        let (r, stats) = evaluate_select(
            &g,
            &q,
            &EvalOptions {
                pushdown: false,
                simplify_rpe: false,
                guide: Some(&guide),
                guard: None,
                tracer: None,
            },
        )
        .unwrap();
        assert!(r.is_leaf(r.root()));
        assert_eq!(stats.guide_pruned, 1);
        assert_eq!(stats.rpe_evals, 0, "no data-graph RPE evaluation at all");
    }

    #[test]
    fn guide_pruning_preserves_nonempty_results() {
        let g = movie_db();
        let guide = DataGuide::build(&g);
        let q = parse_query("select T from db.Entry.Movie.Title T").unwrap();
        let (with_guide, _) =
            evaluate_select(&g, &q, &EvalOptions::optimized(Some(&guide))).unwrap();
        let (without, _) = evaluate_select(&g, &q, &EvalOptions::default()).unwrap();
        assert!(graphs_bisimilar(&with_guide, &without));
    }

    #[test]
    fn result_graph_is_serializable() {
        let g = movie_db();
        let r = run(&g, "select {Movie: M} from db.Entry.Movie M");
        let text = write_graph(&r);
        let reparsed = parse_graph(&text).unwrap();
        assert!(graphs_bisimilar(&r, &reparsed));
    }

    #[test]
    fn like_match_variants() {
        assert!(like_match("Director", "Dir%"));
        assert!(like_match("Director", "%ector"));
        assert!(like_match("Director", "%rect%"));
        assert!(like_match("Director", "Director"));
        assert!(!like_match("Director", "direct%"));
        assert!(!like_match("Director", "%xyz%"));
    }

    #[test]
    fn cross_binding_value_join() {
        // Movies sharing a director with another entry's cast member:
        // "Allen" directs and acts.
        let g = movie_db();
        let r = run(
            &g,
            r#"select {Both: D} from db.Entry.Movie M, M.Director D,
                    M.Cast.(Actors | Credit.Actors) A
               where A = D"#,
        );
        assert_eq!(r.successors_by_name(r.root(), "Both").len(), 1);
    }
}
