//! "Graph datalog" — recursive queries over the edge relation.
//!
//! §3: "Some forms of unbounded search will require recursive queries,
//! i.e., a 'graph datalog', and such languages are proposed in \[26, 16\] for
//! the web and for hypertext."
//!
//! * [`ast`] — rules, atoms, terms, plus a Prolog-ish text syntax.
//! * [`eval`] — stratified evaluation, both naive and semi-naive (the
//!   semi-naive/naive gap is experiment E6).
//!
//! The EDB is the graph's one edge relation, `edge(Src, Label, Dst)`,
//! together with `root(R)` and `node(N)`. [`evaluate_indexed`] reads
//! `edge` straight from the cached SPO/POS/OSP runs of a
//! [`ssd_index::TripleIndex`]; the store-backed evaluators copy a
//! [`crate::TripleStore`] into fact sets and serve as its reference.

pub mod ast;
pub mod eval;

pub use ast::{
    is_builtin, parse_program, parse_program_spanned, Atom, Literal, Program, ProgramSpans, Rule,
    RuleSpans, Term,
};
pub use eval::{
    edb_from_store, evaluate, evaluate_indexed, evaluate_naive, evaluate_traced, evaluate_with,
    evaluate_with_facts, evaluate_with_facts_guarded, stratify, DatalogError, Evaluation, Facts,
    EDB_PREDICATES, FP_DATALOG_ROUND,
};
