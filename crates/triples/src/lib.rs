//! # ssd-triples — the relational substrate for semistructured data
//!
//! §3 of Buneman's PODS '97 tutorial describes two computational strategies
//! for querying semistructured data. This crate is the first one: "model
//! the graph as a relational database and then exploit a relational query
//! language. ... We can take the database as a large relation of type
//! (node-id, label, node-id)".
//!
//! * [`triple`] / [`store`] — the shredded, indexed edge relation, built
//!   from the root-reachable fragment (forward accessibility, §3 item 4).
//!   The algebra and the reference datalog evaluators run over it.
//! * [`algebra`] — relational algebra (σ π ⋈ ρ ∪ −) over relations whose
//!   fields are node ids and labels.
//! * [`datalog`] — "graph datalog": stratified recursive rules, naive and
//!   semi-naive evaluation. Its production path reads the edge relation
//!   straight from the SPO/POS/OSP runs of `ssd-index`'s cached
//!   `TripleIndex` instead of a store.
//! * [`paths`] — hand-written reachability/transitive-closure baselines
//!   the datalog results are cross-checked against.

pub mod algebra;
pub mod datalog;
pub mod paths;
pub mod store;
pub mod triple;

pub use algebra::{AlgebraError, Datum, Relation, RowView};
pub use store::TripleStore;
pub use triple::Triple;
