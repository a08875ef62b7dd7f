//! JSON interchange.
//!
//! The tutorial's data model is, in hindsight, proto-JSON: nested,
//! self-describing, schema-optional. This module converts between the two
//! — the "extremely flexible format for data exchange between disparate
//! databases" motivation of §1.2, aimed at today's actual exchange format.
//!
//! Mapping (JSON → graph):
//!
//! * an object `{"k": v}` becomes a node with a symbol edge `k` per member;
//! * an array `[a, b]` becomes a node with integer-labeled edges `1`, `2`
//!   (§2: "arrays may be represented by labeling internal edges with
//!   integers");
//! * scalars become atoms (`{v: {}}`); `null` becomes the empty node `{}`.
//!
//! The reverse direction ([`to_json`]) inverts this exactly on graphs in
//! the image of [`from_json`]; on general graphs it (a) groups
//! duplicate-label edges into arrays, and (b) refuses cycles with
//! [`JsonError::Cyclic`] — JSON has no reference syntax, so cyclic
//! databases must be exported in the literal syntax instead.

use crate::graph::{Graph, NodeId};
use crate::label::Label;
use crate::value::Value;
use ssd_diag::json::{escape_into, Json};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors from JSON conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Parse error at a byte offset.
    Parse { at: usize, message: String },
    /// The graph contains a cycle; JSON cannot express it.
    Cyclic,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Parse { at, message } => {
                write!(f, "JSON parse error at byte {at}: {message}")
            }
            JsonError::Cyclic => write!(f, "graph is cyclic; JSON cannot express cycles"),
        }
    }
}

impl std::error::Error for JsonError {}

// --------------------------------------------------------------------------
// Parsing: the shared strict parser, then one walk of its tree.

/// Parse a JSON document into a fresh rooted graph.
pub fn from_json(src: &str) -> Result<Graph, JsonError> {
    let doc = Json::parse(src).map_err(|e| JsonError::Parse {
        at: e.at,
        message: e.message,
    })?;
    let mut g = Graph::new();
    let root = add_value(&mut g, doc);
    g.set_root(root);
    g.gc();
    Ok(g)
}

/// Add the node for `v` (and, recursively, its children) to `g`,
/// moving its strings in. The parser caps nesting, so the recursion is
/// bounded.
fn add_value(g: &mut Graph, v: Json) -> NodeId {
    let node = g.add_node();
    let atom = match v {
        Json::Null => None, // null → the empty node
        Json::Bool(b) => Some(Value::Bool(b)),
        Json::Num(text) => Some(number(&text)),
        Json::Str(s) => Some(Value::Str(s)),
        Json::Arr(items) => {
            for (i, item) in (1i64..).zip(items) {
                let child = add_value(g, item);
                g.add_edge(node, Label::int(i), child);
            }
            None
        }
        Json::Obj(fields) => {
            for (key, item) in fields {
                let child = add_value(g, item);
                g.add_sym_edge(node, &key, child);
            }
            None
        }
    };
    if let Some(atom) = atom {
        g.add_value_edge(node, atom);
    }
    node
}

/// The int/real split: an integer literal that fits `i64` is an int;
/// a fraction, an exponent, or an integer beyond `i64` is a real.
fn number(text: &str) -> Value {
    match text.parse() {
        Ok(i) => Value::Int(i),
        Err(_) => Value::Real(text.parse().unwrap_or(f64::NAN)),
    }
}

// --------------------------------------------------------------------------
// Serialization.

/// Serialize the subgraph under `node` as JSON. Fails on cycles. Shared
/// subtrees are duplicated (JSON has no references).
pub fn to_json(g: &Graph, node: NodeId) -> Result<String, JsonError> {
    if g.has_cycle() {
        return Err(JsonError::Cyclic);
    }
    let mut out = String::new();
    write_node(g, node, &mut out);
    Ok(out)
}

/// Serialize the whole graph from its root.
pub fn graph_to_json(g: &Graph) -> Result<String, JsonError> {
    to_json(g, g.root())
}

fn write_node(g: &Graph, n: NodeId, out: &mut String) {
    // Atom?
    if let Some(v) = g.atomic_value(n) {
        write_scalar(v, out);
        return;
    }
    let edges = g.edges(n);
    if edges.is_empty() {
        out.push_str("null");
        return;
    }
    // Pure array? (all labels are ints — emit positionally, sorted).
    let all_ints = edges
        .iter()
        .all(|e| matches!(e.label.as_value(), Some(Value::Int(_))));
    if all_ints {
        let mut items: Vec<(i64, NodeId)> = edges
            .iter()
            .map(|e| match e.label.as_value() {
                Some(Value::Int(i)) => (*i, e.to),
                _ => unreachable!("checked all_ints"),
            })
            .collect();
        items.sort_by_key(|(i, _)| *i);
        out.push('[');
        for (k, (_, to)) in items.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            write_node(g, *to, out);
        }
        out.push(']');
        return;
    }
    // Object: group edges by label text; duplicate labels become arrays.
    let mut groups: Vec<(String, Vec<NodeId>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for e in edges {
        let key = match &e.label {
            Label::Symbol(s) => g.symbols().resolve(*s).to_string(),
            Label::Value(v) => match v {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            },
        };
        match index.get(&key) {
            Some(&i) => groups[i].1.push(e.to),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![e.to]));
            }
        }
    }
    out.push('{');
    for (k, (key, targets)) in groups.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        write_string(key, out);
        out.push(':');
        if targets.len() == 1 {
            write_node(g, targets[0], out);
        } else {
            out.push('[');
            for (j, t) in targets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_node(g, *t, out);
            }
            out.push(']');
        }
    }
    out.push('}');
}

fn write_scalar(v: &Value, out: &mut String) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Real(r) => {
            if !r.is_finite() {
                out.push_str("null"); // JSON has no NaN/inf
            } else if r.fract() == 0.0 && r.abs() < 1e15 {
                // Keep reals distinguishable from ints on re-import.
                let _ = write!(out, "{r:.1}");
            } else {
                let _ = write!(out, "{r}");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::graphs_bisimilar;
    use crate::literal::parse_graph;

    #[test]
    fn import_object() {
        let g = from_json(r#"{"Movie": {"Title": "Casablanca", "Year": 1942}}"#).unwrap();
        let m = g.successors_by_name(g.root(), "Movie")[0];
        let t = g.successors_by_name(m, "Title")[0];
        assert_eq!(g.atomic_value(t), Some(&Value::Str("Casablanca".into())));
        let y = g.successors_by_name(m, "Year")[0];
        assert_eq!(g.atomic_value(y), Some(&Value::Int(1942)));
    }

    #[test]
    fn import_array_uses_int_labels() {
        let g = from_json(r#"{"cast": ["Bogart", "Bacall"]}"#).unwrap();
        let cast = g.successors_by_name(g.root(), "cast")[0];
        assert_eq!(g.out_degree(cast), 2);
        assert!(g.edges(cast).iter().all(|e| e.label.is_value()));
    }

    #[test]
    fn import_scalars_and_null() {
        let g = from_json(r#"{"i": 1, "r": 2.5, "s": "x", "b": true, "n": null}"#).unwrap();
        let n = g.successors_by_name(g.root(), "n")[0];
        assert!(g.is_leaf(n));
        let r = g.successors_by_name(g.root(), "r")[0];
        assert_eq!(g.atomic_value(r), Some(&Value::Real(2.5)));
        let b = g.successors_by_name(g.root(), "b")[0];
        assert_eq!(g.atomic_value(b), Some(&Value::Bool(true)));
    }

    #[test]
    fn import_escapes() {
        let g = from_json(r#"{"s": "a\"b\nA"}"#).unwrap();
        let s = g.successors_by_name(g.root(), "s")[0];
        assert_eq!(g.atomic_value(s), Some(&Value::Str("a\"b\nA".into())));
    }

    #[test]
    fn import_accepts_every_json_escape() {
        let g = from_json(r#"{"s": "a\bb\f", "e": "\ud83d\ude00", "u": "\u00e9"}"#).unwrap();
        let atom = |k| {
            g.atomic_value(g.successors_by_name(g.root(), k)[0])
                .cloned()
        };
        assert_eq!(atom("s"), Some(Value::Str("a\u{8}b\u{c}".into())));
        assert_eq!(atom("e"), Some(Value::Str("\u{1F600}".into())));
        assert_eq!(atom("u"), Some(Value::Str("\u{e9}".into())));
        // A surrogate half on its own is not a character.
        assert!(from_json(r#"{"s": "\ud83d"}"#).is_err());
        assert!(from_json(r#"{"s": "\ude00\ud83d"}"#).is_err());
    }

    #[test]
    fn integers_beyond_i64_import_as_reals() {
        let g =
            from_json(r#"{"big": 100000000000000000000, "neg": -9223372036854775808}"#).unwrap();
        let atom = |k| {
            g.atomic_value(g.successors_by_name(g.root(), k)[0])
                .cloned()
        };
        assert_eq!(atom("big"), Some(Value::Real(1e20)));
        assert_eq!(atom("neg"), Some(Value::Int(i64::MIN)));
        // Such reals export without a fraction and still come back as reals.
        let back = from_json(&graph_to_json(&g).unwrap()).unwrap();
        assert!(graphs_bisimilar(&g, &back));
    }

    #[test]
    fn import_errors() {
        assert!(from_json("{").is_err());
        assert!(from_json("{}extra").is_err());
        assert!(from_json(r#"{"a" 1}"#).is_err());
        assert!(from_json("[1,]").is_err());
        assert!(from_json("nul").is_err());
    }

    #[test]
    fn json_round_trip() {
        let src = r#"{"Movie":{"Title":"Casablanca","Cast":["Bogart","Bacall"],"Year":1942,"Rating":8.5,"Color":false,"Notes":null}}"#;
        let g = from_json(src).unwrap();
        let out = graph_to_json(&g).unwrap();
        let g2 = from_json(&out).unwrap();
        assert!(graphs_bisimilar(&g, &g2), "round trip broke:\n{out}");
    }

    #[test]
    fn duplicate_labels_export_as_arrays() {
        let g = parse_graph(r#"{Cast: {Actors: "Bogart", Actors: "Bacall"}}"#).unwrap();
        let json = graph_to_json(&g).unwrap();
        assert!(json.contains(r#""Actors":["Bogart","Bacall"]"#), "{json}");
        // And re-imports to a bisimilar graph (array indices replace the
        // duplicate labels — shape differs, so compare via the Actors
        // count after a collapse of index edges... here we just re-import
        // and check the values survive).
        let g2 = from_json(&json).unwrap();
        let cast = g2.successors_by_name(g2.root(), "Cast")[0];
        let actors = g2.successors_by_name(cast, "Actors")[0];
        assert_eq!(g2.out_degree(actors), 2);
    }

    #[test]
    fn cycles_are_refused() {
        let g = parse_graph("@x = {next: @x}").unwrap();
        assert_eq!(graph_to_json(&g), Err(JsonError::Cyclic));
    }

    #[test]
    fn reals_stay_reals_through_round_trip() {
        let g = from_json(r#"{"x": 2.0}"#).unwrap();
        let json = graph_to_json(&g).unwrap();
        let g2 = from_json(&json).unwrap();
        let x = g2.successors_by_name(g2.root(), "x")[0];
        assert_eq!(g2.atomic_value(x), Some(&Value::Real(2.0)));
    }

    #[test]
    fn literal_and_json_agree_on_tree_data() {
        let lit = parse_graph(r#"{a: {b: 1, c: "x"}, d: true}"#).unwrap();
        let json = graph_to_json(&lit).unwrap();
        let back = from_json(&json).unwrap();
        assert!(graphs_bisimilar(&lit, &back));
    }

    #[test]
    fn shared_subtrees_are_duplicated() {
        let g = parse_graph("{a: @s = {v: 1}, b: @s}").unwrap();
        let json = graph_to_json(&g).unwrap();
        let back = from_json(&json).unwrap();
        // Bisimilar (extensional equality) even though sharing was lost.
        assert!(graphs_bisimilar(&g, &back));
        let a = back.successors_by_name(back.root(), "a")[0];
        let b = back.successors_by_name(back.root(), "b")[0];
        assert_ne!(a, b, "JSON cannot express sharing");
    }

    #[test]
    fn nested_arrays() {
        let g = from_json("[[1,2],[3]]").unwrap();
        assert_eq!(g.out_degree(g.root()), 2);
        let json = graph_to_json(&g).unwrap();
        assert_eq!(json, "[[1,2],[3]]");
    }
}
