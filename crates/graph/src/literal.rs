//! Textual data syntax for semistructured values.
//!
//! The tutorial (and UnQL) write data as nested set braces:
//!
//! ```text
//! { Entry: { Movie: { Title: "Casablanca",
//!                     Cast:  { Actors: "Bogart", Actors: "Bacall" },
//!                     Director: "Curtiz" } } }
//! ```
//!
//! Grammar:
//!
//! ```text
//! tree   := node | value | '@' IDENT | '@' IDENT '=' tree
//! node   := '{' [entry (',' entry)*] '}'
//! entry  := label ':' tree
//!         | label                     -- sugar for `label: {}`
//! label  := IDENT | STRING | INT | REAL | 'true' | 'false'
//! value  := STRING | INT | REAL | 'true' | 'false'
//! ```
//!
//! A bare value in tree position desugars to `{value: {}}` (an atom).
//! `@name = tree` defines a shared node; `@name` references it — this is the
//! textual form of OEM object identities used as "place-holders to define
//! trees" (§2), and is how cyclic instances like Figure 1's
//! `References`/`Is referenced in` loop are written.

use crate::builder::{LabelSpec, TreeBuilder, TreeSpec};
use crate::graph::{Graph, NodeId};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt::Write as _;

pub use ssd_diag::MAX_PARSE_DEPTH;

/// Error from [`parse_tree`] / [`parse_graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub at: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let trimmed = r.trim_start();
            self.pos += r.len() - trimmed.len();
            // Line comments with `#`.
            if self.rest().starts_with('#') {
                match self.rest().find('\n') {
                    Some(i) => self.pos += i + 1,
                    None => self.pos = self.src.len(),
                }
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(format!("expected '{c}'"))
        }
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let r = self.rest();
        let mut end = 0;
        for (i, ch) in r.char_indices() {
            let ok = if i == 0 {
                ch.is_alphabetic() || ch == '_'
            } else {
                ch.is_alphanumeric() || ch == '_' || ch == '-'
            };
            if ok {
                end = i + ch.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            None
        } else {
            let s = &r[..end];
            self.pos += end;
            Some(s.to_owned())
        }
    }

    fn string_lit(&mut self) -> Result<String, ParseError> {
        // Caller has seen the opening quote.
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        while let Some((i, ch)) = chars.next() {
            match ch {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '"')) => out.push('"'),
                    Some((_, other)) => {
                        self.pos += i;
                        return self.err(format!("bad escape '\\{other}'"));
                    }
                    None => {
                        self.pos += i;
                        return self.err("unterminated escape");
                    }
                },
                _ => out.push(ch),
            }
        }
        self.err("unterminated string literal")
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let r = self.rest();
        let mut end = 0;
        let mut is_real = false;
        for (i, ch) in r.char_indices() {
            match ch {
                '0'..='9' => end = i + 1,
                '-' | '+' if i == 0 => end = i + 1,
                '.' | 'e' | 'E' => {
                    is_real = true;
                    end = i + 1;
                }
                '-' | '+' if is_real && (r.as_bytes()[i - 1] | 0x20) == b'e' => end = i + 1,
                _ => break,
            }
        }
        if end == 0 {
            return self.err("expected number");
        }
        let text = &r[..end];
        self.pos += end;
        if is_real {
            text.parse::<f64>()
                .map(Value::Real)
                .or_else(|_| self.err(format!("bad real literal '{text}'")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| self.err(format!("bad int literal '{text}'")))
        }
    }

    /// A label: identifier (symbol), string/number/bool (value).
    fn label(&mut self) -> Result<LabelSpec, ParseError> {
        match self.peek() {
            Some('"') => Ok(LabelSpec::Value(Value::Str(self.string_lit()?))),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                Ok(LabelSpec::Value(self.number()?))
            }
            Some(c) if c.is_alphabetic() || c == '_' => {
                let Some(id) = self.ident() else {
                    return self.err("expected label identifier");
                };
                match id.as_str() {
                    "true" => Ok(LabelSpec::Value(Value::Bool(true))),
                    "false" => Ok(LabelSpec::Value(Value::Bool(false))),
                    _ => Ok(LabelSpec::Symbol(id)),
                }
            }
            _ => self.err("expected label"),
        }
    }

    fn tree(&mut self) -> Result<TreeSpec, ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return self.err(ssd_diag::parse_depth_message());
        }
        let out = self.tree_inner();
        self.depth -= 1;
        out
    }

    fn tree_inner(&mut self) -> Result<TreeSpec, ParseError> {
        match self.peek() {
            Some('{') => self.node(),
            Some('@') => {
                self.expect('@')?;
                let name = match self.ident() {
                    Some(n) => n,
                    None => return self.err("expected name after '@'"),
                };
                if self.eat('=') {
                    let sub = self.tree()?;
                    Ok(TreeSpec::Def(name, Box::new(sub)))
                } else {
                    Ok(TreeSpec::Ref(name))
                }
            }
            Some('"') => Ok(TreeSpec::Atom(Value::Str(self.string_lit()?))),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                Ok(TreeSpec::Atom(self.number()?))
            }
            Some(c) if c.is_alphabetic() || c == '_' => {
                // Bare identifier in tree position: true/false are atoms,
                // anything else is an error (labels go on edges).
                let save = self.pos;
                let Some(id) = self.ident() else {
                    return self.err("expected identifier");
                };
                match id.as_str() {
                    "true" => Ok(TreeSpec::Atom(Value::Bool(true))),
                    "false" => Ok(TreeSpec::Atom(Value::Bool(false))),
                    _ => {
                        self.pos = save;
                        self.err(format!("unexpected identifier '{id}' in tree position"))
                    }
                }
            }
            _ => self.err("expected tree"),
        }
    }

    fn node(&mut self) -> Result<TreeSpec, ParseError> {
        self.expect('{')?;
        let mut entries = Vec::new();
        if self.eat('}') {
            return Ok(TreeSpec::Node(entries));
        }
        loop {
            let label = self.label()?;
            let sub = if self.eat(':') {
                self.tree()?
            } else {
                TreeSpec::empty()
            };
            entries.push((label, sub));
            if self.eat(',') {
                // Allow trailing comma.
                if self.peek() == Some('}') {
                    self.expect('}')?;
                    break;
                }
                continue;
            }
            self.expect('}')?;
            break;
        }
        Ok(TreeSpec::Node(entries))
    }
}

/// Parse the textual data syntax into a [`TreeSpec`].
pub fn parse_tree(src: &str) -> Result<TreeSpec, ParseError> {
    let mut p = Parser::new(src);
    let t = p.tree()?;
    p.skip_ws();
    if p.pos != src.len() {
        return p.err("trailing input after tree");
    }
    Ok(t)
}

/// Parse the textual data syntax directly into a fresh rooted [`Graph`].
pub fn parse_graph(src: &str) -> Result<Graph, ParseError> {
    let spec = parse_tree(src)?;
    if let Err(msg) = crate::builder::check_refs(&spec) {
        return Err(ParseError {
            at: src.len(),
            message: msg,
        });
    }
    let mut g = Graph::new();
    let root = {
        let mut b = TreeBuilder::new(&mut g);
        b.build(&spec)
    };
    g.set_root(root);
    g.gc();
    Ok(g)
}

/// Serialize the subgraph reachable from `node` back to the textual syntax.
///
/// Nodes with in-degree > 1 (shared) or on a cycle are emitted once with an
/// `@nK = ...` definition and referenced as `@nK` thereafter, so the output
/// round-trips through [`parse_graph`] up to bisimulation (in fact up to
/// isomorphism of the reachable subgraph).
pub fn write_tree(g: &Graph, node: NodeId) -> String {
    // Count in-degrees within the reachable subgraph.
    let reachable = g.reachable_from(node);
    let mut indeg: HashMap<NodeId, usize> = HashMap::new();
    for &n in &reachable {
        for e in g.edges(n) {
            *indeg.entry(e.to).or_insert(0) += 1;
        }
    }
    // Nodes needing a name: in-degree > 1, or involved in a cycle (detected
    // as back edges during the DFS below — conservatively we name any node
    // we re-enter while it is still being printed).
    let mut out = String::new();
    let mut state: HashMap<NodeId, u8> = HashMap::new(); // 1 = printing, 2 = done
    let mut names: HashMap<NodeId, usize> = HashMap::new();
    let mut next_name = 0usize;

    // First pass: find nodes that must be named (shared or cycle-entry).
    fn find_cycles(
        g: &Graph,
        n: NodeId,
        state: &mut HashMap<NodeId, u8>,
        names: &mut HashMap<NodeId, usize>,
        next_name: &mut usize,
    ) {
        state.insert(n, 1);
        for e in g.edges(n) {
            match state.get(&e.to) {
                Some(1) => {
                    names.entry(e.to).or_insert_with(|| {
                        let k = *next_name;
                        *next_name += 1;
                        k
                    });
                }
                Some(2) => {}
                _ => find_cycles(g, e.to, state, names, next_name),
            }
        }
        state.insert(n, 2);
    }
    find_cycles(g, node, &mut state, &mut names, &mut next_name);
    for (&n, &d) in &indeg {
        if d > 1 {
            names.entry(n).or_insert_with(|| {
                let k = next_name;
                next_name += 1;
                k
            });
        }
    }

    let mut emitted: HashMap<NodeId, bool> = HashMap::new();
    write_node(g, node, &names, &mut emitted, &mut out);
    out
}

fn write_node(
    g: &Graph,
    n: NodeId,
    names: &HashMap<NodeId, usize>,
    emitted: &mut HashMap<NodeId, bool>,
    out: &mut String,
) {
    if let Some(&k) = names.get(&n) {
        if *emitted.get(&n).unwrap_or(&false) {
            let _ = write!(out, "@n{k}");
            return;
        }
        emitted.insert(n, true);
        let _ = write!(out, "@n{k} = ");
    }
    // Atom shorthand.
    if let Some(v) = g.atomic_value(n) {
        if !names.contains_key(&g.edges(n)[0].to) {
            let _ = write!(out, "{v}");
            return;
        }
    }
    out.push('{');
    let mut first = true;
    for e in g.edges(n) {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "{}", e.label.display(g.symbols()));
        if !g.is_leaf(e.to) || names.contains_key(&e.to) {
            out.push_str(": ");
            write_node(g, e.to, names, emitted, out);
        }
    }
    out.push('}');
}

/// Serialize the whole graph (from its root).
pub fn write_graph(g: &Graph) -> String {
    write_tree(g, g.root())
}

/// Re-serialize after a parse for a canonical form (used by tests).
pub fn roundtrip(src: &str) -> Result<String, ParseError> {
    let g = parse_graph(src)?;
    Ok(write_graph(&g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim;

    #[test]
    fn parse_empty() {
        let g = parse_graph("{}").unwrap();
        assert!(g.is_leaf(g.root()));
    }

    #[test]
    fn parse_flat_record() {
        let g = parse_graph(r#"{Title: "Casablanca", Year: 1942}"#).unwrap();
        assert_eq!(g.out_degree(g.root()), 2);
        let t = g.successors_by_name(g.root(), "Title")[0];
        assert_eq!(g.atomic_value(t), Some(&Value::Str("Casablanca".into())));
        let y = g.successors_by_name(g.root(), "Year")[0];
        assert_eq!(g.atomic_value(y), Some(&Value::Int(1942)));
    }

    #[test]
    fn parse_nested_and_duplicate_labels() {
        let g = parse_graph(r#"{Cast: {Actors: "Bogart", Actors: "Bacall"}}"#).unwrap();
        let cast = g.successors_by_name(g.root(), "Cast")[0];
        assert_eq!(g.successors_by_name(cast, "Actors").len(), 2);
    }

    #[test]
    fn parse_bare_label_is_empty_subtree() {
        let g = parse_graph("{flag, other: {}}").unwrap();
        assert_eq!(g.out_degree(g.root()), 2);
        let f = g.successors_by_name(g.root(), "flag")[0];
        assert!(g.is_leaf(f));
    }

    #[test]
    fn parse_value_labels_and_types() {
        let g = parse_graph(r#"{1: "a", 2.5: "b", true: "c", "key": "d"}"#).unwrap();
        assert_eq!(g.out_degree(g.root()), 4);
    }

    #[test]
    fn parse_cycle() {
        let g = parse_graph("@x = {next: @x}").unwrap();
        assert!(g.has_cycle());
        assert_eq!(g.successors_by_name(g.root(), "next")[0], g.root());
    }

    #[test]
    fn parse_shared_node() {
        let g = parse_graph("{a: @s = {leaf}, b: @s}").unwrap();
        let a = g.successors_by_name(g.root(), "a")[0];
        let b = g.successors_by_name(g.root(), "b")[0];
        assert_eq!(a, b);
    }

    #[test]
    fn parse_comments_and_whitespace() {
        let g = parse_graph("# header\n{ a : 1 , # inline\n  b : 2 }\n# trailer").unwrap();
        assert_eq!(g.out_degree(g.root()), 2);
    }

    #[test]
    fn parse_trailing_comma() {
        let g = parse_graph("{a: 1, b: 2,}").unwrap();
        assert_eq!(g.out_degree(g.root()), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_graph("{a: }").is_err());
        assert!(parse_graph("{a: 1} extra").is_err());
        assert!(parse_graph("{a: @undef}").is_err());
        // Forward references (other than self-reference via `@x = ...`) are
        // rejected, mirroring the builder's define-before-use scoping.
        assert!(parse_graph("{a: @x, b: @x = {}}").is_err());
        assert!(parse_graph(r#"{"unterminated}"#).is_err());
        assert!(parse_graph("{a: bogus}").is_err());
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let g = parse_graph("{a: -5, b: 1.5e3, c: -2.5E-1}").unwrap();
        let a = g.successors_by_name(g.root(), "a")[0];
        assert_eq!(g.atomic_value(a), Some(&Value::Int(-5)));
        let b = g.successors_by_name(g.root(), "b")[0];
        assert_eq!(g.atomic_value(b), Some(&Value::Real(1500.0)));
        let c = g.successors_by_name(g.root(), "c")[0];
        assert_eq!(g.atomic_value(c), Some(&Value::Real(-0.25)));
    }

    #[test]
    fn string_escapes() {
        let g = parse_graph(r#"{s: "a\"b\n\\t"}"#).unwrap();
        let s = g.successors_by_name(g.root(), "s")[0];
        assert_eq!(g.atomic_value(s), Some(&Value::Str("a\"b\n\\t".into())));
    }

    #[test]
    fn write_and_reparse_acyclic() {
        let src = r#"{Movie: {Title: "Casablanca", Year: 1942, Cast: {Actors: "Bogart"}}}"#;
        let g = parse_graph(src).unwrap();
        let text = write_graph(&g);
        let g2 = parse_graph(&text).unwrap();
        assert!(bisim::graphs_bisimilar(&g, &g2));
    }

    #[test]
    fn write_and_reparse_cyclic() {
        let src = "{a: @x = {next: @x, v: 1}, b: @x}";
        let g = parse_graph(src).unwrap();
        let text = write_graph(&g);
        let g2 = parse_graph(&text).unwrap();
        assert!(bisim::graphs_bisimilar(&g, &g2));
    }

    #[test]
    fn canonical_roundtrip_is_stable() {
        let once = roundtrip("{b: 2, a: {c: 3}}").unwrap();
        let twice = roundtrip(&once).unwrap();
        assert_eq!(once, twice);
    }
}
