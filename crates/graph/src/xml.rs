//! XML interchange.
//!
//! The tutorial appeared months before XML 1.0; historically, the
//! semistructured-data line of work (OEM, UnQL, Lorel) fed directly into
//! XML and its query languages. This module closes the loop: a small,
//! strict XML subset (elements, attributes, text; no namespaces, comments
//! allowed, no DTD/PI) maps onto the edge-labeled model.
//!
//! Mapping (XML → graph):
//!
//! * element `<e>…</e>` → symbol edge `e` to a node holding its content;
//! * attribute `a="v"` → symbol edge `@a` to an atom `v` (the `@` prefix
//!   keeps attributes distinguishable from child elements);
//! * text content → a string value edge (whitespace-only text is
//!   dropped); numeric-looking text stays a string — XML is untyped.
//!
//! The export inverts this on graphs in the image of [`from_xml`]; like
//! JSON, XML cannot express cycles or sharing, so [`to_xml`] refuses
//! cyclic graphs.

use crate::graph::{Graph, NodeId};
use crate::label::Label;
use crate::value::Value;
use std::fmt::Write as _;

/// Errors from XML conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    Parse {
        at: usize,
        message: String,
    },
    /// The graph contains a cycle.
    Cyclic,
    /// A label cannot be rendered as an XML name.
    BadName(String),
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlError::Parse { at, message } => write!(f, "XML parse error at byte {at}: {message}"),
            XmlError::Cyclic => write!(f, "graph is cyclic; XML cannot express cycles"),
            XmlError::BadName(n) => write!(f, "label {n:?} is not a valid XML name"),
        }
    }
}

impl std::error::Error for XmlError {}

struct P<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError::Parse {
            at: self.pos,
            message: message.into(),
        })
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            let r = self.rest();
            let t = r.trim_start();
            self.pos += r.len() - t.len();
            if self.rest().starts_with("<!--") {
                match self.rest().find("-->") {
                    Some(i) => self.pos += i + 3,
                    None => self.pos = self.src.len(),
                }
            } else {
                break;
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let r = self.rest();
        let mut end = 0;
        for (i, c) in r.char_indices() {
            let ok = if i == 0 {
                c.is_alphabetic() || c == '_'
            } else {
                c.is_alphanumeric() || c == '_' || c == '-' || c == '.'
            };
            if ok {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            return self.err("expected XML name");
        }
        let s = r[..end].to_owned();
        self.pos += end;
        Ok(s)
    }

    /// Parse one element, adding its edge under `parent`.
    fn element(&mut self, g: &mut Graph, parent: NodeId) -> Result<(), XmlError> {
        self.depth += 1;
        if self.depth > crate::literal::MAX_PARSE_DEPTH {
            return Err(XmlError::Parse {
                at: self.pos,
                message: ssd_diag::parse_depth_message(),
            });
        }
        let out = self.element_inner(g, parent);
        self.depth -= 1;
        out
    }

    fn element_inner(&mut self, g: &mut Graph, parent: NodeId) -> Result<(), XmlError> {
        // At '<'.
        self.pos += 1;
        let name = self.name()?;
        let node = g.add_node();
        g.add_sym_edge(parent, &name, node);
        // Attributes.
        loop {
            self.skip_ws_only();
            match self.rest().chars().next() {
                Some('>') => {
                    self.pos += 1;
                    break;
                }
                Some('/') if self.rest().starts_with("/>") => {
                    self.pos += 2;
                    return Ok(());
                }
                Some(c) if c.is_alphabetic() || c == '_' => {
                    let attr = self.name()?;
                    self.skip_ws_only();
                    if !self.rest().starts_with('=') {
                        return self.err("expected '=' after attribute name");
                    }
                    self.pos += 1;
                    self.skip_ws_only();
                    let quote = match self.rest().chars().next() {
                        Some(q @ ('"' | '\'')) => q,
                        _ => return self.err("expected quoted attribute value"),
                    };
                    self.pos += 1;
                    let r = self.rest();
                    let end = r.find(quote).ok_or_else(|| XmlError::Parse {
                        at: self.pos,
                        message: "unterminated attribute value".into(),
                    })?;
                    let value = unescape(&r[..end]);
                    self.pos += end + 1;
                    let attr_node = g.add_node();
                    g.add_sym_edge(node, &format!("@{attr}"), attr_node);
                    g.add_value_edge(attr_node, value);
                }
                _ => return self.err("expected attribute, '>' or '/>'"),
            }
        }
        // Content: children and text until `</name>`.
        loop {
            // Text run.
            let r = self.rest();
            let next_lt = r.find('<').ok_or_else(|| XmlError::Parse {
                at: self.pos,
                message: format!("unterminated element <{name}>"),
            })?;
            let text = unescape(&r[..next_lt]);
            let trimmed = text.trim();
            if !trimmed.is_empty() {
                g.add_value_edge(node, trimmed.to_owned());
            }
            self.pos += next_lt;
            if self.rest().starts_with("<!--") {
                self.skip_ws_and_comments();
                continue;
            }
            if self.rest().starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != name {
                    return self.err(format!("mismatched </{close}>, expected </{name}>"));
                }
                self.skip_ws_only();
                if !self.rest().starts_with('>') {
                    return self.err("expected '>' after closing tag name");
                }
                self.pos += 1;
                return Ok(());
            }
            self.element(g, node)?;
        }
    }

    fn skip_ws_only(&mut self) {
        let r = self.rest();
        let t = r.trim_start();
        self.pos += r.len() - t.len();
    }
}

fn unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Parse an XML document (single root element) into a rooted graph: the
/// graph root carries one edge named after the document element.
pub fn from_xml(src: &str) -> Result<Graph, XmlError> {
    let mut g = Graph::new();
    let mut p = P {
        src,
        pos: 0,
        depth: 0,
    };
    p.skip_ws_and_comments();
    // Optional XML declaration.
    if p.rest().starts_with("<?xml") {
        match p.rest().find("?>") {
            Some(i) => p.pos += i + 2,
            None => return p.err("unterminated XML declaration"),
        }
        p.skip_ws_and_comments();
    }
    if !p.rest().starts_with('<') {
        return p.err("expected document element");
    }
    let root = g.root();
    p.element(&mut g, root)?;
    p.skip_ws_and_comments();
    if p.pos != src.len() {
        return p.err("trailing content after document element");
    }
    g.gc();
    Ok(g)
}

/// Serialize a graph as XML. The root must have exactly one symbol edge
/// (the document element) or the export wraps everything in `<root>`.
/// Fails on cycles; value labels that are not strings render as their
/// display text.
pub fn to_xml(g: &Graph) -> Result<String, XmlError> {
    if g.has_cycle() {
        return Err(XmlError::Cyclic);
    }
    let mut out = String::new();
    let root_edges = g.edges(g.root());
    let single_element_root = root_edges.len() == 1 && root_edges[0].label.is_symbol();
    if single_element_root {
        write_element(g, &root_edges[0].label, root_edges[0].to, &mut out)?;
    } else {
        out.push_str("<root>");
        for e in root_edges {
            write_edge(g, e, &mut out)?;
        }
        out.push_str("</root>");
    }
    Ok(out)
}

fn write_edge(g: &Graph, e: &crate::graph::Edge, out: &mut String) -> Result<(), XmlError> {
    match &e.label {
        Label::Symbol(_) => write_element(g, &e.label, e.to, out),
        Label::Value(v) => {
            // A bare value edge to a leaf renders as text content; a value
            // edge into *structure* has no XML counterpart (elements need
            // names), so refuse rather than silently drop the subtree.
            if !g.is_leaf(e.to) {
                return Err(XmlError::BadName(v.to_string()));
            }
            match v {
                Value::Str(s) => out.push_str(&escape(s)),
                other => {
                    let _ = write!(out, "{other}");
                }
            }
            Ok(())
        }
    }
}

fn write_element(g: &Graph, label: &Label, node: NodeId, out: &mut String) -> Result<(), XmlError> {
    let name = label
        .text(g.symbols())
        .ok_or_else(|| XmlError::BadName(format!("{label:?}")))?;
    if !name
        .chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        return Err(XmlError::BadName(name));
    }
    // Split attribute edges (@a to an atom) from children.
    let mut attrs: Vec<(String, String)> = Vec::new();
    let mut children: Vec<&crate::graph::Edge> = Vec::new();
    for e in g.edges(node) {
        if let Label::Symbol(s) = &e.label {
            let ename = g.symbols().resolve(*s);
            if let Some(aname) = ename.strip_prefix('@') {
                if let Some(v) = g.atomic_value(e.to) {
                    let text = match v {
                        Value::Str(s) => s.clone(),
                        other => other.to_string(),
                    };
                    attrs.push((aname.to_owned(), text));
                    continue;
                }
            }
        }
        children.push(e);
    }
    let _ = write!(out, "<{name}");
    for (a, v) in &attrs {
        let _ = write!(out, " {a}=\"{}\"", escape(v));
    }
    if children.is_empty() {
        out.push_str("/>");
        return Ok(());
    }
    out.push('>');
    for e in children {
        write_edge(g, e, out)?;
    }
    let _ = write!(out, "</{name}>");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn import_elements_attributes_text() {
        let g = from_xml(
            r#"<movie year="1942"><title>Casablanca</title><cast><actor>Bogart</actor><actor>Bacall</actor></cast></movie>"#,
        )
        .unwrap();
        let movie = g.successors_by_name(g.root(), "movie")[0];
        let year = g.successors_by_name(movie, "@year")[0];
        assert_eq!(g.atomic_value(year), Some(&Value::Str("1942".into())));
        let title = g.successors_by_name(movie, "title")[0];
        assert_eq!(
            g.atomic_value(title),
            Some(&Value::Str("Casablanca".into()))
        );
        let cast = g.successors_by_name(movie, "cast")[0];
        assert_eq!(g.successors_by_name(cast, "actor").len(), 2);
    }

    #[test]
    fn import_self_closing_and_declaration() {
        let g = from_xml(r#"<?xml version="1.0"?><doc><empty/><empty/></doc>"#).unwrap();
        let doc = g.successors_by_name(g.root(), "doc")[0];
        assert_eq!(g.successors_by_name(doc, "empty").len(), 2);
    }

    #[test]
    fn import_escapes_and_comments() {
        let g = from_xml("<a><!-- note --><b>x &amp; y &lt;z&gt;</b></a>").unwrap();
        let a = g.successors_by_name(g.root(), "a")[0];
        let b = g.successors_by_name(a, "b")[0];
        assert_eq!(g.atomic_value(b), Some(&Value::Str("x & y <z>".into())));
    }

    #[test]
    fn import_errors() {
        assert!(from_xml("<a><b></a>").is_err());
        assert!(from_xml("<a>").is_err());
        assert!(from_xml("<a/>junk").is_err());
        assert!(from_xml(r#"<a b=oops/>"#).is_err());
        assert!(from_xml("plain text").is_err());
    }

    #[test]
    fn round_trip() {
        let src = r#"<movie year="1942"><title>Casablanca</title><cast><actor>Bogart</actor><actor>Bacall</actor></cast></movie>"#;
        let g = from_xml(src).unwrap();
        let out = to_xml(&g).unwrap();
        let g2 = from_xml(&out).unwrap();
        assert!(crate::bisim::graphs_bisimilar(&g, &g2), "broke:\n{out}");
    }

    #[test]
    fn export_wraps_multi_rooted_graphs() {
        let g = crate::literal::parse_graph(r#"{a: "x", b: "y"}"#).unwrap();
        let xml = to_xml(&g).unwrap();
        assert!(xml.starts_with("<root>"));
        assert!(xml.contains("<a>x</a>"));
    }

    #[test]
    fn export_refuses_cycles() {
        let g = crate::literal::parse_graph("@x = {next: @x}").unwrap();
        assert_eq!(to_xml(&g), Err(XmlError::Cyclic));
    }

    #[test]
    fn export_rejects_unnameable_labels() {
        let g = crate::literal::parse_graph("{a: {1: {b: 2}}}").unwrap();
        // The int-labeled edge to a complex node cannot become an element
        // name.
        assert!(matches!(to_xml(&g), Err(XmlError::BadName(_))));
    }

    #[test]
    fn mixed_content_survives() {
        let g = from_xml("<p>before<b>bold</b>after</p>").unwrap();
        let p = g.successors_by_name(g.root(), "p")[0];
        let texts: Vec<&Value> = g.values_at(p);
        assert_eq!(texts.len(), 2);
        assert_eq!(g.successors_by_name(p, "b").len(), 1);
    }

    #[test]
    fn attribute_quotes_both_kinds() {
        let g = from_xml(r#"<a x="1" y='2'/>"#).unwrap();
        let a = g.successors_by_name(g.root(), "a")[0];
        assert_eq!(g.out_degree(a), 2);
    }
}
