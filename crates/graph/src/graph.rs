//! The rooted, edge-labeled data graph — `type tree = set(label × tree)`.
//!
//! Following §2, "the unifying idea in semistructured data is the
//! representation of data as some kind of graph-like or tree-like structure.
//! Although we shall allow cycles in the data, we shall generally refer to
//! these graphs as trees." A [`Graph`] is an arena of nodes, each holding an
//! *unordered* set of labeled out-edges; one node is distinguished as the
//! root. Cycles are permitted and first-class (Figure 1 has one through the
//! `References` / `Is referenced in` edges).
//!
//! Node ids double as OEM-style object identities (§2, "object identities are
//! used as node labels and place-holders to define trees"): they support
//! equality tests and are usable as temporary handles, but queries observe
//! them only through traversal. Extensional equality of trees is
//! *bisimulation*, provided by [`crate::bisim`].

use crate::label::Label;
use crate::symbol::{new_symbols, SymbolId, SymbolTable, Symbols};
use crate::value::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Index of a node within a [`Graph`] arena.
///
/// Also serves as the node's object identity (OID) for OEM-style views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a `NodeId` from a raw index. The caller must ensure the
    /// index is valid for the graph it will be used with.
    pub fn from_index(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}", self.0)
    }
}

/// A labeled out-edge.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Edge {
    pub label: Label,
    pub to: NodeId,
}

#[derive(Debug, Clone, Default)]
struct Node {
    edges: Vec<Edge>,
}

/// A rooted, edge-labeled, possibly-cyclic data graph.
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    root: NodeId,
    symbols: Symbols,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// An empty database: a root node with no edges (the empty set `{}`).
    pub fn new() -> Graph {
        Graph::with_symbols(new_symbols())
    }

    /// An empty database sharing an existing symbol table.
    pub fn with_symbols(symbols: Symbols) -> Graph {
        Graph {
            nodes: vec![Node::default()],
            root: NodeId(0),
            symbols,
        }
    }

    /// The shared symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// A clonable handle to the symbol table.
    pub fn symbols_handle(&self) -> Symbols {
        Arc::clone(&self.symbols)
    }

    /// True if `other` shares this graph's symbol table (labels are directly
    /// comparable without string translation).
    pub fn shares_symbols(&self, other: &Graph) -> bool {
        Arc::ptr_eq(&self.symbols, &other.symbols)
    }

    /// The distinguished root. §3: "we are concerned with what is accessible
    /// from a given root by forward traversal of the edges".
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Re-root the graph at `n`.
    pub fn set_root(&mut self, n: NodeId) {
        self.check(n);
        self.root = n;
    }

    /// Allocate a fresh node with no edges.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node::default());
        id
    }

    /// Add edge `from --label--> to`. Duplicate `(label, to)` pairs are
    /// ignored: edge sets are sets, per `type tree = set(label × tree)`.
    pub fn add_edge(&mut self, from: NodeId, label: Label, to: NodeId) {
        self.check(from);
        self.check(to);
        let node = &mut self.nodes[from.index()];
        let edge = Edge { label, to };
        if !node.edges.contains(&edge) {
            node.edges.push(edge);
        }
    }

    /// Convenience: add edge with a symbol label, interning `name`.
    pub fn add_sym_edge(&mut self, from: NodeId, name: &str, to: NodeId) {
        let label = Label::symbol(&self.symbols, name);
        self.add_edge(from, label, to);
    }

    /// Convenience: `from --name--> fresh --value--> fresh-leaf`; the common
    /// attribute-with-value pattern of Figure 1 (`Title --> "Casablanca"`).
    /// Returns the intermediate node.
    pub fn add_attr(&mut self, from: NodeId, name: &str, value: impl Into<Value>) -> NodeId {
        let mid = self.add_node();
        self.add_sym_edge(from, name, mid);
        let leaf = self.add_node();
        self.add_edge(mid, Label::Value(value.into()), leaf);
        mid
    }

    /// Convenience: add a value-labeled edge to a fresh leaf, returning the
    /// leaf. This is how a base value "hangs off" a node in the edge-labeled
    /// model.
    pub fn add_value_edge(&mut self, from: NodeId, value: impl Into<Value>) -> NodeId {
        let leaf = self.add_node();
        self.add_edge(from, Label::Value(value.into()), leaf);
        leaf
    }

    /// Remove the edge `(from, label, to)` if present. Returns whether an
    /// edge was removed.
    pub fn remove_edge(&mut self, from: NodeId, label: &Label, to: NodeId) -> bool {
        self.check(from);
        let node = &mut self.nodes[from.index()];
        let before = node.edges.len();
        node.edges.retain(|e| !(e.label == *label && e.to == to));
        node.edges.len() != before
    }

    /// Replace the whole edge set of `n`. Duplicates are dropped, keeping
    /// first occurrences in order; O(edges).
    pub fn set_edges(&mut self, n: NodeId, mut edges: Vec<Edge>) {
        self.check(n);
        for e in &edges {
            self.check(e.to);
        }
        dedup_tail(&mut edges, 0);
        self.nodes[n.index()].edges = edges;
    }

    /// Add many edges out of `n` at once: the bulk form of
    /// [`Graph::add_edge`]. New edges already in the set (or repeated
    /// among themselves) are dropped, and the survivors keep their order
    /// after the existing edges. O(existing + new), where a loop of
    /// `add_edge` calls is O(new × fanout).
    pub fn extend_edges(&mut self, n: NodeId, edges: impl IntoIterator<Item = Edge>) {
        self.check(n);
        let count = self.nodes.len();
        let out = &mut self.nodes[n.index()].edges;
        let known = out.len();
        for e in edges {
            debug_assert!(e.to.index() < count, "edge target {} out of range", e.to);
            out.push(e);
        }
        dedup_tail(out, known);
    }

    /// A bulk loader over this graph: see [`EdgeLoader`].
    pub fn loader(&mut self) -> EdgeLoader<'_> {
        EdgeLoader {
            graph: self,
            unchecked: HashMap::new(),
        }
    }

    /// The out-edges of `n`.
    pub fn edges(&self, n: NodeId) -> &[Edge] {
        self.check(n);
        &self.nodes[n.index()].edges
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.edges(n).len()
    }

    /// True if `n` has no out-edges (it denotes the empty set / a leaf).
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.edges(n).is_empty()
    }

    /// Targets of edges out of `n` whose label is the symbol `sym`.
    pub fn successors_by_symbol(&self, n: NodeId, sym: SymbolId) -> Vec<NodeId> {
        self.edges(n)
            .iter()
            .filter(|e| e.label == Label::Symbol(sym))
            .map(|e| e.to)
            .collect()
    }

    /// Targets of edges out of `n` whose label is the symbol named `name`
    /// (no interning: unknown names simply match nothing).
    pub fn successors_by_name(&self, n: NodeId, name: &str) -> Vec<NodeId> {
        match self.symbols.get(name) {
            Some(sym) => self.successors_by_symbol(n, sym),
            None => Vec::new(),
        }
    }

    /// The base values hanging directly off `n` (labels of value edges).
    pub fn values_at(&self, n: NodeId) -> Vec<&Value> {
        self.edges(n)
            .iter()
            .filter_map(|e| e.label.as_value())
            .collect()
    }

    /// If `n` carries exactly one value edge *to a leaf* and nothing else,
    /// return that value. The usual "atomic object" pattern. (The leaf
    /// requirement matters: an integer-labeled edge into a complex node —
    /// an array slot, §2 — is not an atom.)
    pub fn atomic_value(&self, n: NodeId) -> Option<&Value> {
        let edges = self.edges(n);
        match edges {
            [Edge {
                label: Label::Value(v),
                to,
            }] if self.is_leaf(*to) => Some(v),
            _ => None,
        }
    }

    /// Number of nodes in the arena (including unreachable ones; see
    /// [`Graph::gc`](crate::ops) for compaction).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.edges.len()).sum()
    }

    /// Iterate over all node ids in the arena.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterate over every `(from, label, to)` edge in the arena.
    pub fn all_edges(&self) -> impl Iterator<Item = (NodeId, &Label, NodeId)> + '_ {
        self.nodes.iter().enumerate().flat_map(|(i, n)| {
            n.edges
                .iter()
                .map(move |e| (NodeId::from_index(i), &e.label, e.to))
        })
    }

    /// Nodes reachable from `from` by forward traversal (BFS order,
    /// including `from` itself).
    pub fn reachable_from(&self, from: NodeId) -> Vec<NodeId> {
        self.check(from);
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        seen[from.index()] = true;
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for e in &self.nodes[n.index()].edges {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    queue.push_back(e.to);
                }
            }
        }
        order
    }

    /// Nodes reachable from the root.
    pub fn reachable(&self) -> Vec<NodeId> {
        self.reachable_from(self.root)
    }

    /// True if every node in the arena is reachable from the root.
    pub fn is_fully_reachable(&self) -> bool {
        self.reachable().len() == self.nodes.len()
    }

    /// True if the reachable part of the graph contains a cycle.
    pub fn has_cycle(&self) -> bool {
        // Iterative DFS with colors: 0 = white, 1 = on stack, 2 = done.
        let mut color = vec![0u8; self.nodes.len()];
        let mut stack: Vec<(NodeId, usize)> = vec![(self.root, 0)];
        color[self.root.index()] = 1;
        while let Some(top) = stack.last_mut() {
            let n = top.0;
            let edges = &self.nodes[n.index()].edges;
            if top.1 < edges.len() {
                let to = edges[top.1].to;
                top.1 += 1;
                match color[to.index()] {
                    0 => {
                        color[to.index()] = 1;
                        stack.push((to, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                color[n.index()] = 2;
                stack.pop();
            }
        }
        false
    }

    /// Internal consistency check used by debug assertions and tests:
    /// every edge target is in-range and edge sets contain no duplicates.
    pub fn validate(&self) -> Result<(), String> {
        if self.root.index() >= self.nodes.len() {
            return Err(format!("root {} out of range", self.root));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for e in &n.edges {
                if e.to.index() >= self.nodes.len() {
                    return Err(format!("edge target {} out of range (from &{i})", e.to));
                }
                if !seen.insert((e.label.clone(), e.to)) {
                    return Err(format!("duplicate edge from &{i}"));
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn check(&self, n: NodeId) {
        debug_assert!(
            n.index() < self.nodes.len(),
            "NodeId {} out of range (graph has {} nodes)",
            n,
            self.nodes.len()
        );
    }

    /// Remove all nodes not reachable from the root, compacting ids.
    /// Returns the mapping `old id -> new id` for reachable nodes.
    pub fn gc(&mut self) -> std::collections::HashMap<NodeId, NodeId> {
        let reachable = self.reachable();
        let mut remap = std::collections::HashMap::with_capacity(reachable.len());
        for (new_idx, old) in reachable.iter().enumerate() {
            remap.insert(*old, NodeId::from_index(new_idx));
        }
        let mut new_nodes = Vec::with_capacity(reachable.len());
        for old in &reachable {
            let mut node = std::mem::take(&mut self.nodes[old.index()]);
            for e in &mut node.edges {
                e.to = remap[&e.to];
            }
            new_nodes.push(node);
        }
        self.nodes = new_nodes;
        self.root = remap[&self.root];
        remap
    }
}

/// Edge lists with at most this many edges still to check are
/// deduplicated by a linear scan, which beats building a hash set there.
const SCAN_MAX: usize = 16;

/// Drop the duplicates in `edges[known..]`, keeping first occurrences in
/// order. `edges[..known]` must already be duplicate-free. One transient
/// hash set makes this O(len); nothing outlives the call.
fn dedup_tail(edges: &mut Vec<Edge>, known: usize) {
    if edges.len() - known <= SCAN_MAX {
        let mut i = known;
        while i < edges.len() {
            if edges[..i].contains(&edges[i]) {
                edges.remove(i);
            } else {
                i += 1;
            }
        }
        return;
    }
    let mut seen = HashSet::with_capacity(edges.len());
    let dups: Vec<usize> = (0..edges.len())
        .filter(|&i| !seen.insert(&edges[i]))
        .collect();
    drop(seen);
    let mut dups = dups.into_iter().peekable();
    let mut i = 0;
    edges.retain(|_| {
        let dup = dups.next_if_eq(&i).is_some();
        i += 1;
        !dup
    });
}

/// Bulk edge insertion with the set check deferred, for loading a stream
/// of edges whose sources are interleaved (a root that gains one edge per
/// record, say). Nodes with fewer than `SCAN_MAX` edges are checked on
/// every insert as [`Graph::add_edge`] does; wider ones take edges
/// unchecked and are deduplicated once, when the loader is dropped. Loading
/// E edges is then O(E) rather than O(Σ fanout²). Edge order is the same
/// as a sequence of `add_edge` calls would give.
pub struct EdgeLoader<'g> {
    graph: &'g mut Graph,
    /// Nodes that took unchecked edges, each with the length of its edge
    /// list when the first one arrived (the prefix that is still a set).
    unchecked: HashMap<NodeId, usize>,
}

impl EdgeLoader<'_> {
    /// Allocate a fresh node ([`Graph::add_node`]).
    pub fn add_node(&mut self) -> NodeId {
        self.graph.add_node()
    }

    /// Add edge `from --label--> to`; duplicates are gone by the time the
    /// loader is dropped.
    pub fn add_edge(&mut self, from: NodeId, label: Label, to: NodeId) {
        self.graph.check(from);
        self.graph.check(to);
        let edges = &mut self.graph.nodes[from.index()].edges;
        let edge = Edge { label, to };
        if edges.len() < SCAN_MAX {
            if !edges.contains(&edge) {
                edges.push(edge);
            }
        } else {
            self.unchecked.entry(from).or_insert(edges.len());
            edges.push(edge);
        }
    }

    /// Add an edge with a symbol label, interning `name`.
    pub fn add_sym_edge(&mut self, from: NodeId, name: &str, to: NodeId) {
        let label = Label::symbol(&self.graph.symbols, name);
        self.add_edge(from, label, to);
    }
}

impl Drop for EdgeLoader<'_> {
    fn drop(&mut self) {
        for (n, known) in self.unchecked.drain() {
            dedup_tail(&mut self.graph.nodes[n.index()].edges, known);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Graph {
        // root --a--> x --b--> y, root --c--> y
        let mut g = Graph::new();
        let x = g.add_node();
        let y = g.add_node();
        g.add_sym_edge(g.root(), "a", x);
        g.add_sym_edge(x, "b", y);
        g.add_sym_edge(g.root(), "c", y);
        g
    }

    #[test]
    fn empty_graph_is_single_leaf_root() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_leaf(g.root()));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn add_edge_dedupes() {
        let mut g = Graph::new();
        let x = g.add_node();
        g.add_sym_edge(g.root(), "a", x);
        g.add_sym_edge(g.root(), "a", x);
        assert_eq!(g.edge_count(), 1);
        // Different label to same target is kept.
        g.add_sym_edge(g.root(), "b", x);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn successors_by_symbol_and_name() {
        let g = small();
        let a_targets = g.successors_by_name(g.root(), "a");
        assert_eq!(a_targets.len(), 1);
        assert_eq!(g.successors_by_name(g.root(), "nope"), Vec::new());
        let sym = g.symbols().get("c").unwrap();
        assert_eq!(g.successors_by_symbol(g.root(), sym).len(), 1);
    }

    #[test]
    fn attr_and_atomic_value() {
        let mut g = Graph::new();
        let title = g.add_attr(g.root(), "Title", "Casablanca");
        assert_eq!(
            g.atomic_value(title),
            Some(&Value::Str("Casablanca".into()))
        );
        assert_eq!(g.atomic_value(g.root()), None);
        let vals = g.values_at(title);
        assert_eq!(vals.len(), 1);
    }

    #[test]
    fn reachability_and_full_reachability() {
        let mut g = small();
        assert!(g.is_fully_reachable());
        let orphan = g.add_node();
        assert!(!g.is_fully_reachable());
        assert!(!g.reachable().contains(&orphan));
    }

    #[test]
    fn cycle_detection() {
        let mut g = small();
        assert!(!g.has_cycle());
        let x = g.successors_by_name(g.root(), "a")[0];
        g.add_sym_edge(x, "back", g.root());
        assert!(g.has_cycle());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = Graph::new();
        g.add_sym_edge(g.root(), "loop", g.root());
        assert!(g.has_cycle());
    }

    #[test]
    fn remove_edge() {
        let mut g = small();
        let x = g.successors_by_name(g.root(), "a")[0];
        let a = Label::symbol(g.symbols(), "a");
        assert!(g.remove_edge(g.root(), &a, x));
        assert!(!g.remove_edge(g.root(), &a, x));
        assert_eq!(g.successors_by_name(g.root(), "a").len(), 0);
    }

    #[test]
    fn gc_compacts_and_preserves_structure() {
        let mut g = small();
        let orphan = g.add_node();
        g.add_sym_edge(orphan, "dead", orphan);
        let before_edges = 3;
        let remap = g.gc();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), before_edges);
        assert!(g.is_fully_reachable());
        assert!(g.validate().is_ok());
        assert!(!remap.contains_key(&orphan));
        // Shared target still shared.
        let x = g.successors_by_name(g.root(), "a")[0];
        let via_b = g.successors_by_name(x, "b")[0];
        let via_c = g.successors_by_name(g.root(), "c")[0];
        assert_eq!(via_b, via_c);
    }

    #[test]
    fn gc_on_cyclic_graph() {
        let mut g = Graph::new();
        let x = g.add_node();
        g.add_sym_edge(g.root(), "f", x);
        g.add_sym_edge(x, "g", g.root());
        let _orphan = g.add_node();
        g.gc();
        assert_eq!(g.node_count(), 2);
        assert!(g.has_cycle());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn set_edges_replaces_and_dedupes() {
        let mut g = Graph::new();
        let x = g.add_node();
        let l = Label::symbol(g.symbols(), "a");
        g.set_edges(
            g.root(),
            vec![
                Edge {
                    label: l.clone(),
                    to: x,
                },
                Edge {
                    label: l.clone(),
                    to: x,
                },
            ],
        );
        assert_eq!(g.out_degree(g.root()), 1);
    }

    #[test]
    fn all_edges_enumerates_everything() {
        let g = small();
        let edges: Vec<_> = g.all_edges().collect();
        assert_eq!(edges.len(), 3);
    }

    #[test]
    fn shared_symbol_tables() {
        let g1 = Graph::new();
        let g2 = Graph::with_symbols(g1.symbols_handle());
        let g3 = Graph::new();
        assert!(g1.shares_symbols(&g2));
        assert!(!g1.shares_symbols(&g3));
    }

    #[test]
    fn set_root_reroots() {
        let mut g = small();
        let x = g.successors_by_name(g.root(), "a")[0];
        g.set_root(x);
        assert_eq!(g.root(), x);
        assert_eq!(g.reachable().len(), 2);
    }
}
