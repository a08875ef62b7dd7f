//! Whole-graph operations: union, cross-graph copy, subgraph extraction.
//!
//! §2 singles out *union* as the operation that distinguishes the
//! edge-labeled model from node-labeled variants ("it makes the operation of
//! taking the union of two trees difficult to define"). In the edge-labeled
//! model union is trivial: the union of two trees is a node whose edge set
//! is the union of theirs.

use crate::graph::{Edge, Graph, NodeId};
use crate::label::Label;
use std::collections::{HashMap, VecDeque};

/// Union of two trees *within one graph*: a fresh node whose edges are the
/// set-union of the edges of `a` and `b`. (UnQL's `∪`.)
pub fn union(g: &mut Graph, a: NodeId, b: NodeId) -> NodeId {
    union_all(g, &[a, b])
}

/// Union of many trees, in O(total edges).
pub fn union_all(g: &mut Graph, parts: &[NodeId]) -> NodeId {
    let n = g.add_node();
    for &p in parts {
        let edges = g.edges(p).to_vec();
        g.extend_edges(n, edges);
    }
    n
}

/// The singleton constructor `{label: t}`.
pub fn singleton(g: &mut Graph, label: Label, sub: NodeId) -> NodeId {
    let n = g.add_node();
    g.add_edge(n, label, sub);
    n
}

/// Copy the subgraph reachable from `src_root` in `src` into `dst`,
/// preserving sharing and cycles. Returns the image of `src_root`.
///
/// Symbols are translated through strings when the two graphs do not share
/// a symbol table, so this also serves as the data-exchange primitive
/// between databases (§1.2).
pub fn copy_subgraph(src: &Graph, src_root: NodeId, dst: &mut Graph) -> NodeId {
    let shared = src.shares_symbols(dst);
    // The image map doubles as the visited set, so the walk is
    // O(copied subgraph), not O(|src|). Images are allocated in BFS
    // discovery order and wired once their source node is dequeued, so
    // cycles work.
    let root_img = dst.add_node();
    let mut map: HashMap<NodeId, NodeId> = HashMap::from([(src_root, root_img)]);
    let mut queue = VecDeque::from([src_root]);
    while let Some(n) = queue.pop_front() {
        let mut edges = Vec::with_capacity(src.out_degree(n));
        for e in src.edges(n) {
            let label = if shared {
                e.label.clone()
            } else {
                translate_label(src, &e.label, dst)
            };
            let to = *map.entry(e.to).or_insert_with(|| {
                queue.push_back(e.to);
                dst.add_node()
            });
            edges.push(Edge { label, to });
        }
        dst.set_edges(map[&n], edges);
    }
    root_img
}

/// Translate a label from `src`'s symbol table into `dst`'s.
pub fn translate_label(src: &Graph, label: &Label, dst: &Graph) -> Label {
    match label {
        Label::Symbol(s) => Label::symbol(dst.symbols(), &src.symbols().resolve(*s)),
        Label::Value(v) => Label::Value(v.clone()),
    }
}

/// Extract the subgraph reachable from `node` as a fresh graph rooted
/// there (sharing the symbol table).
pub fn extract_subgraph(g: &Graph, node: NodeId) -> Graph {
    let mut out = Graph::with_symbols(g.symbols_handle());
    let root = copy_subgraph(g, node, &mut out);
    out.set_root(root);
    out.gc();
    out
}

/// Deep append: attach a copy of `other` (from its root) under `g`'s root
/// with `label`. Returns the image of `other`'s root.
pub fn attach_graph(g: &mut Graph, label: Label, other: &Graph) -> NodeId {
    let img = copy_subgraph(other, other.root(), g);
    let root = g.root();
    g.add_edge(root, label, img);
    img
}

/// Union of two *graphs*: a fresh graph whose root edge set is the union of
/// both roots' edge sets.
pub fn graph_union(g1: &Graph, g2: &Graph) -> Graph {
    let mut out = Graph::with_symbols(g1.symbols_handle());
    let r1 = copy_subgraph(g1, g1.root(), &mut out);
    let r2 = copy_subgraph(g2, g2.root(), &mut out);
    let u = union(&mut out, r1, r2);
    out.set_root(u);
    out.gc();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::graphs_bisimilar;
    use crate::literal::{parse_graph, write_graph};

    #[test]
    fn union_merges_edges() {
        let mut g = parse_graph("{l: {a: 1}, r: {b: 2}}").unwrap();
        let l = g.successors_by_name(g.root(), "l")[0];
        let r = g.successors_by_name(g.root(), "r")[0];
        let u = union(&mut g, l, r);
        assert_eq!(g.out_degree(u), 2);
        assert_eq!(g.successors_by_name(u, "a").len(), 1);
        assert_eq!(g.successors_by_name(u, "b").len(), 1);
    }

    #[test]
    fn union_dedupes_shared_edges() {
        let mut g = parse_graph("{l: {a: @s = {}}, r: {}}").unwrap();
        let l = g.successors_by_name(g.root(), "l")[0];
        let u = union(&mut g, l, l);
        assert_eq!(g.out_degree(u), 1);
    }

    #[test]
    fn union_all_of_empty_is_empty() {
        let mut g = Graph::new();
        let u = union_all(&mut g, &[]);
        assert!(g.is_leaf(u));
    }

    #[test]
    fn copy_preserves_sharing_and_cycles() {
        let src = parse_graph("{a: @x = {next: @x}, b: @x}").unwrap();
        let mut dst = Graph::new();
        let img = copy_subgraph(&src, src.root(), &mut dst);
        dst.set_root(img);
        assert!(dst.has_cycle());
        let a = dst.successors_by_name(dst.root(), "a")[0];
        let b = dst.successors_by_name(dst.root(), "b")[0];
        assert_eq!(a, b);
        assert!(graphs_bisimilar(&src, &dst));
    }

    #[test]
    fn copy_translates_symbols_across_tables() {
        let src = parse_graph("{Movie: {Title: \"C\"}}").unwrap();
        let mut dst = Graph::new(); // different symbol table
        assert!(!src.shares_symbols(&dst));
        let img = copy_subgraph(&src, src.root(), &mut dst);
        dst.set_root(img);
        assert_eq!(dst.successors_by_name(dst.root(), "Movie").len(), 1);
        assert!(graphs_bisimilar(&src, &dst));
    }

    #[test]
    fn extract_subgraph_roots_at_node() {
        let g = parse_graph("{a: {inner: {x: 1}}, b: 2}").unwrap();
        let a = g.successors_by_name(g.root(), "a")[0];
        let sub = extract_subgraph(&g, a);
        assert_eq!(sub.successors_by_name(sub.root(), "inner").len(), 1);
        assert!(sub.is_fully_reachable());
        let expect = parse_graph("{inner: {x: 1}}").unwrap();
        assert!(graphs_bisimilar(&sub, &expect));
    }

    #[test]
    fn graph_union_is_commutative_up_to_bisim() {
        let g1 = parse_graph("{a: 1}").unwrap();
        let g2 = parse_graph("{b: 2}").unwrap();
        let u12 = graph_union(&g1, &g2);
        let u21 = graph_union(&g2, &g1);
        assert!(graphs_bisimilar(&u12, &u21));
        assert_eq!(u12.out_degree(u12.root()), 2);
    }

    #[test]
    fn graph_union_identity_is_empty() {
        let g = parse_graph("{a: {b: 2}}").unwrap();
        let empty = Graph::new();
        let u = graph_union(&g, &empty);
        assert!(graphs_bisimilar(&u, &g));
    }

    #[test]
    fn attach_graph_under_label() {
        let mut g = parse_graph("{existing: 1}").unwrap();
        let other = parse_graph("{x: 2}").unwrap();
        let label = Label::symbol(g.symbols(), "imported");
        attach_graph(&mut g, label, &other);
        let imp = g.successors_by_name(g.root(), "imported")[0];
        assert_eq!(g.successors_by_name(imp, "x").len(), 1);
        // Serialization still works after surgery.
        let _ = write_graph(&g);
    }

    #[test]
    fn singleton_constructor() {
        let mut g = Graph::new();
        let leaf = g.add_node();
        let l = Label::symbol(g.symbols(), "only");
        let s = singleton(&mut g, l, leaf);
        assert_eq!(g.out_degree(s), 1);
    }
}
