//! Interned symbols.
//!
//! The paper (§2): "Edges are also \[labeled\] with names such as `Movie` and
//! `Title` that would normally be used for attribute or class names. We shall
//! refer to such labels as *symbols*. Internally they are represented as
//! strings."
//!
//! We intern symbol strings into dense `u32` ids so that edge labels are a
//! single word and label comparisons are integer comparisons. A
//! [`SymbolTable`] can be shared between several graphs (`Arc`), which makes
//! cross-graph operations (union, copy, bisimulation between databases) free
//! of string translation.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A dense identifier for an interned symbol string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub(crate) u32);

impl SymbolId {
    /// Raw index, for use as an array/bitset key.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A thread-safe string interner.
///
/// Interning is append-only: ids are stable for the lifetime of the table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    inner: RwLock<SymbolTableInner>,
}

#[derive(Debug, Default)]
struct SymbolTableInner {
    map: HashMap<Arc<str>, SymbolId>,
    strings: Vec<Arc<str>>,
}

impl SymbolTable {
    pub fn new() -> Self {
        Self::default()
    }

    // Poisoning is ignored: a panicking holder cannot leave the
    // append-only table in a state later readers would misread.
    fn read(&self) -> RwLockReadGuard<'_, SymbolTableInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, SymbolTableInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Intern `s`, returning its stable id.
    pub fn intern(&self, s: &str) -> SymbolId {
        if let Some(id) = self.read().map.get(s) {
            return *id;
        }
        let mut inner = self.write();
        // Re-check: another thread may have interned between the read and
        // write lock acquisitions.
        if let Some(id) = inner.map.get(s) {
            return *id;
        }
        let id = SymbolId(
            u32::try_from(inner.strings.len()).expect("symbol table exceeded u32::MAX entries"),
        );
        let arc: Arc<str> = Arc::from(s);
        inner.strings.push(Arc::clone(&arc));
        inner.map.insert(arc, id);
        id
    }

    /// Look up a symbol without interning it.
    pub fn get(&self, s: &str) -> Option<SymbolId> {
        self.read().map.get(s).copied()
    }

    /// The string for `id`. Panics if `id` was produced by a different table.
    pub fn resolve(&self, id: SymbolId) -> Arc<str> {
        Arc::clone(
            self.read()
                .strings
                .get(id.index())
                .expect("SymbolId from a foreign SymbolTable"),
        )
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.read().strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All symbols whose string starts with `prefix`, in id order.
    ///
    /// This supports the §1.3 browsing query "what objects have an attribute
    /// name that starts with `act`" without scanning the data graph.
    pub fn symbols_with_prefix(&self, prefix: &str) -> Vec<SymbolId> {
        let inner = self.read();
        inner
            .strings
            .iter()
            .enumerate()
            .filter(|(_, s)| s.starts_with(prefix))
            .map(|(i, _)| SymbolId(i as u32))
            .collect()
    }

    /// Snapshot of all interned strings, indexed by `SymbolId`.
    pub fn snapshot(&self) -> Vec<Arc<str>> {
        self.read().strings.clone()
    }
}

/// A shareable handle to a symbol table.
pub type Symbols = Arc<SymbolTable>;

/// Create a fresh shareable symbol table.
pub fn new_symbols() -> Symbols {
    Arc::new(SymbolTable::new())
}

impl fmt::Display for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn intern_is_idempotent() {
        let t = SymbolTable::new();
        let a = t.intern("Movie");
        let b = t.intern("Movie");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let t = SymbolTable::new();
        let a = t.intern("Title");
        let b = t.intern("Cast");
        assert_eq!(&*t.resolve(a), "Title");
        assert_eq!(&*t.resolve(b), "Cast");
        assert_ne!(a, b);
    }

    #[test]
    fn get_does_not_intern() {
        let t = SymbolTable::new();
        assert_eq!(t.get("x"), None);
        let id = t.intern("x");
        assert_eq!(t.get("x"), Some(id));
    }

    #[test]
    fn prefix_search() {
        let t = SymbolTable::new();
        let actors = t.intern("Actors");
        t.intern("Director");
        let act = t.intern("act");
        let found = t.symbols_with_prefix("Act");
        assert_eq!(found, vec![actors]);
        let found_lower = t.symbols_with_prefix("act");
        assert_eq!(found_lower, vec![act]);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let t = new_symbols();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            handles.push(thread::spawn(move || {
                (0..100)
                    .map(|i| t.intern(&format!("sym{}", i % 10)))
                    .collect::<Vec<_>>()
            }));
        }
        let results: Vec<Vec<SymbolId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(t.len(), 10);
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    #[should_panic(expected = "foreign SymbolTable")]
    fn foreign_id_panics() {
        let a = SymbolTable::new();
        let b = SymbolTable::new();
        let id = a.intern("only-in-a");
        let _ = b.resolve(id);
    }
}
