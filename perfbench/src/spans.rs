//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (the program itself stays untraced).
//!
//! A span has a layer (the crate name: `query`, `triples`, `store`, ...),
//! a name, a parent and its start/end. Spans stay in memory during the
//! run and are written out once, as JSON lines, when it ends.

use std::io::Write;
use std::time::Instant;

use crate::report::median;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Spans {
    epoch: Instant,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (must be the innermost open span).
    pub fn close(&mut self, id: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a leaf span.
    pub fn time<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, name);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (ms) of every closed span with this layer and name.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name && s.end_ns > 0)
            .map(Span::ms)
            .collect()
    }

    /// Median duration (ms) of spans with this layer and name; 0 if none.
    pub fn median_ms(&self, layer: &str, name: &str) -> f64 {
        median(&self.durations(layer, name))
    }

    /// Total self time (ms) per layer: each span's duration minus the
    /// part its child spans cover.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e6;
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, total)) => *total += own,
                None => out.push((s.layer, own)),
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
                s.layer,
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new();
        let root = sp.open("bench", "op");
        sp.time("query", "parse", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        sp.close(root);
        let by_layer = sp.self_ms_by_layer();
        let query = by_layer.iter().find(|(l, _)| *l == "query").unwrap().1;
        let bench = by_layer.iter().find(|(l, _)| *l == "bench").unwrap().1;
        assert!(query >= 5.0);
        assert!(bench < query);
        assert_eq!(sp.durations("query", "parse").len(), 1);
    }
}
