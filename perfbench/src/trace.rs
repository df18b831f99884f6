//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public function, kept in memory, and written out as one
//! JSON document when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use aji_support::{Json, ToJson};

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with an open-span stack for parents.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: usize) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Total milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total self time, in milliseconds, of the spans named `name`: each
    /// span's duration minus the durations of its direct children
    /// (children of one parent never overlap).
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.ns() - child_ns.get(&i).copied().unwrap_or(0)) as f64 / 1e6)
            .sum()
    }

    /// Writes every span as JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("op", s.op.to_json()),
                    ("parent", s.parent.map_or(Json::Null, |p| p.to_json())),
                    ("start_ns", s.start_ns.to_json()),
                    ("end_ns", s.end_ns.to_json()),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::Arr(spans).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::default();
        let op = t.begin("op", 0);
        t.span("a", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", 0, || {});
        t.end(op);
        let total = t.total_ms("op");
        let children = t.total_ms("a") + t.total_ms("b");
        assert!((t.self_ms("op") - (total - children)).abs() < 1e-9);
        assert_eq!(t.count("a"), 1);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
