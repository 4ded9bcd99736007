//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions. A span is `(name, start, end, parent, op)`;
//! spans of one operation share its `op` id. Nothing is written until
//! [`Tracer::write_jsonl`] runs at exit, so recording costs two clock
//! reads and one `Vec` push per span.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.round`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, in ns.
    pub total_ns: u64,
    /// Summed duration minus the time child spans cover, in ns.
    pub self_ns: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Totals per span name, with self time computed from the children.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Summed duration of spans named `name`, in seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.totals()
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 * 1e-9)
    }

    /// Share of the traced wall time (the summed root spans) that layer
    /// spans cover: one minus the roots' own self time over their
    /// duration. Roots only group an operation's layer calls.
    pub fn coverage(&self) -> f64 {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect();
        let wall: u64 = roots
            .iter()
            .map(|&i| self.spans[i].end_ns - self.spans[i].start_ns)
            .sum();
        let mut covered = 0u64;
        for s in &self.spans {
            if s.parent.is_some_and(|p| self.spans[p].parent.is_none()) {
                covered += s.end_ns - s.start_ns;
            }
        }
        if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_excludes_roots() {
        let mut t = Tracer::default();
        let op = t.enter("op");
        let round = t.enter("core.round");
        t.span("net.inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(round);
        t.exit(op);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let totals = t.totals();
        assert_eq!(totals["net.inner"].count, 1);
        assert!(totals["net.inner"].self_ns >= 2_000_000);
        assert!(totals["core.round"].self_ns < totals["core.round"].total_ns);
        let c = t.coverage();
        assert!(c > 0.5 && c <= 1.0, "coverage {c}");
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn spans_must_nest() {
        let mut t = Tracer::default();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
