//! In-memory span recording around calls into the workspace layers.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (the library itself is untouched): name, start, end, the span that
//! caused it, and one id per job, qubit, coupler or request. They stay in
//! memory while the workload runs and are written out as JSON lines when
//! the run ends. A span's layer is its name up to the first `.`
//! (`qcircuit`, `calib`, `core`, `serve`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder. Threads each own one and the spans are
/// merged into a [`Profile`] at the end, so recording takes no lock.
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Tracer {
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span that may open child spans.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.span(name, id, |_| f())
    }
}

/// The merged spans of a traced run.
#[derive(Default)]
pub struct Profile {
    spans: Vec<Span>,
}

impl Profile {
    /// Adds a recorder's spans.
    pub fn absorb(&mut self, tracer: Tracer) {
        self.append(tracer.spans);
    }

    /// Adds another profile's spans.
    pub fn absorb_profile(&mut self, other: Profile) {
        self.append(other.spans);
    }

    /// Appends spans, rebasing their parent indices.
    fn append(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Inclusive milliseconds spent in spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Self time per layer in ms: each span's duration minus the part
    /// its child spans cover, summed by layer.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// Nanoseconds covered by top-level spans (spans of one thread never
    /// overlap, so this is thread-time).
    pub fn covered_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.id, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_roots() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.span("core.engine.job", 1, |t| {
            t.leaf("core.exec.digiq_opt", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        t.leaf("calib.cz.uqq", 2, || ());
        let mut p = Profile::default();
        p.absorb(t);
        assert_eq!(p.spans().len(), 3);
        assert_eq!(p.spans()[1].parent, Some(0));
        assert_eq!(p.spans()[1].name, "core.exec.digiq_opt");
        let selfs = p.self_ms_by_layer();
        let root = p.total_ms("core.engine.job");
        // Both core spans fold into one layer; together they are the
        // root's inclusive time.
        assert!((selfs["core"] - root).abs() < 1e-6);
        assert!(p.total_ms("core.exec.digiq_opt") >= 3.0);
        assert_eq!(
            p.covered_ns(),
            p.spans()[0].dur_ns() + p.spans()[2].dur_ns()
        );
    }
}
