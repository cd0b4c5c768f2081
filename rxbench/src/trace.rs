//! The traced run's spans: one root span per frame plus one child span per
//! public call into the receiver, tagged with the frame id and carrying
//! the call's counts. Spans live in memory and are written once, at the
//! end, as Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`).

use crate::report::json_str;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One span. Times are ns from the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer boundary: `frame` for a root, else the public call.
    pub name: &'static str,
    /// The frame this span belongs to.
    pub frame: u64,
    /// Index of the parent span in the same list (`None` for a root).
    pub parent: Option<usize>,
    /// Start, ns from the epoch.
    pub start_ns: u64,
    /// End, ns from the epoch.
    pub end_ns: u64,
    /// Counts attached to the span.
    pub args: Vec<(&'static str, f64)>,
}

/// Builds the span list frame by frame.
#[derive(Default)]
pub struct Trace {
    /// Every span recorded, parents before their children.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Opens a root span for `frame`; returns its index for the children.
    pub fn root(&mut self, frame: u64, start_ns: u64, end_ns: u64) -> usize {
        self.push(Span { name: "frame", frame, parent: None, start_ns, end_ns, args: Vec::new() })
    }

    /// Records a child span of `parent`.
    pub fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&'static str, f64)>,
    ) -> usize {
        let frame = self.spans[parent].frame;
        self.push(Span { name, frame, parent: Some(parent), start_ns, end_ns, args })
    }

    fn push(&mut self, mut span: Span) -> usize {
        span.end_ns = span.end_ns.max(span.start_ns);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Per span name: (spans, total duration ns, total self time ns). A
    /// span's self time is its duration minus the part of it that its
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let covered = covered_ns(&mut children[i], s.start_ns, s.end_ns);
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - covered;
        }
        out
    }

    /// Writes the spans as Chrome trace-event JSON: one `X` event per span
    /// (µs), frame id and counts in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = format!("\"frame\": {}", s.frame);
            for (k, v) in &s.args {
                args.push_str(&format!(", {}: {v:?}", json_str(k)));
            }
            writeln!(
                f,
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{args}}}}}{}",
                json_str(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let r = t.root(0, 0, 100);
        t.child(r, "a", 10, 40, Vec::new());
        t.child(r, "b", 30, 60, Vec::new()); // overlaps a by 10
        let st = t.self_times();
        assert_eq!(st["frame"], (1, 100, 50));
        assert_eq!(st["a"], (1, 30, 30));
        assert_eq!(st["b"], (1, 30, 30));
    }
}
