//! The benchmark's own spans: one at each layer boundary it calls
//! through, kept in memory and written out once the run ends.
//!
//! Spans nest by construction ([`Tracer::span`] runs its body with the
//! new span open), so a layer's *self* time is its span minus the part
//! of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed interval on the benchmark thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `rewl.run`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (pipeline run or request) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Tag the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, nested under whatever span is
    /// open. Returns `f`'s value.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Record an interval timed by the caller, nested under the open
    /// span (for loops too hot for a closure per step).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of the spans named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Durations (s) of the spans named `name` in operation `op`.
    pub fn op_total(&self, op: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time (s) of every span: its length minus the union of its
    /// children's intervals (clipped to the parent).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9
            })
            .collect()
    }

    /// Per span name, in first-seen order: `(name, count, total s,
    /// self s)` — the exclusive time is what a layer itself spent.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.secs();
                    r.3 += self_s;
                }
                None => rows.push((s.name, 1, s.secs(), self_s)),
            }
        }
        rows
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_times = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_s)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_s\":{self_s}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // run [0,100] holds range [0,10] and rewl [10,90]; rewl holds
        // gather [80,90].
        let t = tracer_with(vec![
            span("run", 0, 100, None),
            span("range", 0, 10, Some(0)),
            span("rewl", 10, 90, Some(0)),
            span("gather", 80, 90, Some(2)),
        ]);
        let s: Vec<f64> = t.self_times().iter().map(|x| x * 1e9).collect();
        assert!((s[0] - 10.0).abs() < 1e-6, "{s:?}");
        assert!((s[1] - 10.0).abs() < 1e-6);
        assert!((s[2] - 70.0).abs() < 1e-6);
        assert!((s[3] - 10.0).abs() < 1e-6);
        let rewl = t.summary().into_iter().find(|r| r.0 == "rewl").unwrap();
        assert_eq!(rewl.1, 1);
        assert!((rewl.2 * 1e9 - 80.0).abs() < 1e-6 && (rewl.3 * 1e9 - 70.0).abs() < 1e-6);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = tracer_with(vec![
            span("parent", 10, 50, None),
            span("a", 5, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 45, 70, Some(0)),
        ]);
        // Covered inside the parent: [10,40] and [45,50] = 35 ns.
        assert!((t.self_times()[0] * 1e9 - 5.0).abs() < 1e-6);
    }

    #[test]
    fn closure_spans_nest_and_record_parents() {
        let mut t = Tracer::new();
        t.set_op(7);
        let v = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            41 + 1
        });
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, 7);
        assert!(spans[1].secs() >= 0.002);
        assert!(t.self_times()[0] < spans[0].secs());
    }
}
