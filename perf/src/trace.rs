//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing inside the library crates is
//! instrumented: a span times exactly one call made from this package.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use sdnav_json::Json;

/// One timed call. Its layer is the name's prefix up to the first `.`
/// (`sim.run` belongs to `sim`).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one pass or one request.
    pub request: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; see [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a trace lasts under 584 years")
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span. `f` receives the tracer so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records an already measured interval as a root span (for timings
    /// taken outside the tracer, such as a client's view of a request).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos())
                .expect("a trace lasts under 584 years")
        };
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            request: self.request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Calls per second of busy time for the spans named `name`; 0 when
    /// none ran.
    pub fn calls_per_s(&self, name: &str) -> f64 {
        let calls = self.spans.iter().filter(|s| s.name == name).count();
        crate::metrics::rate(calls as f64, self.busy_s(name))
    }

    /// Total self time, in seconds, of the spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        let own = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            .sum()
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let own = self_times_ns(&self.spans);
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::str(span.name)),
                ("layer", Json::str(span.layer())),
                ("request", Json::Num(span.request as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_us", Json::Num(span.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(span.end_ns as f64 / 1e3)),
                ("self_us", Json::Num(self_ns as f64 / 1e3)),
            ]);
            writeln!(out, "{}", line.to_compact())?;
        }
        out.flush()
    }
}

/// Each span's duration minus the part of its interval that its children
/// cover (overlapping children count once; parts outside the parent do not
/// count).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("sim.run", 10, 30, Some(0)),
            span("sim.run", 20, 40, Some(0)), // overlaps its sibling
            span("json.encode", 90, 120, Some(0)), // runs past its parent
            span("sim.build", 12, 18, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn nested_spans_record_parents_requests_and_layers() {
        let mut t = Tracer::new();
        t.set_request(3);
        let value = t.span("pass", |t| {
            t.span("sim.run", |_| ());
            t.span("json.encode", |_| 42)
        });
        assert_eq!(value, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3));
        assert_eq!(spans[1].layer(), "sim");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = self_times_ns(spans);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
    }
}
