//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds a name, start, end, the id of the span that caused it
//! (0 for none) and a request id shared by every span of one request.
//! Spans stay in memory until the run ends and are then written out as
//! one tab-separated file.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started but not ended.
#[must_use = "an open span records nothing until it is ended"]
pub struct Open {
    pub id: u32,
    parent: u32,
    name: &'static str,
    request: u64,
    start_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn start(&self, name: &'static str, parent: u32, request: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            request,
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open` now and returns its duration in nanoseconds.
    pub fn end(&self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            request: open.request,
            start_ns: open.start_ns,
            end_ns,
        };
        let dur = span.duration_ns();
        self.spans.lock().expect("span list poisoned").push(span);
        dur
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Sum of the durations of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Writes every span as `id parent name request start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Starts a span when tracing is on.
pub fn start(tracer: Option<&Tracer>, name: &'static str, parent: u32, req: u64) -> Option<Open> {
    tracer.map(|t| t.start(name, parent, req))
}

/// Ends a span started by [`start`].
pub fn end(tracer: Option<&Tracer>, open: Option<Open>) {
    if let (Some(t), Some(o)) = (tracer, open) {
        t.end(o);
    }
}
