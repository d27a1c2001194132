//! In-memory span recorder for the traced run. Spans are recorded around
//! the benchmark's own calls into each layer (never inside the program),
//! kept in a `Vec` while the replay runs, and written out once at the end.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The request the span belongs to, when it belongs to one.
    pub request: Option<u64>,
}

/// Span store with one time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: Option<u64>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        id
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent, request);
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.request)
            )?;
        }
        w.flush()
    }
}
