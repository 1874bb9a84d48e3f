//! The traced run's span recorder: spans (name, start, end, parent,
//! thread) kept in memory and written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span, in nanoseconds since the
/// recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub thread: String,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// A span's handle: its index in the recorder.
pub type SpanId = usize;

/// In-memory span list with a shared time origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

/// The calling thread's label, as recorded on each span.
pub fn thread_label() -> String {
    format!("{:?}", std::thread::current().id())
}

impl Recorder {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span on the calling thread, starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            thread: thread_label(),
        });
        self.spans.len() - 1
    }

    /// Closes `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        self.spans[id].end_ns = self.ns(Instant::now());
        self.spans[id].seconds()
    }

    /// Times `f` as a span and returns its result with the duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Records a span measured elsewhere (a worker thread's commodity).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        thread: String,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            thread,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Summed duration of the direct children of `id`.
    pub fn children_seconds(&self, id: SpanId) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"thread\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, s.thread
            )?;
        }
        w.flush()
    }
}
