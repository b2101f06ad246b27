//! In-memory span recording for the traced run.
//!
//! Spans are taken only around public library calls made from this
//! benchmark; the program's own telemetry sites are read, never added to.
//! A disabled tracer records nothing and reads no clock.

use crate::stats::Span;
use std::io::Write;
use std::time::Instant;

/// Collects spans against a shared origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle to an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer whose times count from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span under `parent`, tagged with `request` (0 for none).
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close a span opened with [`Self::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Record a span whose interval was measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Append another tracer's spans (same origin), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Spans recorded since index `from`, re-based so parents index into
    /// the returned slice (a parent outside it is dropped).
    pub fn since(&self, from: usize) -> Vec<Span> {
        self.spans[from..]
            .iter()
            .map(|s| Span {
                parent: s.parent.and_then(|p| p.checked_sub(from)),
                ..s.clone()
            })
            .collect()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}, \"parent\": {}, \"request_id\": {}}}",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
            )?;
        }
        w.flush()
    }
}

/// The root span handle (no parent).
pub const ROOT: SpanId = SpanId(None);
