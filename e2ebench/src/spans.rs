//! The benchmark's own spans, kept in memory and written out when the
//! run ends.
//!
//! Each span has a name, start and end (µs since the run's origin), the
//! sequence number of the span that caused it, and the id shared by
//! every span of one request or cycle. Recording is off outside traced
//! windows, so untraced measurements pay nothing but one atomic load.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Sequence number, unique within the log.
    pub seq: u64,
    /// Layer-boundary name, e.g. `client.request` or `core.rollup`.
    pub name: &'static str,
    /// The request id (TCP) or cycle number (in-process).
    pub id: u64,
    /// The causing span's `seq`.
    pub parent: Option<u64>,
    /// Start, µs since the log's origin.
    pub start_us: u64,
    /// End, µs since the log's origin.
    pub end_us: u64,
}

/// An in-memory span log shared by the benchmark's threads.
pub struct SpanLog {
    origin: Instant,
    enabled: AtomicBool,
    next_seq: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty, disabled log whose clock starts at `origin`.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            enabled: AtomicBool::new(false),
            next_seq: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Records a finished span and returns its `seq` (0 when recording
    /// is off, which no real span uses).
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            seq,
            name,
            id,
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
        seq
    }

    /// Reserves a `seq` for a parent span recorded after its children
    /// (0 when recording is off).
    pub fn reserve(&self) -> u64 {
        if self.enabled() {
            self.next_seq.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span under a `seq` obtained from [`SpanLog::reserve`].
    pub fn record_reserved(
        &self,
        seq: u64,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if seq == 0 {
            return;
        }
        let span = Span {
            seq,
            name,
            id,
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Writes every span as one JSON object per line, in `seq` order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| s.seq);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"seq\":{},\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
                s.seq, s.name, s.id, parent, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
