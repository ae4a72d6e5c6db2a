//! In-memory span tracing for the traced run.
//!
//! A span records a name, a start, an end, its parent span and an
//! optional request id. Spans nest per thread automatically; work that
//! runs on other threads (load-generator connections) names its parent
//! explicitly. Nothing is written until the run ends, when the spans go
//! out as Chrome trace-event JSON (Perfetto and `about:tracing` open it
//! with nothing to install) and as a per-span-name self-time table.
//!
//! A disabled tracer still times: [`Span::end`] returns the elapsed
//! seconds either way, so untraced runs measure through the same code
//! path minus the recording.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::clock::{Speed, Stamp};

/// One finished span, times in seconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name; per-layer metrics are keyed by it.
    pub name: String,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Request id for spans that serve one client request.
    pub req: Option<u64>,
    /// Small per-thread number for the trace viewer.
    pub tid: u64,
}

impl SpanRecord {
    /// Inclusive duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans when enabled; only times when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Stamp,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// A running span; ends on [`Span::end`] or on drop.
#[derive(Debug)]
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: String,
    req: Option<u64>,
    start: Stamp,
    nested: bool,
    done: bool,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Stamp::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the calling thread's innermost open span.
    pub fn span(&self, name: &str) -> Span<'_> {
        let parent = if self.enabled {
            OPEN.with(|open| open.borrow().last().copied())
        } else {
            None
        };
        self.open(name, parent, None, true)
    }

    /// Opens a span under an explicit parent (work on another thread),
    /// tagged with a request id. It does not nest further spans of this
    /// thread under itself.
    pub fn span_under(&self, name: &str, parent: Option<u64>, req: Option<u64>) -> Span<'_> {
        self.open(name, parent, req, false)
    }

    fn open(&self, name: &str, parent: Option<u64>, req: Option<u64>, nested: bool) -> Span<'_> {
        let id = if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            if nested {
                OPEN.with(|open| open.borrow_mut().push(id));
            }
            id
        } else {
            0
        };
        Span {
            tracer: self,
            id,
            parent,
            name: if self.enabled {
                name.to_string()
            } else {
                String::new()
            },
            req,
            start: Stamp::now(),
            nested: nested && self.enabled,
            done: false,
        }
    }

    /// Takes one host-speed reference sample in a span of its own, so a
    /// traced pass stays covered by its child spans.
    pub fn speed_sample(&self, speed: &mut Speed) {
        let span = self.span("bench.speed_reference");
        speed.sample();
        span.end();
    }

    /// Every recorded span, in end order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    fn record(&self, span: SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(span);
    }
}

impl Span<'_> {
    /// This span's id (0 when tracing is off), for explicit children.
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }

    /// Ends the span, returning its duration in seconds.
    pub fn end(mut self) -> f64 {
        self.finish()
    }

    fn finish(&mut self) -> f64 {
        let end = Stamp::now();
        let secs = end.secs_since(self.start);
        if self.done {
            return secs;
        }
        self.done = true;
        if self.nested {
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                    open.truncate(pos);
                }
            });
        }
        if self.tracer.enabled {
            let epoch = self.tracer.epoch;
            self.tracer.record(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: std::mem::take(&mut self.name),
                start: self.start.secs_since(epoch),
                end: end.secs_since(epoch),
                req: self.req,
                tid: TID.with(|t| *t),
            });
        }
        secs
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-span seconds not covered by any child span (children may run
/// concurrently, so coverage is the union of their intervals).
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.secs() - covered(kids, s.start, s.end))
        })
        .collect()
}

/// Calls, inclusive seconds and self seconds per span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameStats {
    /// Spans of this name.
    pub calls: usize,
    /// Summed inclusive seconds.
    pub total: f64,
    /// Summed self seconds.
    pub self_secs: f64,
}

/// Aggregates spans by name.
pub fn by_name(spans: &[SpanRecord]) -> BTreeMap<String, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.calls += 1;
        e.total += s.secs();
        e.self_secs += selfs.get(&s.id).copied().unwrap_or(0.0);
    }
    out
}

/// Renders the self-time table, heaviest self time first.
pub fn self_time_table(spans: &[SpanRecord]) -> String {
    let mut rows: Vec<(String, NameStats)> = by_name(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1.self_secs.total_cmp(&a.1.self_secs));
    let mut out = format!(
        "{:<36} {:>8} {:>12} {:>12}\n",
        "span", "calls", "total ms", "self ms"
    );
    for (name, s) in rows {
        let _ = writeln!(
            out,
            "{:<36} {:>8} {:>12.3} {:>12.3}",
            name,
            s.calls,
            s.total * 1e3,
            s.self_secs * 1e3
        );
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Chrome trace-event JSON ("X" complete events, microseconds).
pub fn chrome_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            json_str(&s.name),
            s.tid,
            s.start * 1e6,
            s.secs() * 1e6,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req.map_or("null".to_string(), |r| r.to_string()),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            start,
            end,
            req: None,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, "root", 0.0, 10.0),
            rec(2, Some(1), "a", 1.0, 4.0),
            rec(3, Some(1), "b", 3.0, 6.0), // overlaps a
            rec(4, Some(2), "leaf", 1.0, 2.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 5.0).abs() < 1e-12);
        assert!((selfs[&2] - 2.0).abs() < 1e-12);
        assert!((selfs[&4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_find_their_parent() {
        let t = Tracer::new(true);
        {
            let outer = t.span("outer");
            let inner = t.span("inner");
            inner.end();
            outer.end();
        }
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(chrome_json(&spans).contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_still_times() {
        let t = Tracer::new(false);
        let s = t.span("x");
        assert!(s.id().is_none());
        assert!(s.end() >= 0.0);
        assert!(t.spans().is_empty());
    }
}
