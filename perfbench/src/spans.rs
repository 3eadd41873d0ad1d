//! Spans recorded by the benchmark around the public calls it makes.
//!
//! A span has a name, a start and an end relative to the tracer's epoch,
//! and the span that was open when it started (its parent). Spans stay in
//! memory and are written out as JSON lines when the run ends. A layer's
//! self time is its busy time minus the time its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Position in the tracer's span list (its identifier).
    pub id: usize,
    /// The span open when this one began, if any.
    pub parent: Option<usize>,
    /// Layer boundary name, such as `forecast.predict`.
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start_s: f64,
    /// End, seconds since the tracer's epoch.
    pub end_s: f64,
}

impl SpanRecord {
    /// Duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Per-name totals over a tracer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub busy_s: f64,
    /// Busy time minus the time direct children cover, seconds.
    pub self_s: f64,
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

/// Handle for an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> OpenSpan {
        if !self.enabled {
            return OpenSpan(None);
        }
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            id,
            parent: self.open.last().copied(),
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        OpenSpan(Some(id))
    }

    /// Closes `span` (and any span opened inside it and left open).
    pub fn exit(&mut self, span: OpenSpan) {
        let Some(id) = span.0 else { return };
        let now = self.epoch.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_s = now;
            if top == id {
                break;
            }
        }
    }

    /// Records a span that was timed elsewhere (for example on another
    /// thread) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            id,
            parent: self.open.last().copied(),
            name,
            start_s: at(start),
            end_s: at(end),
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Calls, busy time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.duration_s();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.end_s.is_finite()) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_s += s.duration_s();
            t.self_s += s.duration_s() - child_s[s.id];
        }
        out
    }

    /// The spans as JSON lines (`id`, `parent`, `name`, `start_s`,
    /// `end_s`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}}}",
                s.id, s.name, s.start_s, s.end_s
            );
        }
        out
    }
}
