//! The benchmark's own spans: opened around each public call it makes
//! into a layer, kept in memory, and written once at exit as a Chrome
//! trace (loadable in Perfetto) through `mc_trace::chrome_trace_json`.
//! Nothing inside the program under test is instrumented.

use std::time::Instant;

use mc_trace::{ArgValue, Category, SpanEvent, TraceEvent, Track, HOST_DEVICE};

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The public call or benchmark phase the span covers.
    pub name: String,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (or probe) the span belongs to; 0 outside any op.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An in-memory span recorder. A disabled tracer records nothing, so
/// untraced ops run the same code at the cost of one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle for a span opened by [`Tracer::begin`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans opened from now on with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span; spans close in the reverse order they opened.
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else {
            return;
        };
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close innermost first");
        self.spans[index].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as host-plane trace events: one caller lane, each span
    /// carrying its id, parent id and op id as args.
    pub fn to_events(&self) -> Vec<TraceEvent> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("span".to_owned(), ArgValue::U64(id as u64)),
                    ("op".to_owned(), ArgValue::U64(s.op)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_owned(), ArgValue::U64(p as u64)));
                }
                TraceEvent::Span(SpanEvent {
                    name: s.name.clone(),
                    category: if s.parent.is_some() {
                        Category::HostPhase
                    } else {
                        Category::HostRegion
                    },
                    device: HOST_DEVICE,
                    track: Track::HostCall(0),
                    t0_us: s.start_us,
                    dur_us: s.end_us - s.start_us,
                    args,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let outer = t.begin("op");
        t.span("call", || std::hint::black_box(1 + 1));
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].end_us >= t.spans()[1].end_us);
        let json = mc_trace::chrome_trace_json(&t.to_events());
        assert!(json.contains("traceEvents"), "{json}");

        let mut off = Tracer::new(false);
        off.span("call", || ());
        assert!(off.spans().is_empty());
    }
}
