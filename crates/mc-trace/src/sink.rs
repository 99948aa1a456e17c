//! Event sinks: where instrumented code sends its events.
//!
//! The contract is built for a hot path: producers call
//! [`TraceSink::enabled`] before assembling any event, and the default
//! implementation answers `false`, so an untraced run pays one virtual
//! call (typically a branch on a `None` option before even that) and
//! allocates nothing.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::event::TraceEvent;

/// Receives trace events from instrumented code.
///
/// The default methods implement a no-op sink: `enabled` is `false` and
/// `record` drops the event. Implementors that store events override
/// both.
pub trait TraceSink: std::fmt::Debug + Send + Sync {
    /// Whether producers should assemble and send events at all.
    /// Producers must check this before building an event.
    fn enabled(&self) -> bool {
        false
    }

    /// Accepts one event. May drop it (bounded sinks under pressure).
    fn record(&self, event: TraceEvent) {
        let _ = event;
    }
}

/// The no-op sink: every event is dropped before it is built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// Default capacity of a [`RingSink`] (events).
const DEFAULT_RING_CAPACITY: usize = 65_536;

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded, thread-safe ring-buffer sink.
///
/// When the buffer is full the **oldest** event is evicted and counted
/// in [`RingSink::dropped`] — a long run keeps its most recent window,
/// and consumers can tell whether the window is complete (cross-checks
/// over totals are only valid when `dropped() == 0`).
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl RingSink {
    /// A ring holding `DEFAULT_RING_CAPACITY` (65 536) events.
    pub fn new() -> Self {
        RingSink::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A ring holding at most `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("ring poisoned").events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("ring poisoned").dropped
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .expect("ring poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Discards all retained events and resets the dropped counter.
    pub fn clear(&self) {
        let mut ring = self.ring.lock().expect("ring poisoned");
        ring.events.clear();
        ring.dropped = 0;
    }
}

impl Default for RingSink {
    fn default() -> Self {
        RingSink::new()
    }
}

impl TraceSink for RingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        let mut ring = self.ring.lock().expect("ring poisoned");
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(t: f64) -> TraceEvent {
        TraceEvent::Counter {
            name: "w".into(),
            device: 0,
            t_us: t,
            value: t,
        }
    }

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.record(counter(1.0)); // must not panic
    }

    #[test]
    fn ring_retains_in_order_up_to_capacity() {
        let sink = RingSink::with_capacity(3);
        assert!(sink.enabled());
        assert!(sink.is_empty());
        for i in 0..5 {
            sink.record(counter(i as f64));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        // Oldest were evicted; the window is the most recent 3.
        let ts: Vec<f64> = sink
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Counter { t_us, .. } => *t_us,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ts, vec![2.0, 3.0, 4.0]);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn ring_is_shareable_across_threads() {
        let sink = std::sync::Arc::new(RingSink::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let s = sink.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        s.record(counter((i * 100 + j) as f64));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.len(), 400);
        assert_eq!(sink.dropped(), 0);
    }
}
