//! Pluggable event sinks: in-memory aggregation and line-delimited JSON
//! capture. Disabled telemetry has no sink at all: it is
//! [`Recorder::null`](crate::recorder::Recorder::null).

use crate::event::Event;
use crate::lock;
use crate::registry::{Registry, Snapshot};
use std::io::{self, Write};
use std::sync::{Mutex, PoisonError};

/// Consumes observability events. Implementations must be cheap and
/// infallible from the caller's point of view: instrumentation must never
/// fail the pipeline it observes.
pub trait Sink: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);
}

/// Buffers every event in memory and aggregates on demand.
#[derive(Debug, Default)]
pub struct InMemorySink {
    events: Mutex<Vec<Event>>,
}

impl InMemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        InMemorySink::default()
    }

    /// A copy of every recorded event, in emission order.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.events).clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.events).is_empty()
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        lock(&self.events).clear();
    }

    /// Folds the recorded events into an aggregated registry.
    pub fn registry(&self) -> Registry {
        Registry::from_events(&lock(&self.events))
    }

    /// Aggregated, serializable snapshot of the recorded events.
    pub fn snapshot(&self) -> Snapshot {
        self.registry().snapshot()
    }
}

impl Sink for InMemorySink {
    fn record(&self, event: &Event) {
        lock(&self.events).push(event.clone());
    }
}

/// Writes one JSON object per event, newline-delimited — the standard
/// format for offline analysis tooling. Write errors are swallowed
/// (instrumentation must not fail the pipeline); call
/// [`JsonlSink::flush`] to surface buffered-IO completion.
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the writer's flush error.
    pub fn flush(&self) -> io::Result<()> {
        lock(&self.out).flush()
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl JsonlSink<Vec<u8>> {
    /// The captured JSONL text so far (in-memory writer only) — handy for
    /// tests and determinism checks.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&lock(&self.out)).into_owned()
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&self, event: &Event) {
        if let Ok(line) = serde_json::to_string(event) {
            let mut out = lock(&self.out);
            let _ = out.write_all(line.as_bytes());
            let _ = out.write_all(b"\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn event(seq: u64) -> Event {
        Event {
            seq,
            kind: EventKind::Observe,
            name: "score".to_string(),
            parent: None,
            depth: 0,
            session: None,
            clip: None,
            value: Some(1.25),
            duration_ns: None,
            detail: None,
        }
    }

    #[test]
    fn in_memory_sink_buffers_in_order() {
        let sink = InMemorySink::new();
        assert!(sink.is_empty());
        sink.record(&event(0));
        sink.record(&event(1));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        sink.clear();
        assert_eq!(sink.len(), 0);
    }

    #[test]
    fn jsonl_round_trip() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(&event(0));
        sink.record(&event(1));
        let text = sink.contents();
        let back: Vec<Event> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back, vec![event(0), event(1)]);
    }
}
