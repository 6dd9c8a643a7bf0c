//! The flight recorder: a bounded ring of recent structured events plus
//! deterministic tick-stamped post-mortem bundles.
//!
//! Averages tell you the fleet is healthy; the flight recorder tells you
//! what the one mistimed probe round or tripped breaker actually did. The
//! [`FlightSink`] sits behind an ordinary [`Recorder`](crate::Recorder) and
//! keeps three things, all bounded and allocation-stable:
//!
//! * a [`FlightRecorder`] ring of the most recent events, each stamped
//!   with the serving runtime's logical tick (never wall clock) and the
//!   session/clip trace context;
//! * an always-on [`Registry`] fold, so a live metrics snapshot is always
//!   one call away;
//! * a bounded queue of [`Postmortem`] bundles captured whenever an
//!   anomaly trigger fires (breaker trip, shed burst, watchdog retrigger,
//!   suspicious probe verdict).
//!
//! Post-mortems render as JSONL via [`Postmortem::to_jsonl`]; because
//! events are stored without their wall-clock durations, two runs of the
//! same seeded scenario dump byte-identical bundles.

use crate::event::{Event, EventKind};
use crate::lock;
use crate::registry::{Registry, Snapshot};
use crate::sink::Sink;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sizing for a [`FlightSink`]. Both bounds are hard: the ring drops its
/// oldest events (counted, never silent) and the post-mortem queue drops
/// its oldest bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightConfig {
    /// Ring capacity in events.
    pub capacity: usize,
    /// Post-mortem bundles retained before the oldest is evicted.
    pub max_postmortems: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 4096,
            max_postmortems: 8,
        }
    }
}

/// One event as retained by the flight recorder: the deterministic fields
/// of an [`Event`], stamped with the logical tick that was current when it
/// was recorded. There is no wall-clock field at all, so post-mortems are
/// byte-identical across runs of the same seeded scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Logical tick of the serving runtime when the event was recorded.
    pub tick: u64,
    /// Per-recorder sequence number (emission order).
    pub seq: u64,
    /// Event discriminator.
    pub kind: EventKind,
    /// Metric, span or annotation name.
    pub name: String,
    /// Enclosing span, if any.
    pub parent: Option<String>,
    /// Span-stack depth at emission time.
    pub depth: u64,
    /// Session trace tag, if a session scope was open.
    pub session: Option<u64>,
    /// Clip trace tag, if a clip scope was open.
    pub clip: Option<u64>,
    /// Numeric payload (counter delta, gauge level, observed sample).
    pub value: Option<f64>,
    /// Free-form annotation payload.
    pub detail: Option<String>,
}

impl FlightEvent {
    fn from_event(tick: u64, event: &Event) -> Self {
        FlightEvent {
            tick,
            seq: event.seq,
            kind: event.kind,
            name: event.name.clone(),
            parent: event.parent.clone(),
            depth: event.depth,
            session: event.session,
            clip: event.clip,
            value: event.value,
            detail: event.detail.clone(),
        }
    }
}

/// A bounded ring buffer of [`FlightEvent`]s. Once full, every push evicts
/// the oldest event and increments [`FlightRecorder::dropped_events`] — the
/// loss is explicit, never silent.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<FlightEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// An empty ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: VecDeque::with_capacity(capacity.max(1)),
            dropped: 0,
        }
    }

    /// Appends one event, evicting the oldest when full.
    pub fn push(&mut self, event: FlightEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring.iter().cloned().collect()
    }

    /// Events evicted so far to make room for newer ones.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// A frozen copy of the flight ring taken at an anomaly trigger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Postmortem {
    /// Why the bundle was captured (e.g. `breaker_tripped`, `shed_burst`).
    pub reason: String,
    /// Logical tick at capture time.
    pub tick: u64,
    /// Ring evictions before capture: how much history was already lost.
    pub dropped_events: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

/// The first line of a [`Postmortem::to_jsonl`] dump.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PostmortemHeader {
    /// Why the bundle was captured.
    pub reason: String,
    /// Logical tick at capture time.
    pub tick: u64,
    /// Ring evictions before capture.
    pub dropped_events: u64,
    /// Number of event lines that follow.
    pub event_count: u64,
}

impl Postmortem {
    /// Renders the bundle as JSONL: one header line (reason, tick, drop
    /// count, event count) followed by one line per event, oldest first.
    /// Deterministic for seeded scenarios — no wall-clock field exists.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = PostmortemHeader {
            reason: self.reason.clone(),
            tick: self.tick,
            dropped_events: self.dropped_events,
            event_count: self.events.len() as u64,
        };
        if let Ok(line) = serde_json::to_string(&header) {
            out.push_str(&line);
            out.push('\n');
        }
        for event in &self.events {
            if let Ok(line) = serde_json::to_string(event) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

struct FlightState {
    ring: FlightRecorder,
    registry: Registry,
    postmortems: VecDeque<Postmortem>,
    max_postmortems: usize,
}

/// A [`Sink`] that maintains the flight ring, an always-on metrics
/// registry and the captured post-mortems.
///
/// The owner (the serving runtime) advances the logical tick with
/// [`FlightSink::set_tick`]; every event recorded afterwards is stamped
/// with that tick. [`FlightSink::trigger`] freezes the current ring into a
/// [`Postmortem`].
pub struct FlightSink {
    tick: AtomicU64,
    state: Mutex<FlightState>,
}

impl std::fmt::Debug for FlightSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightSink")
            .field("tick", &self.tick())
            .finish_non_exhaustive()
    }
}

impl FlightSink {
    /// An empty flight sink.
    pub fn new(config: FlightConfig) -> Self {
        FlightSink {
            tick: AtomicU64::new(0),
            state: Mutex::new(FlightState {
                ring: FlightRecorder::new(config.capacity),
                registry: Registry::new(),
                postmortems: VecDeque::new(),
                max_postmortems: config.max_postmortems.max(1),
            }),
        }
    }

    /// Sets the logical tick stamped onto subsequently recorded events.
    pub fn set_tick(&self, tick: u64) {
        self.tick.store(tick, Ordering::Relaxed);
    }

    /// The current logical tick.
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Freezes the current ring into a [`Postmortem`] tagged `reason`,
    /// evicting the oldest retained bundle when the queue is full.
    pub fn trigger(&self, reason: &str) {
        let tick = self.tick();
        let mut state = lock(&self.state);
        let bundle = Postmortem {
            reason: reason.to_string(),
            tick,
            dropped_events: state.ring.dropped_events(),
            events: state.ring.events(),
        };
        if state.postmortems.len() == state.max_postmortems {
            state.postmortems.pop_front();
        }
        state.postmortems.push_back(bundle);
    }

    /// The most recently captured post-mortem, if any.
    pub fn latest_postmortem(&self) -> Option<Postmortem> {
        lock(&self.state).postmortems.back().cloned()
    }

    /// Every retained post-mortem, oldest first.
    pub fn postmortems(&self) -> Vec<Postmortem> {
        lock(&self.state).postmortems.iter().cloned().collect()
    }

    /// Snapshot of the always-on metrics fold.
    pub fn registry_snapshot(&self) -> Snapshot {
        lock(&self.state).registry.snapshot()
    }

    /// Ring evictions so far (history lost to the bound).
    pub fn dropped_events(&self) -> u64 {
        lock(&self.state).ring.dropped_events()
    }
}

impl Sink for FlightSink {
    fn record(&self, event: &Event) {
        let tick = self.tick();
        let mut state = lock(&self.state);
        // The registry folds the raw event (span durations feed the timing
        // histograms); the ring keeps only the deterministic fields.
        state.registry.absorb(event);
        state.ring.push(FlightEvent::from_event(tick, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use std::sync::Arc;

    fn flight_pair(capacity: usize) -> (Recorder, Arc<FlightSink>) {
        let sink = Arc::new(FlightSink::new(FlightConfig {
            capacity,
            max_postmortems: 2,
        }));
        (Recorder::new(sink.clone()), sink)
    }

    #[test]
    fn ring_wraparound_drops_oldest_and_counts() {
        let mut ring = FlightRecorder::new(4);
        for seq in 0..10u64 {
            ring.push(FlightEvent {
                tick: seq,
                seq,
                kind: EventKind::Mark,
                name: "m".to_string(),
                parent: None,
                depth: 0,
                session: None,
                clip: None,
                value: None,
                detail: None,
            });
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped_events(), 6);
        let seqs: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest events are the ones lost");
    }

    #[test]
    fn events_are_stamped_with_the_current_tick() {
        let (rec, sink) = flight_pair(64);
        sink.set_tick(3);
        rec.add("a", 1);
        sink.set_tick(7);
        rec.add("b", 1);
        sink.trigger("test");
        let pm = sink.latest_postmortem().unwrap();
        assert_eq!(pm.tick, 7);
        assert_eq!(pm.events[0].tick, 3);
        assert_eq!(pm.events[1].tick, 7);
    }

    #[test]
    fn span_durations_never_reach_the_ring_but_feed_the_registry() {
        let (rec, sink) = flight_pair(64);
        {
            let _g = rec.span("detect");
        }
        sink.trigger("test");
        let pm = sink.latest_postmortem().unwrap();
        let end = pm
            .events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd)
            .unwrap();
        assert!(
            !pm.to_jsonl().contains("duration"),
            "no wall clock in dumps"
        );
        assert_eq!(end.name, "detect");
        let snap = sink.registry_snapshot();
        assert_eq!(snap.spans.len(), 1, "registry still aggregates timings");
    }

    #[test]
    fn postmortem_queue_is_bounded() {
        let (rec, sink) = flight_pair(8);
        rec.add("x", 1);
        sink.trigger("one");
        sink.trigger("two");
        sink.trigger("three");
        let bundles = sink.postmortems();
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].reason, "two");
        assert_eq!(bundles[1].reason, "three");
    }

    #[test]
    fn jsonl_round_trips_and_counts_header() {
        let (rec, sink) = flight_pair(8);
        let _s = rec.session_scope(5);
        rec.mark("serve.breaker", "Closed->Tripped");
        sink.trigger("breaker_tripped");
        let text = sink.latest_postmortem().unwrap().to_jsonl();
        let mut lines = text.lines();
        let header: PostmortemHeader = serde_json::from_str(lines.next().unwrap()).unwrap();
        assert_eq!(header.reason, "breaker_tripped");
        assert_eq!(header.event_count, 1);
        let event: FlightEvent = serde_json::from_str(lines.next().unwrap()).unwrap();
        assert_eq!(event.session, Some(5));
        assert_eq!(event.detail.as_deref(), Some("Closed->Tripped"));
    }
}
