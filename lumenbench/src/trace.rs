//! Traced mode. Spans are taken from outside, around public calls, and
//! kept in memory until the run ends. Layers that run inside another
//! layer's single public call (decode, offers, tick and commit inside
//! `Daemon::turn_once`; shard ticks and detection inside `Fleet::tick`)
//! are timed by feeding the turn's identical inputs to shadow instances
//! of the inner layer, whose spans become children of the outer span.
//! A layer's self time is its span minus its children.

use crate::host::now_ns;
use crate::report::object;
use crate::Result;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_obs::{stage, FlightConfig, FlightSink, Histogram, InMemorySink, Recorder};
use serde::Serialize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Identifies a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `serve.tick`.
    pub name: &'static str,
    /// Start, nanoseconds on the benchmark's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the benchmark's clock.
    pub end_ns: u64,
    /// The span this one is attributed to.
    pub parent: Option<SpanId>,
    /// The clip the span worked on: session index and clip number.
    pub clip: Option<(usize, u64)>,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus children), nanoseconds.
    pub self_ns: u64,
}

/// The in-memory span log of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Records a span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.record_clip(name, start_ns, end_ns, parent, None)
    }

    /// Records a span that worked on one clip.
    pub fn record_clip(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        clip: Option<(usize, u64)>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            clip,
        });
        self.spans.len() - 1
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time of every span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| child_ns.get_mut(p)) {
                *slot += span.ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.ns();
            t.self_ns += span.ns().saturating_sub(children);
        }
        out
    }

    /// Durations of every span named `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect();
        out.sort_unstable();
        out
    }

    /// The log as JSON lines: id, name, start, end, parent, session, clip.
    ///
    /// # Errors
    ///
    /// Fails when a span cannot be rendered as JSON.
    pub fn to_jsonl(&self) -> Result<String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let span = object(vec![
                ("id", id.serialize()),
                ("name", s.name.serialize()),
                ("start_ns", s.start_ns.serialize()),
                ("end_ns", s.end_ns.serialize()),
                ("parent", s.parent.serialize()),
                ("session", s.clip.map(|c| c.0).serialize()),
                ("clip", s.clip.map(|c| c.1).serialize()),
            ]);
            out.push_str(&serde_json::to_string(&span)?);
            out.push('\n');
        }
        Ok(out)
    }
}

/// The detector's own stage spans and the span each is reported under.
const STAGES: [(&str, &str); 4] = [
    (stage::PREPROCESS, "detect.preprocess"),
    (stage::CHANGE_DETECTION, "detect.change_detection"),
    (stage::FEATURE_EXTRACTION, "detect.features"),
    (stage::LOF_SCORING, "detect.lof"),
];

/// Times a clip's detection the way a session runs it, once plain when
/// the session carries a flight recorder, and once more through a
/// detector with an in-memory recorder, whose stage spans give the time
/// of each pipeline stage.
#[derive(Debug)]
pub struct DetectShadow {
    plain: Detector,
    flight: Option<Detector>,
    staged: Detector,
    stages: Arc<InMemorySink>,
}

impl DetectShadow {
    /// A shadow of `detector`; with `flight`, sessions carry a flight
    /// recorder and the shadow's session detector does too.
    pub fn new(detector: &Detector, flight: bool) -> DetectShadow {
        let flight = flight.then(|| {
            let sink = Arc::new(FlightSink::new(FlightConfig::default()));
            detector.clone().with_recorder(Recorder::new(sink))
        });
        let (recorder, stages) = Recorder::in_memory();
        DetectShadow {
            plain: detector.clone(),
            flight,
            staged: detector.clone().with_recorder(recorder),
            stages,
        }
    }

    /// Detects `pair` (clip `clip` of session `s`) under a `detect` span
    /// attributed to `parent`, with a `detect.plain` child when sessions
    /// carry a recorder and one child per pipeline stage. The detector
    /// reports a stage's duration, not its start, so the stage spans are
    /// laid back to back from the start of the staged detection.
    ///
    /// # Errors
    ///
    /// Propagates detection failures.
    pub fn time_clip(
        &self,
        tracer: &mut Tracer,
        parent: SpanId,
        clip: (usize, u64),
        pair: &TracePair,
    ) -> Result<()> {
        let session = self.flight.as_ref().unwrap_or(&self.plain);
        let a = now_ns();
        black_box(session.detect(black_box(pair))?);
        let b = now_ns();
        let detect = tracer.record_clip("detect", a, b, Some(parent), Some(clip));
        if self.flight.is_some() {
            let a = now_ns();
            black_box(self.plain.detect(black_box(pair))?);
            let b = now_ns();
            tracer.record_clip("detect.plain", a, b, Some(detect), Some(clip));
        }
        let mut start = now_ns();
        black_box(self.staged.detect(black_box(pair))?);
        let registry = self.stages.registry();
        self.stages.clear();
        for (stage, name) in STAGES {
            let ns = registry.span_durations(stage).map_or(0.0, Histogram::sum) as u64;
            tracer.record_clip(name, start, start + ns, Some(detect), Some(clip));
            start += ns;
        }
        Ok(())
    }
}
