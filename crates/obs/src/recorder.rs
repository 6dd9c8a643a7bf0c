//! The [`Recorder`] handle instrumented code holds, and the [`SpanGuard`]
//! RAII timer.

use crate::event::{Event, EventKind};
use crate::sink::{InMemorySink, Sink};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    // The per-thread stack of open span names: parents are attributed per
    // thread, so a recorder shared across workers never mixes their spans.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };

    // The per-thread trace context: which session / clip the code currently
    // executing on this thread is serving. Scoped the same way spans are, so
    // a recorder shared across workers never mixes their attributions.
    static TRACE_CTX: Cell<TraceCtx> = const { Cell::new(TraceCtx { session: None, clip: None }) };
}

/// The ambient trace attribution applied to every emitted event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceCtx {
    session: Option<u64>,
    clip: Option<u64>,
}

struct Inner {
    sink: Arc<dyn Sink>,
    seq: AtomicU64,
}

/// A cheap, cloneable handle instrumented code emits events through.
///
/// The disabled state ([`Recorder::null`], the default) short-circuits
/// before any event is assembled: no allocation, no clock read, no lock.
/// Instrumented APIs can therefore take a `Recorder` unconditionally.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// The disabled recorder (every emission is a no-op).
    pub fn null() -> Self {
        Recorder { inner: None }
    }

    /// A recorder emitting into `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                sink,
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// Convenience: a recorder backed by a fresh [`InMemorySink`], returning
    /// both so the caller can inspect what was recorded.
    pub fn in_memory() -> (Self, Arc<InMemorySink>) {
        let sink = Arc::new(InMemorySink::new());
        (Recorder::new(sink.clone()), sink)
    }

    /// `true` when events actually reach a sink.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn emit(inner: &Inner, kind: EventKind, name: &str, payload: Payload) {
        let ctx = TRACE_CTX.with(Cell::get);
        let event = Event {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            kind,
            name: name.to_string(),
            parent: payload.parent,
            depth: payload.depth,
            session: ctx.session,
            clip: ctx.clip,
            value: payload.value,
            duration_ns: payload.duration_ns,
            detail: payload.detail,
        };
        inner.sink.record(&event);
    }

    /// Tags every event emitted on this thread with `session` until the
    /// returned guard drops, at which point the previous attribution (if
    /// any) is restored. Disabled recorders return an inert guard.
    #[must_use = "the session tag applies until the guard drops"]
    pub fn session_scope(&self, session: u64) -> TraceGuard {
        if self.inner.is_none() {
            return TraceGuard { restore: None };
        }
        TRACE_CTX.with(|c| {
            let prev = c.get();
            c.set(TraceCtx {
                session: Some(session),
                ..prev
            });
            TraceGuard {
                restore: Some(prev),
            }
        })
    }

    /// Tags every event emitted on this thread with `clip` until the
    /// returned guard drops; nests inside [`Recorder::session_scope`].
    /// Disabled recorders return an inert guard.
    #[must_use = "the clip tag applies until the guard drops"]
    pub fn clip_scope(&self, clip: u64) -> TraceGuard {
        if self.inner.is_none() {
            return TraceGuard { restore: None };
        }
        TRACE_CTX.with(|c| {
            let prev = c.get();
            c.set(TraceCtx {
                clip: Some(clip),
                ..prev
            });
            TraceGuard {
                restore: Some(prev),
            }
        })
    }

    fn context() -> (Option<String>, u64) {
        SPAN_STACK.with(|s| {
            let s = s.borrow();
            (s.last().map(|n| n.to_string()), s.len() as u64)
        })
    }

    /// Opens a timing span; the returned guard closes it (emitting the
    /// measured duration) when dropped. Spans opened while another span is
    /// live on the same thread record it as their parent.
    #[must_use = "the span is timed until the guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { active: None };
        };
        let (parent, depth) = Self::context();
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        Self::emit(
            inner,
            EventKind::SpanStart,
            name,
            Payload {
                parent,
                depth,
                ..Payload::default()
            },
        );
        SpanGuard {
            active: Some(ActiveSpan {
                inner: inner.clone(),
                name,
                depth,
                start: Instant::now(),
            }),
        }
    }

    /// Increments a counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            let (parent, depth) = Self::context();
            Self::emit(
                inner,
                EventKind::CounterAdd,
                name,
                Payload {
                    parent,
                    depth,
                    value: Some(delta as f64),
                    ..Payload::default()
                },
            );
        }
    }

    /// Sets a gauge level.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            let (parent, depth) = Self::context();
            Self::emit(
                inner,
                EventKind::GaugeSet,
                name,
                Payload {
                    parent,
                    depth,
                    value: Some(value),
                    ..Payload::default()
                },
            );
        }
    }

    /// Sets a per-index gauge level under the name `{name}.{index}` —
    /// e.g. `fleet.shard.queue_depth.3` for shard 3. Gauge names are
    /// otherwise static; this is the one sanctioned dynamic-name path,
    /// for families indexed by a small bounded id (shards). The string
    /// is assembled only when the recorder is enabled.
    pub fn gauge_indexed(&self, name: &'static str, index: u64, value: f64) {
        if let Some(inner) = &self.inner {
            let (parent, depth) = Self::context();
            Self::emit(
                inner,
                EventKind::GaugeSet,
                &format!("{name}.{index}"),
                Payload {
                    parent,
                    depth,
                    value: Some(value),
                    ..Payload::default()
                },
            );
        }
    }

    /// Records one histogram observation.
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            let (parent, depth) = Self::context();
            Self::emit(
                inner,
                EventKind::Observe,
                name,
                Payload {
                    parent,
                    depth,
                    value: Some(value),
                    ..Payload::default()
                },
            );
        }
    }

    /// Emits a free-form annotation (verdicts, status transitions, ...).
    pub fn mark(&self, name: &'static str, detail: &str) {
        if let Some(inner) = &self.inner {
            let (parent, depth) = Self::context();
            Self::emit(
                inner,
                EventKind::Mark,
                name,
                Payload {
                    parent,
                    depth,
                    detail: Some(detail.to_string()),
                    ..Payload::default()
                },
            );
        }
    }
}

/// RAII guard returned by [`Recorder::session_scope`] /
/// [`Recorder::clip_scope`]: restores the previous thread-local trace
/// attribution when dropped. Guards nest lexically, like spans.
#[must_use = "the trace tag applies until the guard drops"]
pub struct TraceGuard {
    restore: Option<TraceCtx>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.restore.take() {
            TRACE_CTX.with(|c| c.set(prev));
        }
    }
}

/// The per-kind fields of an [`Event`]; `seq`, `kind` and `name` are filled
/// in by `emit`.
#[derive(Default)]
struct Payload {
    parent: Option<String>,
    depth: u64,
    value: Option<f64>,
    duration_ns: Option<u64>,
    detail: Option<String>,
}

struct ActiveSpan {
    inner: Arc<Inner>,
    name: &'static str,
    depth: u64,
    start: Instant,
}

/// RAII guard returned by [`Recorder::span`]; emits the `SpanEnd` event
/// with the measured wall time when dropped. Guards are expected to drop in
/// LIFO order (lexical scoping guarantees this).
#[must_use = "the span is timed until the guard drops"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let elapsed = span.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Pop the nearest matching frame so one out-of-order drop cannot
            // desync the whole stack.
            if let Some(i) = s.iter().rposition(|&n| n == span.name) {
                s.remove(i);
            }
        });
        Recorder::emit(
            &span.inner,
            EventKind::SpanEnd,
            span.name,
            Payload {
                depth: span.depth,
                duration_ns: Some(elapsed),
                ..Payload::default()
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let rec = Recorder::null();
        assert!(!rec.is_enabled());
        let _g = rec.span("detect");
        rec.add("frames", 1);
        rec.observe("score", 2.0);
        // Nothing to assert beyond "does not panic": there is no sink.
    }

    #[test]
    fn default_is_null() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn spans_nest_and_attribute_parents() {
        let (rec, sink) = Recorder::in_memory();
        {
            let _outer = rec.span("detect");
            rec.add("clips", 1);
            {
                let _inner = rec.span("preprocess");
            }
        }
        let events = sink.events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[0].name, "detect");
        assert_eq!(events[0].depth, 0);
        assert_eq!(events[0].parent, None);
        assert_eq!(events[1].name, "clips");
        assert_eq!(events[1].parent.as_deref(), Some("detect"));
        assert_eq!(events[2].name, "preprocess");
        assert_eq!(events[2].parent.as_deref(), Some("detect"));
        assert_eq!(events[2].depth, 1);
        assert_eq!(events[3].kind, EventKind::SpanEnd);
        assert_eq!(events[3].name, "preprocess");
        assert!(events[3].duration_ns.is_some());
        assert_eq!(events[4].name, "detect");
        // Sequence numbers follow emission order.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn trace_scopes_tag_and_restore() {
        let (rec, sink) = Recorder::in_memory();
        rec.add("before", 1);
        {
            let _s = rec.session_scope(7);
            rec.add("in_session", 1);
            {
                let _c = rec.clip_scope(3);
                rec.add("in_clip", 1);
            }
            rec.add("after_clip", 1);
        }
        rec.add("after", 1);
        let by_name = |name: &str| sink.events().into_iter().find(|e| e.name == name).unwrap();
        assert_eq!(
            (by_name("before").session, by_name("before").clip),
            (None, None)
        );
        assert_eq!(by_name("in_session").session, Some(7));
        assert_eq!(by_name("in_session").clip, None);
        assert_eq!(by_name("in_clip").session, Some(7));
        assert_eq!(by_name("in_clip").clip, Some(3));
        assert_eq!(by_name("after_clip").session, Some(7));
        assert_eq!(by_name("after_clip").clip, None);
        assert_eq!(
            (by_name("after").session, by_name("after").clip),
            (None, None)
        );
    }

    #[test]
    fn nested_session_scopes_restore_the_outer_session() {
        let (rec, sink) = Recorder::in_memory();
        {
            let _a = rec.session_scope(1);
            {
                let _b = rec.session_scope(2);
                rec.add("inner", 1);
            }
            rec.add("outer", 1);
        }
        let events = sink.events();
        let find = |n: &str| events.iter().find(|e| e.name == n).unwrap().session;
        assert_eq!(find("inner"), Some(2));
        assert_eq!(find("outer"), Some(1));
    }

    #[test]
    fn disabled_recorder_scopes_are_inert() {
        let null = Recorder::null();
        let (rec, sink) = Recorder::in_memory();
        let _g = null.session_scope(9);
        rec.add("tagged_by_nobody", 1);
        assert_eq!(sink.events()[0].session, None);
    }

    #[test]
    fn stack_unwinds_after_guards_drop() {
        let (rec, sink) = Recorder::in_memory();
        {
            let _g = rec.span("a");
        }
        rec.add("after", 1);
        let events = sink.events();
        let after = events.iter().find(|e| e.name == "after").unwrap();
        assert_eq!(after.parent, None);
        assert_eq!(after.depth, 0);
    }
}
