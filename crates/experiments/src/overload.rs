//! Overload robustness (serving extension): how does the supervised
//! multi-session runtime degrade when offered load exceeds the detection
//! budget?
//!
//! The sweep drives an increasing number of concurrent chat sessions into
//! one [`lumen_serve::Supervisor`] whose budget saturates at a known
//! session count, and reports clip-latency percentiles, the shed
//! fraction, and two exactness checks per sweep point:
//!
//! * **accounting** — `served + shed == offered`, with every shed counted
//!   under an explicit reason (nothing is dropped silently), and
//! * **integrity** — every clip that *was* served produced exactly the
//!   outcome an unloaded, dedicated detector produces for the same clip
//!   of the same trace: shedding may skip work, but must never corrupt
//!   the work that happens.
//!
//! The heaviest sweep point is additionally torn down mid-clip into a
//! serde checkpoint and restored under the [`ReplayAudit`]; the verdict
//! books, the event stream and the counters must be byte-identical to the
//! uninterrupted run (`checkpoint_ok`).

use crate::replay::{ReplayAudit, SupervisorReplay};
use crate::runner::{pct, render_table};
use crate::ExpResult;
use lumen_chat::feed::SampleFeed;
use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::stream::StreamingDetector;
use lumen_core::Config;
use lumen_dsp::stats::quantile;
use lumen_obs::Recorder;
use lumen_serve::{ServeConfig, SessionEvent, SessionEventKind, Supervisor};
use serde::{Deserialize, Serialize};

/// Options for the overload sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadOpts {
    /// Concurrent session counts to sweep.
    pub sessions: Vec<usize>,
    /// Clips each session streams.
    pub clips: usize,
    /// Clean training instances for the shared enrolment.
    pub train_count: usize,
    /// Per-session pending-clip queue depth.
    pub queue_clips: usize,
    /// Detections allowed per budget period.
    pub budget_clips: u64,
    /// Budget period length, ticks.
    pub budget_period_ticks: u64,
    /// Queued-clip deadline, ticks.
    pub deadline_ticks: u64,
}

impl Default for OverloadOpts {
    fn default() -> Self {
        // One detection per 30 ticks against 150-sample clips puts
        // saturation at 5 sessions, so the default sweep covers 0.4x, 1x
        // and 2x the saturating load.
        OverloadOpts {
            sessions: vec![2, 5, 10],
            clips: 3,
            train_count: 10,
            queue_clips: 2,
            budget_clips: 1,
            budget_period_ticks: 30,
            deadline_ticks: 150,
        }
    }
}

/// One sweep point's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadRow {
    /// Concurrent sessions driven into the supervisor.
    pub sessions: usize,
    /// Offered load as a multiple of the saturating load.
    pub load: f64,
    /// Clips completed by the sessions.
    pub offered: u64,
    /// Clips served to detection.
    pub served: u64,
    /// Clips shed (all reasons, each counted).
    pub shed: u64,
    /// `shed / offered`.
    pub shed_fraction: f64,
    /// Median served-clip latency, ticks from completion to verdict.
    pub p50_latency_ticks: f64,
    /// 99th-percentile served-clip latency, ticks.
    pub p99_latency_ticks: f64,
    /// Every served clip's outcome matched the unloaded reference run.
    pub integrity_ok: bool,
    /// `served + shed == offered` and the by-reason sheds sum up.
    pub accounting_ok: bool,
}

/// The overload result: one row per session count, the checkpoint-replay
/// verdict for the heaviest point, and supervisor counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadResult {
    /// Session count at which offered load equals the detection budget.
    pub saturation_sessions: f64,
    /// Rows for each swept session count.
    pub rows: Vec<OverloadRow>,
    /// The heaviest sweep point replayed through a mid-clip serde
    /// checkpoint/restore produced a byte-identical event stream.
    pub checkpoint_ok: bool,
    /// Selected lumen-obs counters accumulated over the sweep.
    pub counters: Vec<(String, u64)>,
}

impl OverloadResult {
    /// Renders the result as an aligned table plus a counter footer.
    pub fn print(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.sessions.to_string(),
                    format!("{:.1}x", r.load),
                    r.offered.to_string(),
                    r.served.to_string(),
                    r.shed.to_string(),
                    pct(r.shed_fraction),
                    format!("{:.0}", r.p50_latency_ticks),
                    format!("{:.0}", r.p99_latency_ticks),
                    ok(r.integrity_ok),
                    ok(r.accounting_ok),
                ]
            })
            .collect();
        let mut out = render_table(
            "Overload — shedding, latency and verdict integrity vs. offered load",
            &[
                "sessions",
                "load",
                "offered",
                "served",
                "shed",
                "shed frac",
                "p50 ticks",
                "p99 ticks",
                "integrity",
                "accounting",
            ],
            &rows,
        );
        out.push('\n');
        out.push_str(&format!(
            "saturation: {:.1} sessions; checkpoint replay identical: {}\n",
            self.saturation_sessions,
            ok(self.checkpoint_ok)
        ));
        for (name, value) in &self.counters {
            out.push_str(&format!("{name}: {value}\n"));
        }
        out
    }
}

fn ok(flag: bool) -> String {
    if flag { "ok" } else { "FAIL" }.to_string()
}

/// Runs the overload sweep.
///
/// # Errors
///
/// Propagates scenario, training, detection and serving errors.
pub fn run(opts: OverloadOpts) -> ExpResult<OverloadResult> {
    let (recorder, sink) = Recorder::in_memory();
    let chats = ScenarioBuilder::default();
    let training: Vec<TracePair> = (0..opts.train_count)
        .map(|i| chats.legitimate(0, 90_000 + i as u64))
        .collect::<Result<_, _>>()?;
    let detector = Detector::train_from_traces(&training, Config::default())?;
    let template = StreamingDetector::new(detector, 15.0, 3)?;

    let clip_samples = template.clip_samples();
    let saturation_sessions =
        clip_samples as f64 * opts.budget_clips as f64 / opts.budget_period_ticks as f64;

    let mut rows = Vec::new();
    let mut checkpoint_ok = true;
    let heaviest = opts.sessions.iter().copied().max().unwrap_or(0);
    for &count in &opts.sessions {
        // Per-session workloads, reused identically by the reference run,
        // the supervised run and the checkpoint replay.
        let traces: Vec<Vec<TracePair>> = (0..count)
            .map(|si| {
                (0..opts.clips)
                    .map(|clip| chats.legitimate(0, 91_000 + clip as u64 * 1_000 + si as u64))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?;

        // Unloaded reference: each session gets a dedicated detector with
        // no contention; its outcomes are the integrity ground truth.
        let mut expected = Vec::with_capacity(count);
        for session_traces in &traces {
            let mut stream = template.clone();
            let mut verdicts = Vec::with_capacity(opts.clips);
            for pair in session_traces {
                for i in 0..pair.tx.samples().len() {
                    if let Some(v) = stream.push(pair.tx.samples()[i], pair.rx.samples()[i])? {
                        verdicts.push(v);
                    }
                }
            }
            expected.push(verdicts);
        }

        let feeds = traces
            .iter()
            .map(|clips| SampleFeed::from_pairs(clips))
            .collect::<Result<Vec<_>, _>>()?;
        let steps = feeds.first().map_or(0, SampleFeed::len);
        let sup = Supervisor::new(serve_config(&opts, count))?.with_recorder(recorder.clone());
        let mut out = SupervisorReplay::new(sup, &template, feeds.clone())?;
        let mut replay_ok = None;
        if count == heaviest && count > 0 {
            // Checkpoint replay of the heaviest point: tear the supervisor
            // down mid-clip (partial buffers live) into a serde snapshot,
            // restore, and require the verdict books, the event stream and
            // the counters to be indistinguishable.
            let clip = opts.clips.saturating_sub(1).min(1);
            let audit = ReplayAudit {
                steps,
                kills: vec![clip * clip_samples + clip_samples * 7 / 15],
            };
            let sup = Supervisor::new(serve_config(&opts, count))?;
            let mut replay = SupervisorReplay::new(sup, &template, feeds)?;
            replay_ok = Some(audit.run(&mut out, &mut replay)?.ok());
        } else {
            ReplayAudit {
                steps,
                kills: Vec::new(),
            }
            .book(&mut out)?;
        }
        let stats = out.supervisor().stats();
        let accounting_ok = stats.offered_clips == (count * opts.clips) as u64
            && stats.served_clips + stats.shed_clips == stats.offered_clips
            && stats.shed_queue_full
                + stats.shed_deadline
                + stats.shed_breaker
                + stats.shed_failed
                + stats.shed_closed
                == stats.shed_clips;
        let integrity_ok = integrity(out.events(), &expected);
        if let Some(replay_ok) = replay_ok {
            checkpoint_ok = replay_ok && integrity_ok;
        }

        let mut latencies: Vec<f64> = out
            .supervisor()
            .latencies_ticks()
            .iter()
            .map(|&t| t as f64)
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        rows.push(OverloadRow {
            sessions: count,
            load: count as f64 / saturation_sessions,
            offered: stats.offered_clips,
            served: stats.served_clips,
            shed: stats.shed_clips,
            shed_fraction: stats.shed_clips as f64 / stats.offered_clips.max(1) as f64,
            p50_latency_ticks: quantile(&latencies, 0.5).unwrap_or(0.0),
            p99_latency_ticks: quantile(&latencies, 0.99).unwrap_or(0.0),
            integrity_ok,
            accounting_ok,
        });
    }

    let registry = sink.registry();
    let counters = ["serve.offered", "serve.served", "serve.shed"]
        .iter()
        .map(|&name| (name.to_string(), registry.counter(name)))
        .collect();

    Ok(OverloadResult {
        saturation_sessions,
        rows,
        checkpoint_ok,
        counters,
    })
}

fn serve_config(opts: &OverloadOpts, count: usize) -> ServeConfig {
    ServeConfig {
        max_sessions: count,
        queue_clips: opts.queue_clips,
        budget_clips: opts.budget_clips,
        budget_period_ticks: opts.budget_period_ticks,
        deadline_ticks: opts.deadline_ticks,
        ..ServeConfig::default()
    }
}

/// Every served clip's outcome must equal the unloaded reference outcome
/// for the same clip index of the same session, and sessions that never
/// shed must match the reference verdict-for-verdict.
fn integrity(events: &[SessionEvent], expected: &[Vec<lumen_core::stream::ClipVerdict>]) -> bool {
    let mut shed_sessions = vec![false; expected.len()];
    for event in events {
        let si = event.session as usize;
        match &event.kind {
            SessionEventKind::Verdict(v) => {
                let Some(reference) = expected.get(si).and_then(|e| e.get(v.clip_index)) else {
                    return false;
                };
                if v.outcome != reference.outcome {
                    return false;
                }
            }
            SessionEventKind::Shed { .. } => {
                if let Some(flag) = shed_sessions.get_mut(si) {
                    *flag = true;
                }
            }
            SessionEventKind::Breaker(_)
            | SessionEventKind::ProbeRequested(_)
            | SessionEventKind::Probe(_) => {}
        }
    }
    // Unshed sessions saw no contention effects at all: their whole
    // verdict stream (status and watchdog included) must be identical.
    for (si, reference) in expected.iter().enumerate() {
        if shed_sessions[si] {
            continue;
        }
        let verdicts: Vec<_> = events
            .iter()
            .filter(|e| e.session as usize == si)
            .filter_map(|e| match &e.kind {
                SessionEventKind::Verdict(v) => Some(v.clone()),
                _ => None,
            })
            .collect();
        if verdicts != *reference {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OverloadOpts {
        OverloadOpts {
            sessions: vec![1, 4],
            clips: 2,
            train_count: 10,
            queue_clips: 1,
            budget_clips: 1,
            budget_period_ticks: 75,
            deadline_ticks: 150,
        }
    }

    #[test]
    fn sweep_reports_exact_accounting_and_integrity() {
        let r = run(small()).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert!((r.saturation_sessions - 2.0).abs() < 1e-9);
        for row in &r.rows {
            assert!(row.accounting_ok, "sessions={}", row.sessions);
            assert!(row.integrity_ok, "sessions={}", row.sessions);
            assert_eq!(row.offered, (row.sessions * 2) as u64);
        }
        // The unloaded point serves everything; the 2x point must shed.
        assert_eq!(r.rows[0].shed, 0);
        assert!(r.rows[1].shed > 0, "2x saturation must shed clips");
        assert!(r.checkpoint_ok, "checkpoint replay must be identical");
        let offered = r
            .counters
            .iter()
            .find(|(n, _)| n == "serve.offered")
            .unwrap()
            .1;
        assert_eq!(offered, 2 + 8, "both sweep points feed the recorder");
        let rendered = r.print();
        assert!(rendered.contains("shed frac"));
        assert!(rendered.contains("serve.shed"));
    }

    #[test]
    fn is_deterministic() {
        let a = run(small()).unwrap();
        let b = run(small()).unwrap();
        assert_eq!(a, b);
    }
}
