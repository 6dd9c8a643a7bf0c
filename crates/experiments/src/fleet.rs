//! Fleet-scale serving (sharding extension): how far does the sharded
//! multi-supervisor runtime carry the per-session guarantees?
//!
//! The sweep drives 10k→100k short sessions through a [`lumen_fleet::Fleet`]
//! of hash-partitioned supervisor shards. Sessions arrive in waves (the
//! realistic shape of short video-chat calls arriving over time), each
//! streams exactly one clip, and every wave is drained before the next
//! begins, so the offered count is exact by construction. Per sweep
//! point the experiment reports served/shed counts, the shed fraction,
//! admission throttling, credit steals and clip-latency percentiles —
//! all deterministic tick-domain quantities — plus four exactness
//! checks that hold across the whole run:
//!
//! * **accounting** — `Σ served + Σ shed == Σ offered` summed across
//!   shards, with every shed counted under a reason and the event
//!   stream carrying exactly one event per offered clip;
//! * **conservation** — the work-stealing ledger
//!   `offered == served + shed + in_flight` holds on *every* tick;
//! * **parity** — at equal budgets (N shards × b vs one supervisor with
//!   N·b) and no shedding, per-session verdict books are identical to a
//!   single-supervisor reference;
//! * **snapshot** — under the [`ReplayAudit`], a mid-clip kill into a
//!   [`FleetSnapshot`](lumen_fleet::FleetSnapshot) through the checkpoint
//!   store restores shard-by-shard and replays the remainder
//!   byte-identically.
//!
//! `lumen-bench` gates the sweep's `fleet.*` rows against
//! `BENCH_baseline.json` and times [`sweep`] alone.

use crate::replay::{FleetReplay, ReplayAudit, SupervisorReplay};
use crate::runner::{pct, render_table};
use crate::ExpResult;
use lumen_chat::feed::SampleFeed;
use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::stream::StreamingDetector;
use lumen_core::Config;
use lumen_dsp::stats::quantile;
use lumen_fleet::{AdmissionConfig, Fleet, FleetAdmitOutcome, FleetConfig, FleetEvent};
use lumen_obs::Recorder;
use lumen_serve::{ServeConfig, SessionEventKind, Supervisor};
use serde::{Deserialize, Serialize};

/// Options for the fleet sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetOpts {
    /// Total session counts to sweep.
    pub sessions: Vec<usize>,
    /// Supervisor shards (fixed, not derived from the machine, so every
    /// exact metric is machine-independent).
    pub shards: usize,
    /// Smallest admission wave (concurrent sessions).
    pub min_wave: usize,
    /// Wave size grows with the sweep point: `sessions / wave_divisor`,
    /// floored at `min_wave` — heavier points offer heavier bursts.
    pub wave_divisor: usize,
    /// Clean training instances for the shared enrolment.
    pub train_count: usize,
    /// Distinct legitimate traces cycled across sessions.
    pub trace_pool: usize,
    /// Per-shard detections allowed per budget period.
    pub budget_clips: u64,
    /// Per-shard budget period, ticks.
    pub budget_period_ticks: u64,
    /// Per-session pending-clip queue depth.
    pub queue_clips: usize,
    /// Queued-clip deadline, ticks (the shed knife at overload).
    pub deadline_ticks: u64,
    /// Fleet admission bucket: burst capacity, sessions.
    pub admission_burst: u32,
    /// Fleet admission bucket: refill per tick.
    pub admission_refill: f64,
    /// Sessions in the single-wave parity run (fleet vs one supervisor
    /// at equal total budget).
    pub parity_sessions: usize,
    /// Sessions in the mid-clip kill/restore run.
    pub snapshot_sessions: usize,
    /// Credit donations allowed per tick.
    pub max_steals_per_tick: u64,
}

impl Default for FleetOpts {
    fn default() -> Self {
        // Per-shard capacity is one detection per 2 ticks against
        // 150-tick clips with a one-clip-interval deadline, i.e. 75
        // served clips per shard per wave: the 10k point's waves fit,
        // the 100k point's waves exceed it ~4x and must shed.
        FleetOpts {
            sessions: vec![10_000, 30_000, 100_000],
            shards: 8,
            min_wave: 256,
            wave_divisor: 40,
            train_count: 10,
            trace_pool: 16,
            budget_clips: 1,
            budget_period_ticks: 2,
            queue_clips: 2,
            deadline_ticks: 150,
            admission_burst: 256,
            admission_refill: 64.0,
            parity_sessions: 512,
            snapshot_sessions: 96,
            max_steals_per_tick: 8,
        }
    }
}

/// One sweep point's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRow {
    /// Total sessions driven through the fleet at this point.
    pub sessions: usize,
    /// Admission wave size (concurrent sessions).
    pub wave: usize,
    /// Clips completed by the sessions (== sessions by construction).
    pub offered: u64,
    /// Clips served to detection, summed across shards.
    pub served: u64,
    /// Clips shed, summed across shards, every one under a reason.
    pub shed: u64,
    /// `shed / offered`.
    pub shed_fraction: f64,
    /// Admission-bucket throttle events while the waves arrived.
    pub throttled: u64,
    /// Credits donated from idle shards to backlogged ones.
    pub steals: u64,
    /// Fleet ticks consumed by this point.
    pub ticks: u64,
    /// Median served-clip latency, ticks from completion to verdict.
    pub p50_latency_ticks: f64,
    /// 99th-percentile served-clip latency, ticks.
    pub p99_latency_ticks: f64,
    /// Exact cross-shard accounting held (counts and event stream).
    pub accounting_ok: bool,
}

/// The fleet result: one row per sweep point plus the run-wide checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Shards in every fleet of the run.
    pub shards: usize,
    /// Samples per clip under the enrolment's clip geometry.
    pub clip_samples: usize,
    /// Rows for each swept session count.
    pub rows: Vec<FleetRow>,
    /// Per-session verdict books identical to a single-supervisor
    /// reference's at equal total budget (no-shed load).
    pub parity_ok: bool,
    /// Mid-clip kill into a store-persisted fleet snapshot restored
    /// shard-by-shard and replayed byte-identically.
    pub snapshot_ok: bool,
    /// `offered == served + shed + in_flight` held on every tick of
    /// every run above.
    pub conservation_ok: bool,
    /// Selected fleet-tier obs counters accumulated over the sweep.
    pub counters: Vec<(String, u64)>,
}

impl FleetResult {
    /// Renders the result as an aligned table plus a check footer.
    pub fn print(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.sessions.to_string(),
                    r.wave.to_string(),
                    r.offered.to_string(),
                    r.served.to_string(),
                    r.shed.to_string(),
                    pct(r.shed_fraction),
                    r.throttled.to_string(),
                    r.steals.to_string(),
                    format!("{:.0}", r.p50_latency_ticks),
                    format!("{:.0}", r.p99_latency_ticks),
                    ok(r.accounting_ok),
                ]
            })
            .collect();
        let mut out = render_table(
            &format!(
                "Fleet — {} supervisor shards, wave admission, work stealing",
                self.shards
            ),
            &[
                "sessions",
                "wave",
                "offered",
                "served",
                "shed",
                "shed frac",
                "throttled",
                "steals",
                "p50 ticks",
                "p99 ticks",
                "accounting",
            ],
            &rows,
        );
        out.push('\n');
        out.push_str(&format!(
            "fleet parity vs single supervisor: {}\n",
            ok(self.parity_ok)
        ));
        out.push_str(&format!(
            "snapshot replay identical: {}; conservation ledger: {}\n",
            ok(self.snapshot_ok),
            ok(self.conservation_ok)
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

/// Trained enrolment and trace pool shared by every run of one
/// invocation.
pub struct Harness {
    template: StreamingDetector,
    pool: Vec<TracePair>,
    clip_samples: usize,
}

impl Harness {
    /// Trains the enrolment and renders the trace pool.
    ///
    /// # Errors
    ///
    /// Propagates scenario and training errors, and fails when a pool
    /// trace is shorter than one clip.
    pub fn prepare(opts: &FleetOpts) -> ExpResult<Harness> {
        let chats = ScenarioBuilder::default();
        let training: Vec<TracePair> = (0..opts.train_count)
            .map(|i| chats.legitimate(0, 90_000 + i as u64))
            .collect::<Result<_, _>>()?;
        let detector = Detector::train_from_traces(&training, Config::default())?;
        let template = StreamingDetector::new(detector, 15.0, 3)?;
        let clip_samples = template.clip_samples();
        let pool: Vec<TracePair> = (0..opts.trace_pool.max(1))
            .map(|i| chats.legitimate(0, 95_000 + i as u64))
            .collect::<Result<_, _>>()?;
        for pair in &pool {
            if pair.tx.samples().len() < clip_samples {
                return Err("trace pool pair shorter than one clip".into());
            }
        }
        Ok(Harness {
            template,
            pool,
            clip_samples,
        })
    }

    fn trace(&self, session_ordinal: usize) -> &TracePair {
        &self.pool[session_ordinal % self.pool.len()]
    }

    /// One single-clip feed per session, for `sessions` sessions.
    fn feeds(&self, sessions: usize) -> ExpResult<Vec<SampleFeed>> {
        Ok((0..sessions)
            .map(|i| SampleFeed::new(self.trace(i)))
            .collect::<Result<_, _>>()?)
    }
}

/// The sweep's fleet config at one point.
fn sweep_config(opts: &FleetOpts, wave: usize) -> FleetConfig {
    FleetConfig {
        shards: opts.shards,
        seed: 0xF1EE7,
        shard: ServeConfig {
            max_sessions: wave,
            queue_clips: opts.queue_clips,
            budget_clips: opts.budget_clips,
            budget_period_ticks: opts.budget_period_ticks,
            deadline_ticks: opts.deadline_ticks,
            ..ServeConfig::default()
        },
        admission: AdmissionConfig {
            burst_sessions: opts.admission_burst,
            refill_per_tick: opts.admission_refill,
        },
        max_steals_per_tick: opts.max_steals_per_tick,
    }
}

/// A generous config for the parity and snapshot runs: same shard count,
/// enough budget and deadline that nothing sheds.
fn relaxed_config(opts: &FleetOpts, sessions: usize) -> FleetConfig {
    FleetConfig {
        shards: opts.shards,
        seed: 0xF1EE7,
        shard: ServeConfig {
            max_sessions: sessions,
            queue_clips: opts.queue_clips.max(2),
            budget_clips: 4,
            budget_period_ticks: 1,
            deadline_ticks: 10_000,
            ..ServeConfig::default()
        },
        admission: AdmissionConfig {
            burst_sessions: u32::try_from(sessions.max(1)).unwrap_or(u32::MAX),
            refill_per_tick: 1.0,
        },
        max_steals_per_tick: opts.max_steals_per_tick,
    }
}

/// Outcome of one sweep point.
struct PointOutput {
    row: FleetRow,
    conservation_ok: bool,
}

/// Drives one sweep point: waves of sessions, each streaming one clip,
/// each wave drained and released before the next.
fn drive_point(
    opts: &FleetOpts,
    harness: &Harness,
    count: usize,
    recorder: &Recorder,
) -> ExpResult<PointOutput> {
    let wave = (count / opts.wave_divisor.max(1))
        .max(opts.min_wave)
        .min(count.max(1));
    let mut fleet = Fleet::new(sweep_config(opts, wave))?.with_recorder(recorder.clone());
    let mut conservation_ok = true;
    let mut throttled = 0u64;
    let mut events: Vec<FleetEvent> = Vec::new();
    let mut done = 0usize;
    let mut key = 0u64;
    while done < count {
        let batch = wave.min(count - done);
        let mut ids = Vec::with_capacity(batch);
        for _ in 0..batch {
            loop {
                match fleet.admit(key, harness.template.clone()) {
                    FleetAdmitOutcome::Admitted { session, .. } => {
                        ids.push(session);
                        key += 1;
                        break;
                    }
                    FleetAdmitOutcome::Throttled => {
                        // The bucket refills on ticks; idle-tick and retry.
                        throttled += 1;
                        fleet.tick();
                        conservation_ok &= fleet.ledger().holds();
                    }
                    FleetAdmitOutcome::Shed { shard, reason } => {
                        return Err(format!(
                            "shard {shard} refused a session below max_sessions: {reason:?}"
                        )
                        .into());
                    }
                }
            }
        }
        for sample in 0..harness.clip_samples {
            for (i, &id) in ids.iter().enumerate() {
                let pair = harness.trace(done + i);
                fleet.offer(id, pair.tx.samples()[sample], pair.rx.samples()[sample])?;
            }
            fleet.tick();
            conservation_ok &= fleet.ledger().holds();
        }
        // Idle ticks drain the wave: every pending clip is served or
        // sheds on its deadline, so this terminates; the guard bounds it.
        let mut guard = 0u64;
        while fleet.pending_clips() > 0 {
            fleet.tick();
            conservation_ok &= fleet.ledger().holds();
            guard += 1;
            if guard > 100 * opts.deadline_ticks + 1_000_000 {
                return Err("fleet queues failed to drain".into());
            }
        }
        events.append(&mut fleet.drain_events());
        for &id in &ids {
            fleet.release(id)?;
        }
        done += batch;
    }

    let stats = fleet.shard_stats();
    let verdict_events = events
        .iter()
        .filter(|e| matches!(e.kind, SessionEventKind::Verdict(_)))
        .count() as u64;
    let shed_events = events
        .iter()
        .filter(|e| matches!(e.kind, SessionEventKind::Shed { .. }))
        .count() as u64;
    let accounting_ok = stats.offered_clips == count as u64
        && stats.served_clips + stats.shed_clips == stats.offered_clips
        && stats.shed_queue_full
            + stats.shed_deadline
            + stats.shed_breaker
            + stats.shed_failed
            + stats.shed_closed
            == stats.shed_clips
        && verdict_events == stats.served_clips
        && shed_events == stats.shed_clips;

    let mut latencies: Vec<f64> = Vec::new();
    for shard in 0..fleet.shards() {
        if let Some(sup) = fleet.shard(shard) {
            latencies.extend(sup.latencies_ticks().iter().map(|&t| t as f64));
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

    Ok(PointOutput {
        row: FleetRow {
            sessions: count,
            wave,
            offered: stats.offered_clips,
            served: stats.served_clips,
            shed: stats.shed_clips,
            shed_fraction: stats.shed_clips as f64 / stats.offered_clips.max(1) as f64,
            throttled,
            steals: fleet.stats().steals,
            ticks: fleet.tick_now(),
            p50_latency_ticks: quantile(&latencies, 0.5).unwrap_or(0.0),
            p99_latency_ticks: quantile(&latencies, 0.99).unwrap_or(0.0),
            accounting_ok,
        },
        conservation_ok,
    })
}

/// The sweep's rows and what it observed, before the run-wide audits.
pub struct Sweep {
    /// Rows for each swept session count.
    pub rows: Vec<FleetRow>,
    conservation_ok: bool,
    counters: Vec<(String, u64)>,
}

/// Drives every sweep point through its own fleet: the part of the run
/// that `lumen-bench` times.
///
/// # Errors
///
/// Propagates detection, serving and fleet errors.
pub fn sweep(opts: &FleetOpts, harness: &Harness) -> ExpResult<Sweep> {
    let (recorder, sink) = Recorder::in_memory();
    let mut conservation_ok = true;
    let mut rows = Vec::new();
    for &count in &opts.sessions {
        let point = drive_point(opts, harness, count, &recorder)?;
        conservation_ok &= point.conservation_ok;
        rows.push(point.row);
    }
    // Fleet-tier counters only: the shards run unrecorded at this scale
    // (an in-memory sink buffers every event), and their serve accounting
    // is already exact in the per-row stats.
    let registry = sink.registry();
    let counters = ["fleet.steals", "fleet.shed.throttled"]
        .iter()
        .map(|&name| (name.to_string(), registry.counter(name)))
        .collect();
    Ok(Sweep {
        rows,
        conservation_ok,
        counters,
    })
}

/// Runs the parity and snapshot audits on relaxed, no-shed fleets and
/// assembles the result around `sweep`.
///
/// # Errors
///
/// Propagates detection, serving, fleet and store errors, and fails when
/// a parity run sheds (its budgets would be miscalibrated).
pub fn audit(opts: &FleetOpts, harness: &Harness, sweep: Sweep) -> ExpResult<FleetResult> {
    // Parity: one no-shed wave through the fleet and through one
    // supervisor with the fleet's summed budget books identical verdicts.
    let wave = ReplayAudit {
        steps: harness.clip_samples,
        kills: Vec::new(),
    };
    let feeds = harness.feeds(opts.parity_sessions)?;
    let relaxed = relaxed_config(opts, opts.parity_sessions);
    let single = ServeConfig {
        max_sessions: opts.parity_sessions,
        // Equal budgets: N shards x b clips per period in one supervisor.
        budget_clips: relaxed.shard.budget_clips * opts.shards as u64,
        ..relaxed.shard.clone()
    };
    let mut fleet = FleetReplay::new(relaxed, &harness.template, feeds.clone())?;
    let fleet_books = wave.book(&mut fleet)?;
    let mut sup = SupervisorReplay::new(Supervisor::new(single)?, &harness.template, feeds)?;
    let sup_books = wave.book(&mut sup)?;
    if fleet.fleet().shard_stats().shed_clips + sup.supervisor().stats().shed_clips != 0 {
        return Err("parity runs shed clips; their budgets are miscalibrated".into());
    }

    // Snapshot: killed after sample `cut - 1` (mid-clip, partial buffers
    // live) into the checkpoint store, restored shard by shard.
    let feeds = harness.feeds(opts.snapshot_sessions)?;
    let config = relaxed_config(opts, opts.snapshot_sessions);
    let mut reference = FleetReplay::new(config.clone(), &harness.template, feeds.clone())?;
    let mut subject = FleetReplay::new(config, &harness.template, feeds)?;
    let cut = harness.clip_samples * 7 / 15;
    let report = ReplayAudit {
        steps: harness.clip_samples,
        kills: vec![cut.saturating_sub(1)],
    }
    .run(&mut reference, &mut subject)?;

    Ok(FleetResult {
        shards: opts.shards,
        clip_samples: harness.clip_samples,
        rows: sweep.rows,
        parity_ok: fleet_books == sup_books,
        snapshot_ok: report.ok() && report.exempt.is_empty(),
        conservation_ok: sweep.conservation_ok
            && fleet.ledger_ok()
            && reference.ledger_ok()
            && subject.ledger_ok(),
        counters: sweep.counters,
    })
}

/// Runs the fleet sweep and its audits.
///
/// # Errors
///
/// Propagates scenario, training, detection, serving and fleet errors.
pub fn run(opts: FleetOpts) -> ExpResult<FleetResult> {
    let harness = Harness::prepare(&opts)?;
    let sweep = sweep(&opts, &harness)?;
    audit(&opts, &harness, sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetOpts {
        FleetOpts {
            sessions: vec![48, 96],
            shards: 4,
            min_wave: 16,
            wave_divisor: 4,
            train_count: 8,
            trace_pool: 4,
            deadline_ticks: 8,
            admission_burst: 8,
            admission_refill: 2.0,
            parity_sessions: 24,
            snapshot_sessions: 16,
            ..FleetOpts::default()
        }
    }

    #[test]
    fn sweep_holds_every_exactness_check() {
        let r = run(small()).unwrap();
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert!(row.accounting_ok, "sessions={}", row.sessions);
            assert_eq!(row.offered, row.sessions as u64);
            assert_eq!(row.served + row.shed, row.offered);
        }
        // The tight 8-tick deadline forces shedding at the heavier point.
        assert!(r.rows[1].shed > 0, "overloaded point must shed");
        assert!(r.parity_ok, "fleet/single-supervisor parity");
        assert!(r.snapshot_ok, "mid-clip restore replay");
        assert!(r.conservation_ok, "per-tick conservation ledger");
        let rendered = r.print();
        assert!(rendered.contains("fleet parity"));
        assert!(rendered.contains("snapshot replay identical: ok"));
        assert!(!rendered.contains("FAIL"));
    }

    #[test]
    fn heavier_points_shed_more_and_throttle_more() {
        let r = run(small()).unwrap();
        assert!(r.rows[1].shed_fraction >= r.rows[0].shed_fraction);
        assert!(
            r.rows[1].throttled >= r.rows[0].throttled,
            "bigger waves hit the admission bucket at least as hard"
        );
    }

    #[test]
    fn is_deterministic() {
        let a = run(small()).unwrap();
        let b = run(small()).unwrap();
        assert_eq!(a, b);
    }
}
