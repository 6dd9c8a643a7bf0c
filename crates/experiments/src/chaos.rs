//! Fleet chaos (durability extension): kill and restore the supervised
//! runtime mid-traffic, under seeded storage faults and rotting
//! checkpoints, and prove the recovery path never lies.
//!
//! The harness drives a fleet of sessions through one
//! [`lumen_serve::Supervisor`], checkpointing periodically into a
//! [`CheckpointStore`] over a fault-injected [`MemStorage`]: writes fail
//! loudly (exercising the bounded-backoff retry), tear, or flip a bit
//! (exercising CRC detection and generation fallback), and a seeded
//! [`ChaosInjector`] rots individual session entries *before* framing
//! (exercising per-session quarantine), poisons clips into the detection
//! error path, and stalls the clock. At each of `cycles` kill points the
//! supervisor is dropped — a crash — and rebuilt from the newest valid
//! stored generation via [`Supervisor::restore_from_store`]; the harness
//! rewinds its feed to the restored position and re-serves the window.
//!
//! Three built-in checks make the run falsifiable, the first two through
//! the [`ReplayAudit`]:
//!
//! * **verdict match** — every session that was never quarantined ends
//!   with a verdict stream byte-identical to a reference run that is
//!   never killed under the *same* chaos schedule (all fault decisions are
//!   pure hashes of stable coordinates, so the two runs see identical
//!   faults);
//! * **zero silent mis-restores** — a re-served clip must reproduce the
//!   verdict recorded before the crash, and a sabotaged (torn or
//!   bit-flipped) record must never be the generation a restore loads;
//! * **quarantine exactness** — the set of sessions quarantined at each
//!   restore equals exactly the set whose entries the injector corrupted
//!   in the restored generation: nothing corrupt slips through, nothing
//!   healthy is discarded.

use crate::replay::{clip_verdict, Books, ReplayAudit, Restored, Workload};
use crate::runner::{pct, render_table};
use crate::ExpResult;
use lumen_chat::fault::{BurstLoss, FaultPlan};
use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::stream::{ClipVerdict, StreamingDetector};
use lumen_core::Config;
use lumen_obs::Recorder;
use lumen_serve::store::entry_name;
use lumen_serve::{
    ChaosInjector, ChaosPlan, CheckpointStore, CommitOutcome, MemStorage, ServeConfig, ServeError,
    StorageFaults, StoreConfig, StoreStats, Supervisor,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Options for the chaos run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosOpts {
    /// Concurrent sessions in the fleet.
    pub sessions: usize,
    /// Clips each session streams.
    pub clips: usize,
    /// Clean training instances for the shared enrolment.
    pub train_count: usize,
    /// Kill/restore cycles, spread evenly across the run.
    pub cycles: usize,
    /// Feed steps between checkpoint commits.
    pub checkpoint_every_steps: usize,
    /// Per-session pending-clip queue depth.
    pub queue_clips: usize,
    /// Detections allowed per budget period (kept generous: contention is
    /// the overload experiment's subject, durability is this one's).
    pub budget_clips: u64,
    /// Budget period length, ticks.
    pub budget_period_ticks: u64,
    /// Queued-clip deadline, ticks.
    pub deadline_ticks: u64,
    /// Bad-state loss probability of the transport-level burst plan
    /// (zero = clean link).
    pub burst_loss: f64,
    /// The runtime chaos plan (storage faults, snapshot rot, poisoned
    /// clips, stalls).
    pub plan: ChaosPlan,
    /// Checkpoint-store retention and retry policy.
    pub store: StoreConfig,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            sessions: 4,
            clips: 3,
            train_count: 10,
            cycles: 3,
            checkpoint_every_steps: 40,
            queue_clips: 4,
            budget_clips: 16,
            budget_period_ticks: 30,
            deadline_ticks: 600,
            burst_loss: 0.5,
            plan: ChaosPlan {
                storage: StorageFaults {
                    write_fail: 0.25,
                    torn_write: 0.3,
                    bit_flip: 0.3,
                },
                poison_clip: 0.08,
                stall: 0.05,
                stall_ticks: 3,
                corrupt_session: 0.25,
                ..ChaosPlan::seeded(0x5EED)
            },
            store: StoreConfig::default(),
        }
    }
}

/// One kill/restore cycle's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCycle {
    /// The feed step the crash landed on.
    pub kill_step: usize,
    /// The generation the restore loaded (`None` = no valid generation
    /// survived; the fleet cold-started).
    pub restored_generation: Option<u64>,
    /// Newer generations rejected (quarantined) before the loaded one.
    pub fallback_depth: usize,
    /// Corrupt generations quarantined by the store during this load.
    pub generation_quarantines: usize,
    /// Sessions restored intact.
    pub restored_sessions: usize,
    /// Sessions quarantined by per-session validation and re-admitted
    /// fresh.
    pub quarantined_sessions: usize,
    /// Feed steps re-served between the restored checkpoint and the
    /// crash (the re-serve window).
    pub reserve_steps: usize,
    /// Clock ticks of progress lost to the crash (kill tick minus the
    /// restored checkpoint's tick).
    pub recovery_ticks: u64,
}

/// The chaos result: per-cycle recovery rows, the three integrity
/// verdicts, and durability counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosResult {
    /// One row per kill/restore cycle.
    pub cycles: Vec<ChaosCycle>,
    /// Clips offered (final supervisor accounting, replay collapsed).
    pub offered: u64,
    /// Clips served.
    pub served: u64,
    /// Clips shed (every shed counted under a reason).
    pub shed: u64,
    /// Quarantined session-restores over all session-restores.
    pub quarantine_fraction: f64,
    /// Restores that found no valid generation at all.
    pub cold_starts: usize,
    /// Re-served clips whose verdict differed from the pre-crash record
    /// (must be zero).
    pub misrestores: u64,
    /// Never-quarantined sessions ended byte-identical to the
    /// uninterrupted reference run.
    pub verdict_match_ok: bool,
    /// No restore ever loaded a generation the storage had silently
    /// damaged.
    pub sabotage_detection_ok: bool,
    /// Each restore quarantined exactly the sessions whose entries were
    /// corrupted in the loaded generation.
    pub quarantine_exact_ok: bool,
    /// All of the above, plus zero mis-restores and all cycles completed.
    pub integrity_ok: bool,
    /// Checkpoint-store counters summed across crash incarnations.
    pub store: StoreStats,
    /// Records the storage silently damaged at write time (all of which
    /// must have been detected downstream).
    pub sabotaged_writes: usize,
    /// Selected lumen-obs counters accumulated over the chaos run.
    pub counters: Vec<(String, u64)>,
}

impl ChaosResult {
    /// Renders the result as an aligned table plus a verdict footer.
    pub fn print(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .cycles
            .iter()
            .enumerate()
            .map(|(i, c)| {
                vec![
                    (i + 1).to_string(),
                    c.kill_step.to_string(),
                    c.restored_generation
                        .map_or("cold".to_string(), |g| g.to_string()),
                    c.fallback_depth.to_string(),
                    c.generation_quarantines.to_string(),
                    c.restored_sessions.to_string(),
                    c.quarantined_sessions.to_string(),
                    c.reserve_steps.to_string(),
                    c.recovery_ticks.to_string(),
                ]
            })
            .collect();
        let mut out = render_table(
            "Chaos — kill/restore recovery under storage faults and snapshot rot",
            &[
                "cycle",
                "kill step",
                "gen",
                "fallback",
                "gen quar",
                "restored",
                "quarantined",
                "re-serve",
                "rec ticks",
            ],
            &rows,
        );
        out.push('\n');
        out.push_str(&format!(
            "offered {} served {} shed {}; quarantine fraction {}; cold starts {}\n",
            self.offered,
            self.served,
            self.shed,
            pct(self.quarantine_fraction),
            self.cold_starts,
        ));
        out.push_str(&format!(
            "store: commits {} write-failures {} retries {} gave-up {} quarantined {} \
             sabotaged-writes {}\n",
            self.store.commits,
            self.store.write_failures,
            self.store.retries,
            self.store.gave_up,
            self.store.quarantined,
            self.sabotaged_writes,
        ));
        out.push_str(&format!(
            "verdict match: {}; sabotage detection: {}; quarantine exactness: {}; \
             mis-restores: {}\n",
            ok(self.verdict_match_ok),
            ok(self.sabotage_detection_ok),
            ok(self.quarantine_exact_ok),
            self.misrestores,
        ));
        out.push_str(&format!("chaos integrity: {}\n", ok(self.integrity_ok)));
        for (name, value) in &self.counters {
            out.push_str(&format!("{name}: {value}\n"));
        }
        out
    }
}

fn ok(flag: bool) -> String {
    if flag { "ok" } else { "FAIL" }.to_string()
}

/// What the harness remembers about one committed generation: where to
/// resume the feed, the clock at the snapshot, the id→workload mapping,
/// and which session entries the injector corrupted in the record.
#[derive(Debug, Clone)]
struct GenMeta {
    resume_step: usize,
    tick: u64,
    mapping: BTreeMap<u64, usize>,
    corrupted: Vec<u64>,
}

/// Runs the chaos experiment.
///
/// # Errors
///
/// Propagates scenario, training, serving and checkpoint-store errors;
/// injected faults are never errors (they are the subject).
pub fn run(opts: ChaosOpts) -> ExpResult<ChaosResult> {
    let injector = ChaosInjector::new(opts.plan)?;
    let (recorder, sink) = Recorder::in_memory();
    let faults = if opts.burst_loss > 0.0 {
        FaultPlan {
            burst: BurstLoss::bursty(0.08, 6.0, opts.burst_loss),
            ..FaultPlan::none()
        }
    } else {
        FaultPlan::none()
    };
    let chats = ScenarioBuilder::default().with_faults(faults);
    let clean = ScenarioBuilder::default();
    let training: Vec<TracePair> = (0..opts.train_count)
        .map(|i| clean.legitimate(0, 95_000 + i as u64))
        .collect::<Result<_, _>>()?;
    let detector = Detector::train_from_traces(&training, Config::default())?;

    // Per-session workloads, flattened to one sample array per session so
    // the whole fleet feeds in lockstep; reused identically by the
    // reference run and the chaos run.
    let mut feeds: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(opts.sessions);
    for si in 0..opts.sessions {
        let mut tx = Vec::new();
        let mut rx = Vec::new();
        for clip in 0..opts.clips {
            let pair = chats.legitimate(0, 96_000 + clip as u64 * 1_000 + si as u64)?;
            tx.extend_from_slice(pair.tx.samples());
            rx.extend_from_slice(pair.rx.samples());
        }
        feeds.push((tx, rx));
    }
    let total_steps = feeds.first().map_or(0, |(tx, _)| tx.len());
    let template = StreamingDetector::new(detector, 15.0, 3)?;
    let fx = Fixture {
        config: ServeConfig {
            max_sessions: opts.sessions,
            queue_clips: opts.queue_clips,
            budget_clips: opts.budget_clips,
            budget_period_ticks: opts.budget_period_ticks,
            deadline_ticks: opts.deadline_ticks,
            ..ServeConfig::default()
        },
        clip_samples: template.clip_samples(),
        opts,
        injector,
        template,
        feeds,
    };

    // Both runs serve the same fleet under the same chaos schedule (all
    // decisions are hashes of stable coordinates) and checkpoint into
    // their own fault-injected store. The reference is never killed; the
    // subject records to the obs sink and is killed at the planned steps,
    // restoring from the newest valid generation.
    let mut reference = ChaosRun::start(&fx, Recorder::null())?;
    let mut subject = ChaosRun::start(&fx, recorder)?;
    let cycles = fx.opts.cycles;
    let audit = ReplayAudit {
        steps: total_steps,
        kills: (1..=cycles)
            .map(|c| total_steps * c / (cycles + 1))
            .collect(),
    };
    let report = audit.run(&mut reference, &mut subject)?;

    let verdict_match_ok = report.books_match();
    let restores = subject.restored_total + subject.quarantined_total;
    let integrity_ok = verdict_match_ok
        && subject.sabotage_detection_ok
        && subject.quarantine_exact_ok
        && report.misrestores == 0
        && subject.cycles.len() == cycles;

    let registry = sink.registry();
    let counters = [
        "serve.restore.sessions",
        "serve.restore.quarantined",
        "store.commit",
        "store.write_failure",
        "store.retry",
        "store.quarantined",
    ]
    .iter()
    .map(|&name| (name.to_string(), registry.counter(name)))
    .collect();

    let stats = subject.sup.stats();
    Ok(ChaosResult {
        offered: stats.offered_clips,
        served: stats.served_clips,
        shed: stats.shed_clips,
        quarantine_fraction: if restores == 0 {
            0.0
        } else {
            subject.quarantined_total as f64 / restores as f64
        },
        cold_starts: subject.cold_starts,
        misrestores: report.misrestores,
        verdict_match_ok,
        sabotage_detection_ok: subject.sabotage_detection_ok,
        quarantine_exact_ok: subject.quarantine_exact_ok,
        integrity_ok,
        store: subject.store_totals.merged(subject.store.stats()),
        sabotaged_writes: subject.store.storage().sabotaged().len(),
        cycles: subject.cycles,
        counters,
    })
}

/// Everything the reference and the subject share.
struct Fixture {
    opts: ChaosOpts,
    injector: ChaosInjector,
    template: StreamingDetector,
    feeds: Vec<(Vec<f64>, Vec<f64>)>,
    clip_samples: usize,
    config: ServeConfig,
}

/// One chaos run: a supervisor checkpointing into its own fault-injected
/// store, what it knows about each committed generation, and its recovery
/// tallies.
struct ChaosRun<'a> {
    fx: &'a Fixture,
    recorder: Recorder,
    sup: Supervisor,
    mapping: BTreeMap<u64, usize>,
    store: CheckpointStore<MemStorage>,
    staged: BTreeMap<u64, GenMeta>,
    durable: BTreeMap<u64, GenMeta>,
    cycles: Vec<ChaosCycle>,
    store_totals: StoreStats,
    cold_starts: usize,
    sabotage_detection_ok: bool,
    quarantine_exact_ok: bool,
    restored_total: usize,
    quarantined_total: usize,
}

impl<'a> ChaosRun<'a> {
    fn start(fx: &'a Fixture, recorder: Recorder) -> ExpResult<Self> {
        let mut sup = Supervisor::new(fx.config.clone())?.with_recorder(recorder.clone());
        let mut mapping = BTreeMap::new();
        for si in 0..fx.opts.sessions {
            admit(&mut sup, &mut mapping, &fx.template, si)?;
        }
        // The first checkpoint is written fault-free (a deployment
        // checkpoints once before enabling anything risky), so the store
        // always holds at least one loadable generation and a restore
        // never *has* to cold-start; the fault mix switches on right after.
        let storage = MemStorage::with_faults(fx.opts.plan.seed, StorageFaults::none())?;
        let mut run = ChaosRun {
            fx,
            sup,
            mapping,
            store: CheckpointStore::new(storage, fx.opts.store)?.with_recorder(recorder.clone()),
            recorder,
            staged: BTreeMap::new(),
            durable: BTreeMap::new(),
            cycles: Vec::with_capacity(fx.opts.cycles),
            store_totals: StoreStats::default(),
            cold_starts: 0,
            sabotage_detection_ok: true,
            quarantine_exact_ok: true,
            restored_total: 0,
            quarantined_total: 0,
        };
        run.checkpoint(0)?;
        run.store.storage_mut().set_faults(fx.opts.plan.storage)?;
        Ok(run)
    }

    fn book_events(&mut self, books: &mut Books<ClipVerdict>) {
        for event in self.sup.drain_events() {
            if let (Some(v), Some(&si)) =
                (clip_verdict(&event.kind), self.mapping.get(&event.session))
            {
                books.record(si, v.clip_index, v.clone());
            }
        }
    }

    /// Snapshots the supervisor, lets the injector rot per-session entries
    /// for the upcoming generation, and commits. The staged metadata is
    /// promoted to durable only when the write (or a later retry) lands.
    fn checkpoint(&mut self, resume_step: usize) -> ExpResult<()> {
        let generation = self.store.next_generation();
        let mut snap = self.sup.snapshot();
        let corrupted = self.fx.injector.corrupt_snapshot(generation, &mut snap);
        self.staged.insert(
            generation,
            GenMeta {
                resume_step,
                tick: snap.tick,
                mapping: self.mapping.clone(),
                corrupted,
            },
        );
        let outcome = self.store.commit(self.sup.tick_now(), &snap)?;
        self.settle(outcome);
        Ok(())
    }

    /// Promotes or abandons staged generation metadata per commit outcome.
    fn settle(&mut self, outcome: CommitOutcome) {
        match outcome {
            CommitOutcome::Committed { generation } => {
                if let Some(meta) = self.staged.remove(&generation) {
                    self.durable.insert(generation, meta);
                }
            }
            CommitOutcome::Retrying { .. } => {}
            CommitOutcome::GaveUp { generation, .. } => {
                self.staged.remove(&generation);
            }
        }
    }
}

impl Workload for ChaosRun<'_> {
    type Record = ClipVerdict;

    /// Feeds one lockstep sample to every session (poisoning the clips the
    /// plan selects), advances the clock plus any injected stall, then
    /// lets the store retry and checkpoint on its cadence.
    fn step(&mut self, step: usize, books: &mut Books<ClipVerdict>) -> ExpResult<()> {
        let fx = self.fx;
        let clip = (step / fx.clip_samples.max(1)) as u64;
        for (&id, &si) in &self.mapping {
            let (tx, rx) = &fx.feeds[si];
            let (Some(&t), Some(&r)) = (tx.get(step), rx.get(step)) else {
                continue;
            };
            let r = if fx.injector.poison_clip(si as u64, clip) {
                f64::NAN
            } else {
                r
            };
            self.sup.offer(id, t, r)?;
        }
        self.sup.tick();
        for _ in 0..fx.injector.stall_ticks(step as u64) {
            self.sup.tick();
        }
        self.book_events(books);
        if let Some(outcome) = self.store.tick(self.sup.tick_now()) {
            self.settle(outcome);
        }
        if step > 0 && step.is_multiple_of(fx.opts.checkpoint_every_steps) {
            self.checkpoint(step + 1)?;
        }
        Ok(())
    }

    /// Idle-ticks the supervisor until every queued clip is served or
    /// sheds on its deadline.
    fn drain(&mut self, books: &mut Books<ClipVerdict>) -> ExpResult<()> {
        let mut guard = 0u64;
        while self.sup.pending_clips() > 0 {
            self.sup.tick();
            self.book_events(books);
            guard += 1;
            if guard > 1_000_000 {
                return Err("supervisor queues failed to drain".into());
            }
        }
        self.book_events(books);
        Ok(())
    }

    /// Drops the supervisor and its pending retries, keeps only what the
    /// storage holds, and restores from the newest valid generation;
    /// quarantined sessions are re-admitted fresh and the feed rewinds to
    /// the restored position. With nothing valid stored, the fleet
    /// cold-starts.
    fn kill_and_restore(
        &mut self,
        step: usize,
        _books: &mut Books<ClipVerdict>,
    ) -> ExpResult<Restored> {
        let fx = self.fx;
        let kill_tick = self.sup.tick_now();
        let surviving = self.store.storage().clone();
        self.store_totals = self.store_totals.merged(self.store.stats());
        self.store =
            CheckpointStore::new(surviving, fx.opts.store)?.with_recorder(self.recorder.clone());
        self.staged.clear();
        let template = &fx.template;
        let restore = Supervisor::restore_from_store(
            fx.config.clone(),
            &mut self.store,
            |_| Ok(template.clone()),
            &self.recorder,
        );
        match restore {
            Ok((restored, report)) => {
                let generation = report
                    .fallback_generation
                    .ok_or("restore succeeded without a generation")?;
                if self
                    .store
                    .storage()
                    .sabotaged()
                    .contains(&entry_name(generation))
                {
                    // A torn or bit-flipped record decoded cleanly: a
                    // silent mis-restore the framing failed to catch.
                    self.sabotage_detection_ok = false;
                }
                let meta = self
                    .durable
                    .get(&generation)
                    .ok_or("restored a generation the harness never committed")?
                    .clone();
                let mut expected: Vec<u64> = meta.corrupted.clone();
                expected.sort_unstable();
                let mut got: Vec<u64> = report.quarantined.iter().map(|q| q.id).collect();
                got.sort_unstable();
                if expected != got {
                    self.quarantine_exact_ok = false;
                }
                self.sup = restored;
                self.mapping = meta
                    .mapping
                    .iter()
                    .filter(|(id, _)| report.restored.contains(id))
                    .map(|(&id, &si)| (id, si))
                    .collect();
                let mut quarantined = Vec::with_capacity(report.quarantined.len());
                for q in &report.quarantined {
                    let Some(&si) = meta.mapping.get(&q.id) else {
                        self.quarantine_exact_ok = false;
                        continue;
                    };
                    quarantined.push(si);
                    admit(&mut self.sup, &mut self.mapping, template, si)?;
                }
                self.restored_total += report.restored.len();
                self.quarantined_total += report.quarantined.len();
                self.cycles.push(ChaosCycle {
                    kill_step: step,
                    restored_generation: Some(generation),
                    fallback_depth: report.fallback_depth,
                    generation_quarantines: report.generation_quarantines.len(),
                    restored_sessions: report.restored.len(),
                    quarantined_sessions: report.quarantined.len(),
                    reserve_steps: (step + 1).saturating_sub(meta.resume_step),
                    recovery_ticks: kill_tick.saturating_sub(meta.tick),
                });
                Ok(Restored {
                    resume_step: meta.resume_step,
                    quarantined,
                })
            }
            Err(ServeError::BadSnapshot(_)) => {
                // Nothing valid stored: cold-start the fleet fresh.
                self.cold_starts += 1;
                self.sup = Supervisor::new(fx.config.clone())?.with_recorder(self.recorder.clone());
                self.mapping.clear();
                for si in 0..fx.opts.sessions {
                    admit(&mut self.sup, &mut self.mapping, template, si)?;
                }
                self.cycles.push(ChaosCycle {
                    kill_step: step,
                    restored_generation: None,
                    fallback_depth: 0,
                    generation_quarantines: self.store.stats().quarantined as usize,
                    restored_sessions: 0,
                    quarantined_sessions: fx.opts.sessions,
                    reserve_steps: 0,
                    recovery_ticks: 0,
                });
                self.quarantined_total += fx.opts.sessions;
                Ok(Restored {
                    resume_step: step + 1,
                    quarantined: (0..fx.opts.sessions).collect(),
                })
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Quarantined sessions are re-admitted fresh, so the subject's
    /// counters legitimately differ from the reference's; the books carry
    /// the comparison.
    fn same_outcome(&self, _reference: &Self) -> bool {
        true
    }
}

/// Admits a fresh session for workload `si`.
fn admit(
    sup: &mut Supervisor,
    mapping: &mut BTreeMap<u64, usize>,
    template: &StreamingDetector,
    si: usize,
) -> ExpResult<()> {
    let id = sup
        .admit(template.clone())
        .session()
        .ok_or("admission rejected below max_sessions")?;
    mapping.insert(id, si);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChaosOpts {
        ChaosOpts {
            sessions: 3,
            clips: 2,
            cycles: 3,
            checkpoint_every_steps: 30,
            ..ChaosOpts::default()
        }
    }

    #[test]
    fn recovery_is_exact_under_faults() {
        let r = run(small()).unwrap();
        assert_eq!(r.cycles.len(), 3);
        assert!(r.integrity_ok, "integrity must hold: {r:?}");
        assert_eq!(r.misrestores, 0);
        assert_eq!(r.cold_starts, 0, "first checkpoint is fault-free");
        assert!(
            r.store.write_failures > 0,
            "the fault plan must actually bite the store"
        );
        assert!(
            r.store.quarantined > 0 || r.cycles.iter().any(|c| c.quarantined_sessions > 0),
            "some corruption must surface: {r:?}"
        );
        let rendered = r.print();
        assert!(rendered.contains("chaos integrity: ok"));
        assert!(rendered.contains("re-serve"));
    }

    #[test]
    fn is_deterministic() {
        let a = run(small()).unwrap();
        let b = run(small()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quiet_plan_recovers_everything() {
        let mut opts = small();
        opts.plan = ChaosPlan::seeded(9);
        let r = run(opts).unwrap();
        assert!(r.integrity_ok);
        assert_eq!(r.quarantine_fraction, 0.0);
        assert!(r.cycles.iter().all(|c| c.fallback_depth == 0));
        assert_eq!(r.store.write_failures, 0);
    }
}
