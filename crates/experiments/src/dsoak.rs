//! Daemon kill/restore soak: the crash-recovery claim, proven at the
//! socket. An uninterrupted reference run records, per client, the exact
//! encoded bytes of every verdict/shed frame the daemon emits. The soak
//! run then drives the *same* client feeds while the daemon process is
//! killed mid-traffic (≥ 3 times) and restored from its newest surviving
//! checkpoint generation; clients reconnect, `Resume` their sessions, and
//! replay from the daemon's `next_sample` resume point. The
//! [`ReplayAudit`] books both runs' frames by clip, and the run is
//! falsified unless:
//!
//! * every never-quarantined client's verdict stream is **byte-identical**
//!   to the reference run's (keyed by clip index; a re-served clip must
//!   reproduce the identical frame, and an occupied slot that disagrees is
//!   a misrestore, not a retry);
//! * the wire accounting identity `verdicts == served` / `sheds == shed`
//!   / `served + shed == offered` holds **per incarnation** (wire counters
//!   reset at restore; serve counters restore from the checkpoint, so the
//!   identity is checked on deltas);
//! * a hostile garbage burst fired right after every restore still gets a
//!   typed malformed disconnect — recovery never loosens admission.

use crate::replay::{Books, ReplayAudit, Restored, Workload};
use crate::runner::render_table;
use crate::{ExpError, ExpResult};
use lumen_chat::feed::SampleFeed;
use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::stream::StreamingDetector;
use lumen_core::Config;
use lumen_daemon::wire::{DisconnectCause, Frame};
use lumen_daemon::{Daemon, DaemonClient, DaemonConfig, DetectorFactory};
use lumen_obs::FlightConfig;
use lumen_serve::{CheckpointStore, MemStorage, ServeConfig, ServeStats, StoreConfig, Supervisor};
use serde::{Deserialize, Serialize};

/// Options for the kill/restore soak.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DsoakOpts {
    /// Honest clients streaming recorded feeds.
    pub clients: usize,
    /// Clips each client streams.
    pub clips: usize,
    /// Clean training instances for the shared enrolment.
    pub train_count: usize,
    /// Mid-traffic kill/restore cycles (the issue demands ≥ 3).
    pub kills: usize,
    /// Daemon checkpoint cadence, event-loop turns.
    pub checkpoint_every_turns: u64,
    /// Detections allowed per budget period (generous: shedding would
    /// make the reference and soak streams legitimately diverge).
    pub budget_clips: u64,
    /// Budget period length, ticks.
    pub budget_period_ticks: u64,
    /// Queued-clip deadline, ticks.
    pub deadline_ticks: u64,
}

impl Default for DsoakOpts {
    fn default() -> Self {
        DsoakOpts {
            clients: 3,
            clips: 3,
            train_count: 10,
            kills: 3,
            checkpoint_every_turns: 25,
            budget_clips: 256,
            budget_period_ticks: 30,
            deadline_ticks: 2_000,
        }
    }
}

/// One kill/restore cycle's row in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KillRow {
    /// Global soak turn the daemon died at.
    pub at_turn: u64,
    /// Checkpoint generation the restore came back from.
    pub generation: Option<u64>,
    /// Sessions restored intact.
    pub restored: usize,
    /// Sessions the restore quarantined.
    pub quarantined: usize,
    /// Clients whose `Resume` was accepted.
    pub resumed: usize,
    /// Clients whose `Resume` was rejected.
    pub rejected: usize,
    /// The dying incarnation's wire/serve accounting identity held.
    pub accounting_ok: bool,
    /// The post-restore garbage burst got a typed malformed disconnect.
    pub hostile_typed_ok: bool,
}

/// The kill/restore soak result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DsoakResult {
    /// One row per kill/restore cycle.
    pub kills: Vec<KillRow>,
    /// Verdict/shed frames the reference run recorded, all clients.
    pub reference_frames: u64,
    /// Verdict/shed frames the soak run recorded, all clients.
    pub soak_frames: u64,
    /// Clients never quarantined across every restore.
    pub never_quarantined: usize,
    /// Every never-quarantined client's stream matched byte-for-byte.
    pub byte_identity_ok: bool,
    /// No occupied verdict slot ever disagreed with a re-served frame.
    pub no_misrestore_ok: bool,
    /// Accounting identity held in every incarnation, including the last.
    pub accounting_ok: bool,
    /// Every post-restore hostile burst was typed, never a panic.
    pub hostile_ok: bool,
    /// All of the above, with every requested kill actually performed.
    pub integrity_ok: bool,
}

impl DsoakResult {
    /// Renders the result as an aligned table plus a verdict footer.
    pub fn print(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .kills
            .iter()
            .map(|k| {
                vec![
                    k.at_turn.to_string(),
                    k.generation.map_or("-".to_string(), |g| g.to_string()),
                    k.restored.to_string(),
                    k.quarantined.to_string(),
                    k.resumed.to_string(),
                    k.rejected.to_string(),
                    if k.accounting_ok { "ok" } else { "FAIL" }.to_string(),
                    if k.hostile_typed_ok { "ok" } else { "FAIL" }.to_string(),
                ]
            })
            .collect();
        let mut out = render_table(
            "Dsoak — daemon kill/restore soak over real sockets",
            &[
                "kill@turn",
                "gen",
                "restored",
                "quarantined",
                "resumed",
                "rejected",
                "accounting",
                "hostile",
            ],
            &rows,
        );
        out.push('\n');
        out.push_str(&format!(
            "frames: reference {} soak {}; never-quarantined clients {}\n",
            self.reference_frames, self.soak_frames, self.never_quarantined,
        ));
        out.push_str(&format!(
            "byte-identical verdict streams: {}; misrestore-free: {}; \
             per-incarnation accounting: {}; hostile-after-restore typed: {}\n",
            flag(self.byte_identity_ok),
            flag(self.no_misrestore_ok),
            flag(self.accounting_ok),
            flag(self.hostile_ok),
        ));
        out.push_str(&format!("dsoak integrity: {}\n", flag(self.integrity_ok)));
        out
    }
}

fn flag(ok: bool) -> String {
    if ok { "ok" } else { "FAIL" }.to_string()
}

struct SoakClient {
    client: DaemonClient,
    feed: SampleFeed,
    session: Option<u64>,
    degraded: bool,
}

struct Fixture {
    serve_config: ServeConfig,
    daemon_config: DaemonConfig,
    detector: Detector,
    feeds: Vec<Vec<TracePair>>,
    clips: usize,
}

fn fixture(opts: &DsoakOpts) -> ExpResult<Fixture> {
    let clean = ScenarioBuilder::default();
    let training: Vec<TracePair> = (0..opts.train_count)
        .map(|i| clean.legitimate(0, 95_000 + i as u64))
        .collect::<Result<_, _>>()?;
    let detector = Detector::train_from_traces(&training, Config::default())?;
    let feeds = (0..opts.clients)
        .map(|ci| {
            (0..opts.clips)
                .map(|clip| clean.legitimate(0, 96_000 + (clip * 100 + ci) as u64))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Fixture {
        serve_config: ServeConfig {
            max_sessions: opts.clients + 1,
            queue_clips: 4,
            budget_clips: opts.budget_clips,
            budget_period_ticks: opts.budget_period_ticks,
            deadline_ticks: opts.deadline_ticks,
            ..ServeConfig::default()
        },
        daemon_config: DaemonConfig {
            checkpoint_every_turns: opts.checkpoint_every_turns,
            idle_turns: 5_000,
            read_turns: 2_500,
            ..DaemonConfig::default()
        },
        detector,
        feeds,
        clips: opts.clips,
    })
}

fn make_factory(detector: &Detector) -> DetectorFactory {
    let det = detector.clone();
    Box::new(move |_| StreamingDetector::new(det.clone(), 15.0, 3))
}

/// Books a daemon→client frame: a clip yields exactly one verdict *or*
/// shed frame, so the clip index keys it unambiguously, and its encoded
/// bytes are the record a re-served clip must reproduce.
fn book_frame(books: &mut Books<Vec<u8>>, client: usize, frame: &Frame) {
    if let Frame::Verdict { verdict, .. } | Frame::Shed { verdict, .. } = frame {
        books.record(client, verdict.clip_index as usize, frame.encode());
    }
}

/// One daemon with its clients, driven a turn per step. The reference
/// runs it uninterrupted; the audit kills the subject.
struct SoakRun<'a> {
    fx: &'a Fixture,
    daemon: Daemon<MemStorage>,
    clients: Vec<SoakClient>,
    serve_base: ServeStats,
    /// The wire/serve accounting identity held in every incarnation so
    /// far.
    accounting: bool,
    /// Every post-restore hostile burst was typed.
    hostile: bool,
    kills: Vec<KillRow>,
}

impl<'a> SoakRun<'a> {
    fn start(fx: &'a Fixture) -> ExpResult<Self> {
        let sup = Supervisor::new(fx.serve_config.clone())?.with_flight(FlightConfig::default());
        let store = CheckpointStore::new(MemStorage::new(), StoreConfig::default())?;
        let mut daemon = Daemon::new(
            sup,
            make_factory(&fx.detector),
            fx.daemon_config.clone(),
            Some(store),
        )?;
        let mut clients = Vec::with_capacity(fx.feeds.len());
        for pairs in &fx.feeds {
            let mut client = DaemonClient::connect(daemon.port())?;
            client.send(&Frame::Hello)?;
            clients.push(SoakClient {
                client,
                feed: SampleFeed::from_pairs(pairs)?,
                session: None,
                degraded: false,
            });
        }
        for _ in 0..64 {
            daemon.turn_once()?;
            for c in clients.iter_mut() {
                for frame in c.client.poll()? {
                    if let Frame::Welcome { session } = frame {
                        c.session = Some(session);
                        c.client.set_session(Some(session));
                    }
                }
            }
            if clients.iter().all(|c| c.session.is_some()) {
                break;
            }
        }
        if clients.iter().any(|c| c.session.is_none()) {
            return Err(ExpError::from("a client was never admitted"));
        }
        Ok(SoakRun {
            fx,
            daemon,
            clients,
            serve_base: ServeStats::default(),
            accounting: true,
            hostile: true,
            kills: Vec::new(),
        })
    }

    /// Books everything the daemon has flushed to the live clients.
    fn poll(&mut self, books: &mut Books<Vec<u8>>) -> ExpResult<()> {
        for (ci, c) in self.clients.iter_mut().enumerate() {
            if c.degraded {
                continue;
            }
            for frame in c.client.poll()? {
                book_frame(books, ci, &frame);
            }
        }
        Ok(())
    }

    /// This incarnation's wire counters match its serve counters: wire
    /// counters reset at restore while serve counters restore from the
    /// checkpoint, so the identity is checked on deltas.
    fn incarnation_ok(&self) -> bool {
        let (end, start) = (self.daemon.serve_stats(), &self.serve_base);
        let wire = self.daemon.wire_stats();
        let served = end.served_clips - start.served_clips;
        let shed = end.shed_clips - start.shed_clips;
        let offered = end.offered_clips - start.offered_clips;
        wire.verdict_total() == served && wire.shed_total() == shed && served + shed == offered
    }
}

impl Workload for SoakRun<'_> {
    type Record = Vec<u8>;

    /// One shared event-loop turn: feed a sample per live client, turn
    /// the daemon, book everything it said.
    fn step(&mut self, _step: usize, books: &mut Books<Vec<u8>>) -> ExpResult<()> {
        for c in self.clients.iter_mut() {
            if c.degraded {
                continue;
            }
            if let Some(session) = c.session {
                if let Some((tx, rx)) = c.feed.next_sample() {
                    c.client.send(&Frame::Sample { session, tx, rx })?;
                }
            }
        }
        self.daemon.turn_once()?;
        self.poll(books)
    }

    fn done(&self, books: &Books<Vec<u8>>) -> bool {
        self.clients.iter().enumerate().all(|(ci, c)| {
            c.degraded || (c.feed.remaining() == 0 && books.booked(ci) >= self.fx.clips)
        })
    }

    /// Drains the daemon, sweeps the last flushed frames into the books
    /// and checks the last incarnation's accounting.
    fn drain(&mut self, books: &mut Books<Vec<u8>>) -> ExpResult<()> {
        self.daemon.drain(20_000)?;
        self.poll(books)?;
        self.accounting &= self.incarnation_ok();
        Ok(())
    }

    /// Sweeps everything already flushed while the sockets are still
    /// alive, then pulls the plug between two turns: the checkpoint on
    /// storage is all the next process gets. Clients reconnect, `Resume`
    /// and rewind their feeds; a garbage burst then checks that recovery
    /// never loosens admission.
    fn kill_and_restore(&mut self, step: usize, books: &mut Books<Vec<u8>>) -> ExpResult<Restored> {
        let fx = self.fx;
        self.poll(books)?;
        let incarnation_ok = self.incarnation_ok();
        self.accounting &= incarnation_ok;
        let storage = self
            .daemon
            .store()
            .ok_or_else(|| ExpError::from("soak daemon lost its store"))?
            .storage()
            .clone();
        let surviving = CheckpointStore::new(storage, StoreConfig::default())?;
        let (restored, report) = Daemon::restore_from_store(
            fx.serve_config.clone(),
            surviving,
            make_factory(&fx.detector),
            fx.daemon_config.clone(),
            Some(FlightConfig::default()),
        )?;
        self.daemon = restored;
        self.serve_base = self.daemon.serve_stats().clone();
        for q in &report.quarantined {
            for c in self.clients.iter_mut() {
                if c.session == Some(q.id) {
                    c.degraded = true;
                }
            }
        }
        let mut resumed = 0usize;
        let mut rejected = 0usize;
        for (ci, c) in self.clients.iter_mut().enumerate() {
            if c.degraded {
                continue;
            }
            let Some(session) = c.session else { continue };
            c.client = DaemonClient::connect(self.daemon.port())?;
            c.client.send(&Frame::Resume { session })?;
            let mut answered = false;
            for _ in 0..64 {
                self.daemon.turn_once()?;
                for frame in c.client.poll()? {
                    match frame {
                        Frame::Resumed { next_sample, .. } => {
                            c.feed.rewind_to(next_sample as usize)?;
                            resumed += 1;
                            answered = true;
                        }
                        Frame::ResumeRejected { .. } => {
                            c.degraded = true;
                            rejected += 1;
                            answered = true;
                        }
                        other => book_frame(books, ci, &other),
                    }
                }
                if answered {
                    break;
                }
            }
            if !answered {
                return Err(ExpError::from("resume went unanswered"));
            }
        }
        let burst_ok = hostile_burst(&mut self.daemon)?;
        self.hostile &= burst_ok;
        self.kills.push(KillRow {
            at_turn: step as u64 + 1,
            generation: report.fallback_generation,
            restored: report.restored.len(),
            quarantined: report.quarantined.len(),
            resumed,
            rejected,
            accounting_ok: incarnation_ok,
            hostile_typed_ok: burst_ok,
        });
        Ok(Restored {
            resume_step: step + 1,
            quarantined: (0..self.clients.len())
                .filter(|&ci| self.clients[ci].degraded)
                .collect(),
        })
    }

    /// Wire counters restart with every incarnation, so each run checks
    /// its accounting per incarnation instead of against the other run.
    fn same_outcome(&self, _reference: &Self) -> bool {
        true
    }
}

/// Fires a garbage burst at a freshly restored daemon and demands the
/// typed malformed disconnect — recovery must not loosen admission.
fn hostile_burst(daemon: &mut Daemon<MemStorage>) -> ExpResult<bool> {
    let mut hostile = DaemonClient::connect(daemon.port())?;
    hostile.send_raw(b"\x00GET /chat HTTP/1.1\r\n\r\n")?;
    for _ in 0..32 {
        daemon.turn_once()?;
        hostile.poll()?;
        if hostile.is_closed() {
            break;
        }
    }
    Ok(hostile.goodbye() == Some(DisconnectCause::Malformed))
}

/// Runs the kill/restore soak.
///
/// # Errors
///
/// Propagates scenario, training, daemon, store and transport errors;
/// kills, quarantines and hostile traffic are results, not errors.
pub fn run(opts: DsoakOpts) -> ExpResult<DsoakResult> {
    let fx = fixture(&opts)?;
    let mut reference = SoakRun::start(&fx)?;
    let mut soak = SoakRun::start(&fx)?;

    let clip_samples = StreamingDetector::new(fx.detector.clone(), 15.0, 3)?.clip_samples();
    let total_steps = opts.clips * clip_samples;
    // A kill lands between two turns: after turn `t - 1`, before turn `t`.
    let audit = ReplayAudit {
        steps: total_steps + (opts.kills + 1) * 1_000,
        kills: (1..=opts.kills)
            .map(|k| (total_steps * k / (opts.kills + 1)).saturating_sub(1))
            .collect(),
    };
    let report = audit.run(&mut reference, &mut soak)?;

    let never_quarantined = opts.clients - report.exempt.len();
    let byte_identity_ok = report.books_match() && never_quarantined > 0;
    let no_misrestore_ok = report.misrestores == 0;
    let integrity_ok = soak.kills.len() >= opts.kills.max(3)
        && byte_identity_ok
        && no_misrestore_ok
        && soak.accounting
        && soak.hostile
        && reference.accounting;

    Ok(DsoakResult {
        kills: soak.kills,
        reference_frames: report.reference_records,
        soak_frames: report.subject_records,
        never_quarantined,
        byte_identity_ok,
        no_misrestore_ok,
        accounting_ok: soak.accounting,
        hostile_ok: soak.hostile,
        integrity_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_survives_three_kills_with_byte_identity() {
        let r = run(DsoakOpts {
            clients: 2,
            clips: 2,
            train_count: 8,
            ..DsoakOpts::default()
        })
        .expect("run");
        assert!(r.integrity_ok, "{}", r.print());
        assert_eq!(r.kills.len(), 3);
        assert!(r.print().contains("dsoak integrity: ok"));
    }
}
