//! One kill/restore replay audit for every serving tier.
//!
//! The paper decides a call by majority vote over consecutive clip
//! verdicts (Fig. 14), so a restart that drops or alters a single clip's
//! verdict can change the call. [`ReplayAudit`] is the one check that a
//! restart is invisible. It runs an uninterrupted *reference* and an
//! interrupted *subject* of the same [`Workload`],
//! books every session's verdicts by clip index ([`Books`]), and compares:
//!
//! * a re-served clip must reproduce the record booked before the crash,
//!   or it is a **misrestore**;
//! * a clip the reference booked but the subject never did is a **hole**;
//! * a session a restore quarantined is **exempt** from then on, and
//!   counted;
//! * where the workload keeps final counters ([`Workload::same_outcome`]),
//!   the two runs must end with equal ones. The shared workloads count
//!   each live session's final stream state among them: while every vote
//!   in a ring agrees, a lost vote changes no verdict, so the books alone
//!   cannot see it.
//!
//! The chaos, dsoak, overload and fleet experiments and the checkpoint,
//! fleet and soak integration tests all audit through this module.
//! [`SupervisorReplay`] and [`FleetReplay`] are the workloads they share.

use crate::ExpResult;
use lumen_chat::feed::SampleFeed;
use lumen_core::stream::{ClipVerdict, StreamSnapshot, StreamingDetector};
use lumen_fleet::{Fleet, FleetAdmitOutcome, FleetConfig, FleetEvent, FleetSnapshot};
use lumen_obs::Recorder;
use lumen_serve::store::{decode_payload, encode_payload};
use lumen_serve::{
    CheckpointStore, MemStorage, SessionEvent, SessionEventKind, StoreConfig, Supervisor,
    SupervisorSnapshot,
};
use std::collections::BTreeSet;

/// Every session's verdict records, indexed by clip, as one run booked
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct Books<R> {
    sessions: Vec<Vec<Option<R>>>,
    exempt: BTreeSet<usize>,
    misrestores: u64,
}

impl<R: PartialEq> Books<R> {
    fn new() -> Self {
        Books {
            sessions: Vec::new(),
            exempt: BTreeSet::new(),
            misrestores: 0,
        }
    }

    /// Books `record` as `session`'s verdict for clip `clip`. A clip
    /// booked before must reproduce its record, or it counts as a
    /// misrestore and the first record stands. Exempt sessions book
    /// nothing.
    pub fn record(&mut self, session: usize, clip: usize, record: R) {
        if self.exempt.contains(&session) {
            return;
        }
        if self.sessions.len() <= session {
            self.sessions.resize_with(session + 1, Vec::new);
        }
        let book = &mut self.sessions[session];
        if book.len() <= clip {
            book.resize_with(clip + 1, || None);
        }
        match &book[clip] {
            Some(booked) => self.misrestores += u64::from(*booked != record),
            None => book[clip] = Some(record),
        }
    }

    /// Clips booked for `session`.
    pub fn booked(&self, session: usize) -> usize {
        self.sessions
            .get(session)
            .map_or(0, |book| book.iter().flatten().count())
    }

    fn total(&self) -> u64 {
        self.sessions.iter().flatten().flatten().count() as u64
    }

    /// Holes and mismatches of these books' unexempt sessions against
    /// `reference`.
    fn compare(&self, reference: &Books<R>) -> (u64, u64) {
        let (mut holes, mut mismatches) = (0, 0);
        let sessions = self.sessions.len().max(reference.sessions.len());
        for session in (0..sessions).filter(|s| !self.exempt.contains(s)) {
            let ours = self.sessions.get(session).map_or(&[][..], Vec::as_slice);
            let theirs = reference
                .sessions
                .get(session)
                .map_or(&[][..], Vec::as_slice);
            for clip in 0..ours.len().max(theirs.len()) {
                let expected = theirs.get(clip).and_then(Option::as_ref);
                let got = ours.get(clip).and_then(Option::as_ref);
                match (expected, got) {
                    (Some(_), None) => holes += 1,
                    (expected, got) if expected != got => mismatches += 1,
                    _ => {}
                }
            }
        }
        (holes, mismatches)
    }
}

/// A serving workload the audit can step, drain, kill and restore. The
/// fallible methods propagate the runtime's serving, snapshot and store
/// errors.
pub trait Workload {
    /// What one clip's verdict is booked as.
    type Record: PartialEq;

    /// Runs workload step `step`, booking every verdict it observes.
    fn step(&mut self, step: usize, books: &mut Books<Self::Record>) -> ExpResult<()>;

    /// Serves or sheds everything still queued after the last step,
    /// booking the verdicts.
    fn drain(&mut self, books: &mut Books<Self::Record>) -> ExpResult<()>;

    /// Kills the runtime after step `step` and restores it from what it
    /// persisted, booking any verdict the restart surfaces.
    fn kill_and_restore(
        &mut self,
        step: usize,
        books: &mut Books<Self::Record>,
    ) -> ExpResult<Restored>;

    /// Whether the workload is complete before the audit's step limit.
    /// Asked only once every kill has fired; most workloads run every
    /// step.
    fn done(&self, _books: &Books<Self::Record>) -> bool {
        false
    }

    /// Whether this run ended with the same final counters as
    /// `reference`, for workloads whose restores must leave them intact.
    fn same_outcome(&self, reference: &Self) -> bool;
}

/// Where a restored run resumes, and which sessions it lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Restored {
    /// The next step to run: at or before the kill when the restore
    /// rewinds the feed, right after it when the snapshot was current.
    pub resume_step: usize,
    /// Sessions the restore quarantined; the audit exempts them.
    pub quarantined: Vec<usize>,
}

/// One kill/restore replay audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayAudit {
    /// Step limit of both runs.
    pub steps: usize,
    /// Steps after which the subject is killed and restored, ascending.
    /// Each fires once: a replay that passes the step again goes on.
    pub kills: Vec<usize>,
}

/// What an audit found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Sessions a restore quarantined, exempt from the comparison.
    pub exempt: Vec<usize>,
    /// Re-served clips, in either run, whose record differed from the
    /// one booked first.
    pub misrestores: u64,
    /// Clips the reference booked that an unexempt subject session never
    /// did.
    pub holes: u64,
    /// Clips of unexempt sessions that the two runs booked differently,
    /// or that only the subject booked.
    pub mismatches: u64,
    /// The final counters agreed.
    pub outcome_ok: bool,
    /// Records the reference booked, all sessions.
    pub reference_records: u64,
    /// Records the subject booked, all sessions.
    pub subject_records: u64,
}

impl ReplayReport {
    /// Every unexempt session's book equals the reference's.
    pub fn books_match(&self) -> bool {
        self.holes == 0 && self.mismatches == 0
    }

    /// The restarts were invisible: no misrestore, matching books and
    /// matching final counters.
    pub fn ok(&self) -> bool {
        self.misrestores == 0 && self.books_match() && self.outcome_ok
    }
}

impl ReplayAudit {
    /// Runs `reference` uninterrupted, then `subject` with the kills, and
    /// compares them.
    ///
    /// # Errors
    ///
    /// Propagates workload errors, and fails when a kill step is never
    /// reached.
    pub fn run<W: Workload>(&self, reference: &mut W, subject: &mut W) -> ExpResult<ReplayReport> {
        let expected = self.drive(reference, &[])?;
        let books = self.drive(subject, &self.kills)?;
        let (holes, mismatches) = books.compare(&expected);
        Ok(ReplayReport {
            exempt: books.exempt.iter().copied().collect(),
            misrestores: expected.misrestores + books.misrestores,
            holes,
            mismatches,
            outcome_ok: subject.same_outcome(reference),
            reference_records: expected.total(),
            subject_records: books.total(),
        })
    }

    /// Runs `workload` uninterrupted and returns its books.
    ///
    /// # Errors
    ///
    /// Propagates workload errors.
    pub fn book<W: Workload>(&self, workload: &mut W) -> ExpResult<Books<W::Record>> {
        self.drive(workload, &[])
    }

    fn drive<W: Workload>(&self, workload: &mut W, kills: &[usize]) -> ExpResult<Books<W::Record>> {
        let mut books = Books::new();
        let (mut step, mut fired) = (0, 0);
        while step < self.steps {
            workload.step(step, &mut books)?;
            if kills.get(fired) == Some(&step) {
                fired += 1;
                let restored = workload.kill_and_restore(step, &mut books)?;
                books.exempt.extend(restored.quarantined);
                step = restored.resume_step;
            } else {
                step += 1;
                if fired == kills.len() && workload.done(&books) {
                    break;
                }
            }
        }
        if let Some(missed) = kills.get(fired) {
            return Err(format!("the kill after step {missed} never fired").into());
        }
        workload.drain(&mut books)?;
        Ok(books)
    }
}

/// The verdict a served or shed clip recorded into its session's stream.
pub fn clip_verdict(kind: &SessionEventKind) -> Option<&ClipVerdict> {
    match kind {
        SessionEventKind::Verdict(v) | SessionEventKind::Shed { verdict: v, .. } => Some(v),
        _ => None,
    }
}

/// Drives one [`Supervisor`]: session `i` streams `feeds[i]`, and every
/// step offers each feed's next sample, then ticks. A kill round-trips the
/// snapshot through the checkpoint store's payload codec, drops the
/// supervisor and restores it. The final counters are the whole event
/// stream, the [`ServeStats`](lumen_serve::ServeStats) and every session's
/// [`StreamSnapshot`].
pub struct SupervisorReplay {
    sup: Supervisor,
    template: StreamingDetector,
    feeds: Vec<SampleFeed>,
    events: Vec<SessionEvent>,
}

impl SupervisorReplay {
    /// Admits one session per feed into `sup`, each a fresh clone of
    /// `template`.
    ///
    /// # Errors
    ///
    /// Fails when `sup` refuses a session or numbers them out of order.
    pub fn new(
        mut sup: Supervisor,
        template: &StreamingDetector,
        feeds: Vec<SampleFeed>,
    ) -> ExpResult<Self> {
        for index in 0..feeds.len() as u64 {
            if sup.admit(template.clone()).session() != Some(index) {
                return Err(format!("supervisor did not admit session {index} in order").into());
            }
        }
        Ok(SupervisorReplay {
            sup,
            template: template.clone(),
            feeds,
            events: Vec::new(),
        })
    }

    /// The supervisor as it stands.
    pub fn supervisor(&self) -> &Supervisor {
        &self.sup
    }

    /// Every event drained so far, in order.
    pub fn events(&self) -> &[SessionEvent] {
        &self.events
    }

    fn book_events(&mut self, books: &mut Books<ClipVerdict>) {
        for event in self.sup.drain_events() {
            if let Some(v) = clip_verdict(&event.kind) {
                books.record(event.session as usize, v.clip_index, v.clone());
            }
            self.events.push(event);
        }
    }
}

impl Workload for SupervisorReplay {
    type Record = ClipVerdict;

    fn step(&mut self, _step: usize, books: &mut Books<ClipVerdict>) -> ExpResult<()> {
        for (id, feed) in self.feeds.iter_mut().enumerate() {
            if let Some((tx, rx)) = feed.next_sample() {
                self.sup.offer(id as u64, tx, rx)?;
            }
        }
        self.sup.tick();
        self.book_events(books);
        Ok(())
    }

    fn drain(&mut self, books: &mut Books<ClipVerdict>) -> ExpResult<()> {
        let mut guard = 0u64;
        while self.sup.pending_clips() > 0 {
            self.sup.tick();
            guard += 1;
            if guard > 1_000_000 {
                return Err("supervisor queues failed to drain".into());
            }
        }
        self.book_events(books);
        Ok(())
    }

    fn kill_and_restore(
        &mut self,
        step: usize,
        books: &mut Books<ClipVerdict>,
    ) -> ExpResult<Restored> {
        self.book_events(books);
        let snap = self.sup.snapshot();
        let back: SupervisorSnapshot = decode_payload(&encode_payload(&snap))?;
        if back != snap {
            return Err("supervisor snapshot did not survive the payload codec".into());
        }
        let template = &self.template;
        self.sup = Supervisor::restore(self.sup.config().clone(), &back, |_| Ok(template.clone()))?;
        Ok(Restored {
            resume_step: step + 1,
            quarantined: Vec::new(),
        })
    }

    fn same_outcome(&self, reference: &Self) -> bool {
        let streams = |sup: &Supervisor| -> Vec<(u64, Option<StreamSnapshot>)> {
            sup.session_ids()
                .into_iter()
                .map(|id| (id, sup.stream(id).ok().map(StreamingDetector::snapshot)))
                .collect()
        };
        self.events == reference.events
            && self.sup.stats() == reference.sup.stats()
            && streams(&self.sup) == streams(&reference.sup)
    }
}

/// Drives one [`Fleet`] the way [`SupervisorReplay`] drives a supervisor:
/// session `i` is admitted under key `i` and streams `feeds[i]`, and every
/// tick checks the conservation ledger. A kill commits a [`FleetSnapshot`]
/// to a fresh checkpoint store, drops the fleet and restores it from the
/// store shard by shard. The final counters are the whole event stream,
/// the summed shard stats and each live session's [`StreamSnapshot`].
pub struct FleetReplay {
    fleet: Fleet,
    template: StreamingDetector,
    feeds: Vec<SampleFeed>,
    /// Fleet id of each live session; `None` once quarantined.
    ids: Vec<Option<u64>>,
    events: Vec<FleetEvent>,
    rot: Option<usize>,
    ledger_ok: bool,
}

impl FleetReplay {
    /// Admits one session per feed into a new fleet, each a fresh clone of
    /// `template`.
    ///
    /// # Errors
    ///
    /// Fails on an invalid config or a refused session.
    pub fn new(
        config: FleetConfig,
        template: &StreamingDetector,
        feeds: Vec<SampleFeed>,
    ) -> ExpResult<Self> {
        let mut fleet = Fleet::new(config)?;
        let mut ids = Vec::with_capacity(feeds.len());
        for key in 0..feeds.len() as u64 {
            match fleet.admit(key, template.clone()) {
                FleetAdmitOutcome::Admitted { session, .. } => ids.push(Some(session)),
                other => return Err(format!("fleet refused session {key}: {other:?}").into()),
            }
        }
        Ok(FleetReplay {
            fleet,
            template: template.clone(),
            feeds,
            ids,
            events: Vec::new(),
            rot: None,
            ledger_ok: true,
        })
    }

    /// Rots `session`'s entry in the snapshot the next kill takes, before
    /// it is stored; the restore must quarantine that session.
    pub fn rot(mut self, session: usize) -> Self {
        self.rot = Some(session);
        self
    }

    /// The fleet as it stands.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// `offered == served + shed + in_flight` held after every tick so
    /// far.
    pub fn ledger_ok(&self) -> bool {
        self.ledger_ok
    }

    fn tick(&mut self) {
        self.fleet.tick();
        self.ledger_ok &= self.fleet.ledger().holds();
    }

    /// Each session's stream state, `None` once quarantined.
    fn streams(&self) -> Vec<Option<StreamSnapshot>> {
        self.ids
            .iter()
            .map(|id| {
                id.and_then(|id| self.fleet.stream(id).ok())
                    .map(StreamingDetector::snapshot)
            })
            .collect()
    }

    fn book_events(&mut self, books: &mut Books<ClipVerdict>) {
        for event in self.fleet.drain_events() {
            let session = self.ids.iter().position(|&id| id == Some(event.session));
            if let (Some(v), Some(session)) = (clip_verdict(&event.kind), session) {
                books.record(session, v.clip_index, v.clone());
            }
            self.events.push(event);
        }
    }
}

impl Workload for FleetReplay {
    type Record = ClipVerdict;

    fn step(&mut self, _step: usize, books: &mut Books<ClipVerdict>) -> ExpResult<()> {
        for (id, feed) in self.ids.iter().zip(&mut self.feeds) {
            if let (Some(id), Some((tx, rx))) = (id, feed.next_sample()) {
                self.fleet.offer(*id, tx, rx)?;
            }
        }
        self.tick();
        self.book_events(books);
        Ok(())
    }

    fn drain(&mut self, books: &mut Books<ClipVerdict>) -> ExpResult<()> {
        let mut guard = 0u64;
        while self.fleet.pending_clips() > 0 {
            self.tick();
            guard += 1;
            if guard > 1_000_000 {
                return Err("fleet queues failed to drain".into());
            }
        }
        self.book_events(books);
        Ok(())
    }

    fn kill_and_restore(
        &mut self,
        step: usize,
        books: &mut Books<ClipVerdict>,
    ) -> ExpResult<Restored> {
        self.book_events(books);
        let mut snap = self.fleet.snapshot();
        if let Some(id) = self
            .rot
            .take()
            .and_then(|s| self.ids.get(s).copied().flatten())
        {
            // A fleet id encodes its home shard: `local * shards + shard`.
            let shards = snap.shards.len() as u64;
            let shard = &mut snap.shards[(id % shards) as usize];
            if let Some(entry) = shard.sessions.iter_mut().find(|e| e.id == id / shards) {
                entry.stream.rx_buffer.push(0.0);
            }
        }
        let mut store: CheckpointStore<MemStorage, FleetSnapshot> =
            CheckpointStore::new(MemStorage::new(), StoreConfig::default())?;
        store.commit(snap.manifest.tick, &snap)?;
        if store.load_latest()?.loaded.map(|l| l.snapshot) != Some(snap) {
            return Err("fleet snapshot did not survive the store round trip".into());
        }
        let template = &self.template;
        let (fleet, report) = Fleet::restore_from_store(
            self.fleet.config().clone(),
            &mut store,
            |_| Ok(template.clone()),
            &Recorder::null(),
        )?;
        self.fleet = fleet;
        let live = self.ids.iter().flatten().count();
        let lost = report.quarantined_sessions();
        let quarantined: Vec<usize> = (0..self.ids.len())
            .filter(|&s| self.ids[s].is_some_and(|id| lost.contains(&id)))
            .collect();
        for &session in &quarantined {
            self.ids[session] = None;
        }
        if report.restored_sessions() + quarantined.len() != live {
            return Err("fleet restore lost a session without quarantining it".into());
        }
        Ok(Restored {
            resume_step: step + 1,
            quarantined,
        })
    }

    fn same_outcome(&self, reference: &Self) -> bool {
        self.events == reference.events
            && self.fleet.shard_stats() == reference.fleet.shard_stats()
            && self.streams() == reference.streams()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two sessions; step `t` books clip `t` of each as `10 * t + session`.
    /// The restore resumes at `resume`; `alter` changes the first verdict
    /// of session 0 it re-serves, and `quarantine` quarantines a session
    /// whose verdicts then all change.
    #[derive(Default)]
    struct Toy {
        resume: usize,
        alter: bool,
        quarantine: Option<usize>,
        restored: bool,
        fresh: bool,
    }

    impl Workload for Toy {
        type Record = usize;

        fn step(&mut self, step: usize, books: &mut Books<usize>) -> ExpResult<()> {
            for session in 0..2 {
                let altered = self.fresh && self.alter && session == 0;
                let quarantined = self.restored && self.quarantine == Some(session);
                let record = 10 * step + session + usize::from(altered || quarantined);
                books.record(session, step, record);
            }
            self.fresh = false;
            Ok(())
        }

        fn drain(&mut self, _books: &mut Books<usize>) -> ExpResult<()> {
            Ok(())
        }

        fn kill_and_restore(&mut self, _: usize, _: &mut Books<usize>) -> ExpResult<Restored> {
            (self.restored, self.fresh) = (true, true);
            Ok(Restored {
                resume_step: self.resume,
                quarantined: self.quarantine.into_iter().collect(),
            })
        }

        fn same_outcome(&self, _reference: &Self) -> bool {
            true
        }
    }

    /// Eight steps, killed after step 4.
    fn audit(resume: usize, alter: bool, quarantine: Option<usize>) -> ReplayReport {
        let mut subject = Toy {
            resume,
            alter,
            quarantine,
            ..Toy::default()
        };
        let audit = ReplayAudit {
            steps: 8,
            kills: vec![4],
        };
        audit.run(&mut Toy::default(), &mut subject).unwrap()
    }

    #[test]
    fn a_faithful_rewind_passes() {
        let report = audit(2, false, None);
        assert!(report.ok(), "{report:?}");
        assert_eq!((report.reference_records, report.subject_records), (16, 16));
    }

    #[test]
    fn an_altered_reserved_verdict_is_a_misrestore() {
        let report = audit(2, true, None);
        assert_eq!(
            report.misrestores, 1,
            "clip 2 of session 0 came back changed"
        );
        assert!(
            report.books_match() && !report.ok(),
            "the first record stands"
        );
    }

    #[test]
    fn a_skipped_clip_is_a_hole() {
        let report = audit(6, false, None);
        assert_eq!(report.holes, 2, "clip 5 of both sessions was never served");
        assert_eq!((report.misrestores, report.mismatches), (0, 0));
        assert!(!report.ok());
    }

    #[test]
    fn a_quarantined_session_is_exempt_and_counted() {
        let report = audit(2, false, Some(1));
        assert_eq!(report.exempt, vec![1]);
        assert!(
            report.ok(),
            "session 1's changed verdicts are exempt: {report:?}"
        );
        assert_eq!(
            report.subject_records,
            8 + 5,
            "session 1 booked clips 0..=4"
        );
    }

    #[test]
    fn an_unreached_kill_is_an_error() {
        let audit = ReplayAudit {
            steps: 3,
            kills: vec![5],
        };
        assert!(audit.run(&mut Toy::default(), &mut Toy::default()).is_err());
    }
}
