//! End-to-end loopback integration: a real `lumend` daemon on a real
//! kernel socket, driven in lockstep by [`DaemonClient`]s in the same
//! thread. Covers the happy path (admission → samples → verdicts →
//! metrics), every typed-disconnect path (malformed, oversize, abuse,
//! idle, slowloris), an active probe round over the wire, and a graceful
//! drain — asserting at each step that the wire accounting identity
//! `verdict_total == served && shed_total == shed` holds.

use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::quality::QualityGate;
use lumen_core::stream::StreamingDetector;
use lumen_core::Config;
use lumen_daemon::wire::{self, DisconnectCause, Frame, RejectCode};
use lumen_daemon::{Daemon, DaemonClient, DaemonConfig};
use lumen_probe::inject::ProbeInjector;
use lumen_probe::{ChallengeSchedule, ProbeConfig, ProbePolicy};
use lumen_serve::{CheckpointStore, MemStorage, ServeConfig, ShedReason, StoreConfig, Supervisor};
use std::sync::OnceLock;

fn detector() -> Detector {
    static DET: OnceLock<Detector> = OnceLock::new();
    DET.get_or_init(|| {
        let chats = ScenarioBuilder::default();
        let training: Vec<TracePair> = (0..10)
            .map(|i| chats.legitimate(0, 82_000 + i).expect("training scenario"))
            .collect();
        Detector::train_from_traces(&training, Config::default()).expect("training")
    })
    .clone()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_sessions: 4,
        queue_clips: 4,
        budget_clips: 64,
        budget_period_ticks: 30,
        deadline_ticks: 1_000,
        ..ServeConfig::default()
    }
}

/// A fresh daemon over a clean in-memory store. `gated` arms the quality
/// gate (the probe trigger needs abstaining clips).
fn daemon_with(config: DaemonConfig, gated: bool) -> Daemon<MemStorage> {
    let det = detector();
    let sup = Supervisor::new(serve_config())
        .expect("supervisor")
        .with_flight(lumen_obs::FlightConfig::default());
    let store = CheckpointStore::new(MemStorage::new(), StoreConfig::default()).expect("store");
    let factory = Box::new(move |_| {
        StreamingDetector::new(det.clone(), 15.0, 3).map(|s| {
            if gated {
                s.with_quality_gate(QualityGate::default())
            } else {
                s
            }
        })
    });
    Daemon::new(sup, factory, config, Some(store)).expect("daemon")
}

/// Runs `turns` event-loop turns, polling every client after each turn;
/// returns the frames each client received, in order.
fn pump(
    daemon: &mut Daemon<MemStorage>,
    clients: &mut [DaemonClient],
    turns: usize,
) -> Vec<Vec<Frame>> {
    let mut inboxes = vec![Vec::new(); clients.len()];
    for _ in 0..turns {
        daemon.turn_once().expect("turn");
        for (inbox, client) in inboxes.iter_mut().zip(clients.iter_mut()) {
            inbox.extend(client.poll().expect("poll"));
        }
    }
    inboxes
}

/// Connects and completes a Hello → Welcome handshake.
fn admit(daemon: &mut Daemon<MemStorage>, turns: usize) -> DaemonClient {
    let mut client = DaemonClient::connect(daemon.port()).expect("connect");
    client.send(&Frame::Hello).expect("hello");
    let frames = pump(daemon, std::slice::from_mut(&mut client), turns);
    let session = frames[0]
        .iter()
        .find_map(|f| match f {
            Frame::Welcome { session } => Some(*session),
            _ => None,
        })
        .expect("a Welcome");
    client.set_session(Some(session));
    client
}

fn assert_accounting(daemon: &Daemon<MemStorage>) {
    let wire = daemon.wire_stats();
    let serve = daemon.serve_stats();
    assert_eq!(
        wire.verdict_total(),
        serve.served_clips,
        "every served clip crossed the wire or was parked/orphaned-counted"
    );
    assert_eq!(
        wire.shed_total(),
        serve.shed_clips,
        "every shed clip crossed the wire or was parked/orphaned-counted"
    );
    assert_eq!(
        serve.served_clips + serve.shed_clips,
        serve.offered_clips,
        "served + shed == offered"
    );
}

#[test]
fn admission_samples_and_verdicts_flow_end_to_end() {
    let mut daemon = daemon_with(DaemonConfig::default(), false);
    let mut clients = vec![admit(&mut daemon, 5), admit(&mut daemon, 5)];
    let s0 = clients[0].session().expect("bound");
    let s1 = clients[1].session().expect("bound");
    assert_ne!(s0, s1, "sessions are distinct");

    // One clip per client, paced one sample per turn (the daemon's
    // real-time cadence), from per-client legitimate scenarios.
    let chats = ScenarioBuilder::default();
    let pairs: Vec<TracePair> = (0..2)
        .map(|i| chats.legitimate(0, 83_000 + i).expect("scenario"))
        .collect();
    let steps = pairs[0].tx.samples().len();
    let mut inboxes = vec![Vec::new(); clients.len()];
    for step in 0..steps {
        for (client, pair) in clients.iter_mut().zip(&pairs) {
            let session = client.session().expect("bound");
            client
                .send(&Frame::Sample {
                    session,
                    tx: pair.tx.samples()[step],
                    rx: pair.rx.samples()[step],
                })
                .expect("sample");
        }
        for (inbox, got) in inboxes.iter_mut().zip(pump(&mut daemon, &mut clients, 1)) {
            inbox.extend(got);
        }
    }
    // Let queued clips clear the detection budget.
    for (inbox, got) in inboxes.iter_mut().zip(pump(&mut daemon, &mut clients, 80)) {
        inbox.extend(got);
    }

    for (i, client) in clients.iter().enumerate() {
        let session = client.session().expect("bound");
        let verdicts: Vec<_> = inboxes[i]
            .iter()
            .filter_map(|f| match f {
                Frame::Verdict {
                    session: s,
                    verdict,
                } if *s == session => Some(verdict),
                _ => None,
            })
            .collect();
        assert!(
            !verdicts.is_empty(),
            "client {i} saw a verdict, got {:?}",
            inboxes[i]
        );
        assert_eq!(verdicts[0].clip_index, 0, "first verdict is clip 0");
    }

    // Ping and metrics round-trip on the same connections.
    clients[0]
        .send(&Frame::Ping { nonce: 0xBEEF })
        .expect("ping");
    clients[0]
        .send(&Frame::MetricsRequest)
        .expect("metrics req");
    let inboxes = pump(&mut daemon, &mut clients, 3);
    assert!(
        inboxes[0]
            .iter()
            .any(|f| matches!(f, Frame::Pong { nonce: 0xBEEF })),
        "pong echoes the nonce"
    );
    let metrics = inboxes[0]
        .iter()
        .find_map(|f| match f {
            Frame::Metrics { json } => Some(json.clone()),
            _ => None,
        })
        .expect("a metrics frame");
    let metrics = String::from_utf8(metrics).expect("metrics endpoint emits UTF-8");
    let reply: serde::Value = serde_json::from_str(&metrics).expect("metrics endpoint emits JSON");
    let serde::Value::Object(fields) = &reply else {
        panic!("metrics reply is not an object");
    };
    let snap_value = fields
        .iter()
        .find_map(|(k, v)| (k == "metrics").then_some(v))
        .expect("reply carries a metrics field");
    let parsed = <lumen_obs::Snapshot as serde::Deserialize>::deserialize(snap_value)
        .expect("metrics field is a registry snapshot");
    assert!(
        parsed.counters.iter().any(|c| c.name == "serve.served"),
        "snapshot carries serve counters"
    );
    let shards_value = fields
        .iter()
        .find_map(|(k, v)| (k == "shards").then_some(v))
        .expect("reply carries a shards field");
    let serde::Value::Array(rows) = shards_value else {
        panic!("shards field is not an array");
    };
    assert_eq!(rows.len(), 1, "a single daemon reports exactly one shard");
    let shard = <lumen_serve::ShardBreakdown as serde::Deserialize>::deserialize(&rows[0])
        .expect("shard rows parse as breakdowns");
    assert_eq!(shard.shard, 0);
    assert!(shard.served > 0, "shard breakdown carries serve counts");

    assert!(daemon.serve_stats().served_clips >= 2, "both clips served");
    assert_accounting(&daemon);
}

#[test]
fn malformed_bytes_get_a_typed_goodbye_not_a_panic() {
    let mut daemon = daemon_with(DaemonConfig::default(), false);
    let mut client = DaemonClient::connect(daemon.port()).expect("connect");
    client
        .send_raw(b"GETX /index.html HTTP/1.1\r\n\r\n")
        .expect("garbage");
    pump(&mut daemon, std::slice::from_mut(&mut client), 5);
    assert_eq!(client.goodbye(), Some(DisconnectCause::Malformed));
    assert!(client.is_closed());
    assert_eq!(daemon.wire_stats().malformed_disconnects, 1);

    // The daemon survives and still admits honest clients.
    let honest = admit(&mut daemon, 5);
    assert!(honest.session().is_some());
}

#[test]
fn oversize_header_disconnects_before_the_body_arrives() {
    let config = DaemonConfig {
        max_frame_len: 256,
        ..DaemonConfig::default()
    };
    let mut daemon = daemon_with(config, false);
    let mut client = DaemonClient::connect(daemon.port()).expect("connect");
    // A well-formed header promising a 16 MiB payload — and not a single
    // body byte behind it. The cap must fire from the header alone.
    let mut header = Vec::new();
    header.extend_from_slice(&wire::MAGIC);
    header.extend_from_slice(&wire::WIRE_VERSION.to_le_bytes());
    header.push(0x01);
    header.push(0);
    header.extend_from_slice(&(16u32 << 20).to_le_bytes());
    client.send_raw(&header).expect("oversize header");
    pump(&mut daemon, std::slice::from_mut(&mut client), 5);
    assert_eq!(client.goodbye(), Some(DisconnectCause::Oversize));
    assert_eq!(daemon.wire_stats().malformed_disconnects, 1);
}

#[test]
fn flooding_is_rate_limited_then_disconnected_for_abuse() {
    let config = DaemonConfig {
        bucket_capacity: 4,
        bucket_refill: 0.0,
        abuse_disconnect_after: 4,
        ..DaemonConfig::default()
    };
    let mut daemon = daemon_with(config, false);
    let mut client = DaemonClient::connect(daemon.port()).expect("connect");
    for nonce in 0..20u64 {
        client.send(&Frame::Ping { nonce }).expect("ping");
    }
    let inboxes = pump(&mut daemon, std::slice::from_mut(&mut client), 5);
    let pongs = inboxes[0]
        .iter()
        .filter(|f| matches!(f, Frame::Pong { .. }))
        .count();
    let rejects = inboxes[0]
        .iter()
        .filter(|f| {
            matches!(
                f,
                Frame::Reject {
                    code: RejectCode::RateLimited
                }
            )
        })
        .count();
    assert_eq!(pongs, 4, "exactly the burst capacity is served");
    assert!(rejects >= 1, "over-budget frames are refused, typed");
    assert_eq!(client.goodbye(), Some(DisconnectCause::RateLimitAbuse));
    assert_eq!(daemon.wire_stats().abuse_disconnects, 1);
    assert!(daemon.wire_stats().rate_limited >= 4);
}

#[test]
fn idle_and_slowloris_deadlines_fire_typed() {
    let config = DaemonConfig {
        idle_turns: 6,
        read_turns: 3,
        ..DaemonConfig::default()
    };
    let mut daemon = daemon_with(config, false);
    // Peer A connects and says nothing at all.
    let mut idle = DaemonClient::connect(daemon.port()).expect("connect");
    // Peer B trickles half a header and then stalls — a slowloris.
    let mut slow = DaemonClient::connect(daemon.port()).expect("connect");
    slow.send_raw(&wire::MAGIC[..3]).expect("torn prefix");
    let mut clients = [idle, slow];
    pump(&mut daemon, &mut clients, 12);
    [idle, slow] = clients;
    assert_eq!(slow.goodbye(), Some(DisconnectCause::SlowRead));
    assert_eq!(idle.goodbye(), Some(DisconnectCause::IdleTimeout));
    assert_eq!(daemon.wire_stats().idle_disconnects, 1);
    assert_eq!(daemon.wire_stats().slow_read_disconnects, 1);
}

#[test]
fn probe_challenge_and_response_round_trip_the_wire() {
    let mut daemon =
        daemon_with(DaemonConfig::default(), true).with_probe(ProbePolicy::default(), 0xCAFE);
    let mut client = admit(&mut daemon, 5);
    let session = client.session().expect("bound");

    // A flatline clip: the quality gate abstains, which is the probe
    // director's trigger.
    let mut inbox = Vec::new();
    for _ in 0..150 {
        client
            .send(&Frame::Sample {
                session,
                tx: 100.0,
                rx: 42.0,
            })
            .expect("sample");
        inbox.extend(pump(&mut daemon, std::slice::from_mut(&mut client), 1).remove(0));
    }
    inbox.extend(pump(&mut daemon, std::slice::from_mut(&mut client), 80).remove(0));
    let schedule_json = inbox
        .iter()
        .find_map(|f| match f {
            Frame::ProbeChallenge {
                session: s,
                schedule_json,
            } if *s == session => Some(schedule_json.clone()),
            _ => None,
        })
        .expect("an abstaining clip raises a wire probe challenge");
    let schedule_json = String::from_utf8(schedule_json).expect("schedule is UTF-8");
    let schedule: ChallengeSchedule =
        serde_json::from_str(&schedule_json).expect("schedule JSON decodes");

    // The client renders the challenge; a live face reflects it.
    let pair = ProbeInjector::new(schedule)
        .armed_scenario(
            ScenarioBuilder::default()
                .with_session(
                    ProbeConfig::default()
                        .session_config(1.5, &lumen_chat::session::SessionConfig::default()),
                )
                .with_static_caller(120.0),
        )
        .legitimate(0, 77_000)
        .expect("armed scenario");
    client
        .send(&Frame::ProbeResponse {
            session,
            response: lumen_daemon::WireTrace {
                sample_rate: pair.tx.sample_rate(),
                forward_delay: pair.forward_delay,
                backward_delay: pair.backward_delay,
                tx: pair.tx.samples().to_vec(),
                rx: pair.rx.samples().to_vec(),
            },
        })
        .expect("probe response");
    let inboxes = pump(&mut daemon, std::slice::from_mut(&mut client), 5);
    let verdict_json = inboxes[0]
        .iter()
        .find_map(|f| match f {
            Frame::ProbeOutcome {
                session: s,
                verdict_json,
            } if *s == session => Some(verdict_json.clone()),
            _ => None,
        })
        .expect("a probe outcome comes back");
    let verdict_json = String::from_utf8(verdict_json).expect("verdict is UTF-8");
    let verdict: lumen_probe::ProbeVerdict =
        serde_json::from_str(&verdict_json).expect("verdict JSON decodes");
    assert_eq!(
        verdict.decision,
        lumen_probe::ProbeDecision::Pass,
        "a faithful reflection passes: {verdict:?}"
    );
}

#[test]
fn drain_refuses_new_work_flushes_verdicts_and_checkpoints() {
    let mut daemon = daemon_with(DaemonConfig::default(), false);
    let mut client = admit(&mut daemon, 5);
    let session = client.session().expect("bound");
    let pair = ScenarioBuilder::default()
        .legitimate(0, 84_000)
        .expect("scenario");
    let mut inbox = Vec::new();
    for step in 0..pair.tx.samples().len() {
        client
            .send(&Frame::Sample {
                session,
                tx: pair.tx.samples()[step],
                rx: pair.rx.samples()[step],
            })
            .expect("sample");
        inbox.extend(pump(&mut daemon, std::slice::from_mut(&mut client), 1).remove(0));
    }

    daemon.begin_drain();
    assert!(daemon.is_draining());

    // An established connection asking for a new session is refused with
    // the draining shed reason; a brand-new connection gets a goodbye.
    client.send(&Frame::Hello).expect("hello during drain");
    let mut newcomer = DaemonClient::connect(daemon.port()).expect("connect during drain");
    let mut clients = [client, newcomer];
    let mut inboxes = pump(&mut daemon, &mut clients, 5);
    [client, newcomer] = clients;
    assert!(
        inboxes[0].iter().any(|f| matches!(
            f,
            Frame::Refused {
                reason: ShedReason::Draining
            }
        )),
        "in-band admission is refused while draining: {:?}",
        inboxes[0]
    );
    assert_eq!(newcomer.goodbye(), Some(DisconnectCause::Draining));

    // The drain completes: pending clips flush, a final checkpoint
    // commits, established clients get a typed farewell.
    let report = daemon.drain(10_000).expect("drain completes");
    assert!(daemon.is_drained());
    assert!(
        report.final_generation.is_some(),
        "drain committed a final checkpoint"
    );
    inbox.extend(pump(&mut daemon, std::slice::from_mut(&mut client), 2).remove(0));
    inbox.extend(inboxes.swap_remove(0));
    assert!(
        inbox
            .iter()
            .any(|f| matches!(f, Frame::Verdict { session: s, .. } if *s == session)),
        "the ingested clip's verdict flushed before shutdown"
    );
    assert_eq!(client.goodbye(), Some(DisconnectCause::Draining));
    assert!(daemon.wire_stats().refused_admissions >= 1);
    assert_accounting(&daemon);
}
