//! `lumen-bench` — the perf-telemetry harness behind the CI regression
//! gate.
//!
//! `run` executes a fixed suite of micro cases (whole-clip detection with
//! and without instrumentation, the pipeline stages, the DSP primitives,
//! LOF scoring and the k-NN backends, landmarks, obs primitives, one
//! active-probe round, a checkpoint commit and load, the CRC-32), the
//! Sec. IX per-stage span table, and macro experiments (overload, chaos,
//! daemon, dsoak and fleet, each run once), and writes a
//! `BENCH_<label>.json` report. `check` compares two reports metric by
//! metric and exits non-zero on a regression, which is the whole CI gate.
//!
//! Three metric kinds with different gating rules keep the gate honest
//! across machines:
//!
//! * `timing` — wall-clock milliseconds; machine-dependent, gated with a
//!   generous *relative* tolerance and only against regressions (getting
//!   faster never fails).
//! * `exact` — deterministic seeded results (tick latencies, shed
//!   fractions, integrity booleans); gated with a tiny *absolute*
//!   tolerance in both directions.
//! * `info` — context only (e.g. instrumentation overhead percentage,
//!   which is dominated by noise at these scales); never gated.
//!
//! Any metric may additionally carry a `budget`: an absolute ceiling the
//! current value must stay under regardless of the baseline — the paper's
//! 0.2 s per-clip envelope is enforced this way.

use lumen_attack::baseline::{
    BaselineDetector, CorrelationThresholdDetector, NaiveTimestampDetector,
};
use lumen_bench::{
    attack_pair, checkpoint_snapshot, knn_index, memory_store, probe_round, standard_features,
    standard_frame, standard_landmarks, standard_pair, trained_detector, training_pairs,
};
use lumen_core::detector::Detector;
use lumen_core::preprocess::{preprocess_rx, preprocess_tx};
use lumen_core::voting::combine_votes;
use lumen_core::Config;
use lumen_dsp::filters::{biquad, fir, moving, savgol, threshold};
use lumen_dsp::peaks::{find_peaks, PeakConfig};
use lumen_dsp::{dtw, fft, normalize, stats, xcorr};
use lumen_experiments::{
    chaos, daemon as daemon_exp, dsoak, fleet as fleet_exp, overhead, overload,
};
use lumen_face::detect::detect_landmarks;
use lumen_face::geometry::FaceGeometry;
use lumen_face::render::FaceRenderer;
use lumen_face::roi::roi_luminance;
use lumen_obs::{InMemorySink, Recorder};
use lumen_probe::ChallengeSchedule;
use lumen_serve::store::crc32;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::fmt::Display;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Report format version; bump on any incompatible schema change.
const SCHEMA_VERSION: u64 = 1;

/// The paper's Sec. IX envelope: feature extraction and classification of
/// one 15-second clip within 0.2 seconds.
const CLIP_BUDGET_MS: f64 = 200.0;

/// One measured quantity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchMetric {
    /// Dotted metric name, stable across runs.
    name: String,
    /// Measured value.
    value: f64,
    /// Unit label (`ms`, `ticks`, `fraction`, `pct`, `bool`).
    unit: String,
    /// Gating rule: `timing`, `exact` or `info`.
    kind: String,
    /// Absolute ceiling the value must stay under, if any.
    budget: Option<f64>,
}

/// A full `BENCH_<label>.json` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchReport {
    /// Report format version.
    schema_version: u64,
    /// Report label (machine or CI job name).
    label: String,
    /// All measured metrics.
    metrics: Vec<BenchMetric>,
}

impl BenchReport {
    fn get(&self, name: &str) -> Option<&BenchMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Shortest wall-clock span one timed batch must fill, so that a
/// nanosecond call is timed over many calls rather than one clock read.
const WINDOW: Duration = Duration::from_millis(1);

/// Timed batches per measurement; the median batch is reported, so one
/// preempted batch does not move the figure.
const ROUNDS: usize = 5;

/// Detections in each of the [`ROUNDS`] timed rounds behind the `stage.*`
/// rows: enough that a stage's p99 is the 10th-slowest span of the round,
/// not the slowest.
const STAGE_SPANS: usize = 1_000;

/// The median of `ROUNDS` measurements.
fn median(mut rounds: Vec<f64>) -> f64 {
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

/// Wall-clock milliseconds per call of `f`: after one warm-up call the
/// batch size doubles until a batch fills [`WINDOW`], then the median of
/// [`ROUNDS`] batches of that size is returned.
fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut batch = |calls: u32| {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(f());
        }
        start.elapsed()
    };
    batch(1);
    let mut calls = 1;
    while batch(calls) < WINDOW {
        calls *= 2;
    }
    median(
        (0..ROUNDS)
            .map(|_| batch(calls).as_secs_f64() * 1000.0 / f64::from(calls))
            .collect(),
    )
}

/// One micro case: the `micro.<name>_ms` row it fills, an absolute
/// ceiling if any, and the measurement.
struct Case<'a> {
    name: &'static str,
    budget: Option<f64>,
    measure: Box<dyn FnMut() -> Result<f64, String> + 'a>,
}

/// A case that checks `call`'s result once, then times it with
/// [`time_ms`]: a case whose call fails is reported, never timed.
fn case<'a, T, E: Display>(
    name: &'static str,
    budget: Option<f64>,
    mut call: impl FnMut() -> Result<T, E> + 'a,
) -> Case<'a> {
    Case {
        name,
        budget,
        measure: Box::new(move || {
            call().map_err(|e| format!("micro case {name}: {e}"))?;
            Ok(time_ms(&mut call))
        }),
    }
}

/// Lifts a call that cannot fail into a [`case`] call.
fn infallible<T>(mut call: impl FnMut() -> T) -> impl FnMut() -> Result<T, Infallible> {
    move || Ok(call())
}

/// Times every micro case, in table order, into `metrics`.
fn micro(metrics: &mut Vec<BenchMetric>) -> Result<(), String> {
    let config = Config::default();
    let pair = standard_pair();
    let signal = &pair.rx;
    let (tx75, rx75) = (&pair.tx.samples()[..75], &signal.samples()[..75]);
    let attack = attack_pair();
    let training = training_pairs();
    let detector = trained_detector();
    let features = standard_features();
    let buffer = Arc::new(InMemorySink::new());
    let buffered = trained_detector().with_recorder(Recorder::new(buffer.clone()));
    let naive = NaiveTimestampDetector::default();
    let fixed = CorrelationThresholdDetector::default();
    let knn = knn_index();
    let query = [0.9, 0.9, 0.8, 0.1];
    let frame = standard_frame();
    let landmarks = standard_landmarks();
    let renderer = FaceRenderer::default();
    let geom = FaceGeometry::centered(160, 120);
    let (recorder, _events) = Recorder::in_memory();
    let disabled = Recorder::null();
    let probe = probe_round();
    let checkpoint = checkpoint_snapshot(600);
    let mut commit_store = memory_store(&[]);
    let mut load_store = memory_store(std::slice::from_ref(&checkpoint));
    let crc_input: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 31 % 251) as u8).collect();
    let clip = Some(CLIP_BUDGET_MS);

    let cases = vec![
        // Whole-clip detection: the Sec. IX "feature extraction and
        // classification together" figure, bare and behind an in-memory
        // sink.
        case("detect_uninstrumented", clip, || {
            detector.detect(black_box(&pair))
        }),
        case("detect_in_memory_sink", clip, || {
            let verdict = buffered.detect(black_box(&pair));
            buffer.clear();
            verdict
        }),
        case("detect_attack_clip", clip, || {
            detector.detect(black_box(&attack))
        }),
        // Pipeline stages of one 15-second clip.
        case("preprocess_tx_15s_clip", None, || {
            preprocess_tx(black_box(&pair.tx), &config)
        }),
        case("preprocess_rx_15s_clip", None, || {
            preprocess_rx(black_box(&pair.rx), &config)
        }),
        case("features_from_15s_clip", None, || {
            Detector::features_with(black_box(&pair), &config)
        }),
        // DSP primitives on a 150-sample trace, including the FIR vs
        // zero-phase IIR low-pass and full vs banded DTW ablations.
        case("fir_lowpass_1hz", None, || {
            fir::lowpass(black_box(signal), 1.0)
        }),
        case("iir_filtfilt_lowpass_1hz", None, || {
            biquad::filtfilt_lowpass(black_box(signal), 1.0)
        }),
        case("moving_variance_w10", None, || {
            moving::moving_variance(black_box(signal), 10)
        }),
        case("moving_rms_w30", None, || {
            moving::moving_rms(black_box(signal), 30)
        }),
        case("threshold_filter", None, || {
            threshold::threshold_filter(black_box(signal), 2.0)
        }),
        case("savgol_w31_p3", None, || {
            savgol::savgol_smooth(black_box(signal), 31, 3)
        }),
        case(
            "find_peaks_prominence",
            None,
            infallible(|| {
                find_peaks(
                    black_box(signal.samples()),
                    &PeakConfig::new().min_prominence(0.5),
                )
            }),
        ),
        case("pearson_150", None, || {
            stats::pearson(black_box(pair.tx.samples()), black_box(signal.samples()))
        }),
        case("dtw_75x75", None, || {
            dtw::dtw_distance(black_box(tx75), black_box(rx75))
        }),
        case("dtw_banded_75x75_w10", None, || {
            dtw::dtw_distance_banded(black_box(tx75), black_box(rx75), Some(10))
        }),
        case("fft_spectrum_150", None, || {
            fft::magnitude_spectrum(black_box(signal))
        }),
        case("normalize_min_max", None, || {
            normalize::normalize_min_max(black_box(signal))
        }),
        case("delay_estimation_xcorr", None, || {
            xcorr::estimate_delay(black_box(&pair.tx), black_box(signal), 1.0)
        }),
        // Classification: LOF scoring and training, voting, the naive
        // baselines, and a k-NN query at the detector's 20-vector scale.
        case("lof_score_single_vector", None, || {
            detector.score(black_box(&features))
        }),
        case("train_detector_20_clips", None, || {
            Detector::train_from_traces(black_box(&training), config)
        }),
        case("majority_vote_d5", None, || {
            combine_votes(black_box(&[true, false, true, true, false]), 0.7)
        }),
        case("baseline_naive_timestamp", None, || {
            naive.accepts(black_box(&pair.tx), black_box(&pair.rx))
        }),
        case("baseline_fixed_correlation", None, || {
            fixed.accepts(black_box(&pair.tx), black_box(&pair.rx))
        }),
        case("knn_brute_force_n20", None, || {
            knn.nearest(black_box(&query), 5, None)
        }),
        // Frame side: Sec. IX cites landmark detection at 300 fps on a
        // phone.
        case("render_face_frame_160x120", None, || {
            renderer.render(black_box(&geom), 130.0)
        }),
        case("detect_landmarks_160x120", None, || {
            detect_landmarks(black_box(&frame)).ok_or("no face found")
        }),
        case("roi_luminance_extraction", None, || {
            roi_luminance(black_box(&frame), black_box(&landmarks))
        }),
        case(
            "frame_mean_luminance",
            None,
            infallible(|| black_box(&frame).mean_luminance()),
        ),
        // Obs emission primitives, for sizing a custom sink.
        case(
            "counter_add_in_memory",
            None,
            infallible(|| recorder.add("bench.counter", black_box(1))),
        ),
        case(
            "span_in_memory",
            None,
            // lint:allow(span-balance): guard creation + immediate drop is
            // exactly the cost this case measures
            infallible(|| recorder.span(black_box("bench.span"))),
        ),
        case(
            "counter_add_disabled",
            None,
            infallible(|| disabled.add("bench.counter", black_box(1))),
        ),
        // One active-probe round: challenge synthesis plus full
        // matched-filter verification of an armed legitimate response.
        case("probe_schedule_generate", None, || {
            ChallengeSchedule::generate(black_box(&probe.config), black_box(11))
        }),
        case(
            "probe_waveform_synthesis",
            None,
            infallible(|| black_box(&probe.schedule).waveform()),
        ),
        case("probe_verify_round", clip, || {
            probe
                .verifier
                .verify(black_box(&probe.schedule), black_box(&probe.response))
        }),
        // The checkpoint path: a durable daemon's 600-session mid-clip
        // snapshot committed to and loaded from the in-memory store, and
        // the CRC-32 that frames every record and wire frame.
        case("store_commit_600_sessions", None, || {
            commit_store.commit(checkpoint.tick, black_box(&checkpoint))
        }),
        case("store_load_600_sessions", None, || {
            match load_store.load_latest() {
                Ok(report) => report.loaded.ok_or("no generation loaded".to_string()),
                Err(e) => Err(e.to_string()),
            }
        }),
        case(
            "crc32_64kib",
            None,
            infallible(|| crc32(black_box(&crc_input))),
        ),
    ];
    eprintln!("[lumen-bench] micro: {} cases", cases.len());
    for mut c in cases {
        let ms = (c.measure)()?;
        metrics.push(metric(
            &format!("micro.{}_ms", c.name),
            ms,
            "ms",
            "timing",
            c.budget,
        ));
    }
    Ok(())
}

fn metric(name: &str, value: f64, unit: &str, kind: &str, budget: Option<f64>) -> BenchMetric {
    BenchMetric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        kind: kind.to_string(),
        budget,
    }
}

/// An `exact` row: a deterministic seeded outcome, gated in both
/// directions.
fn exact(name: &str, value: f64, unit: &str) -> BenchMetric {
    metric(name, value, unit, "exact", None)
}

/// An `exact` boolean row: 1 when the check held.
fn flag(name: &str, ok: bool) -> BenchMetric {
    exact(name, f64::from(u8::from(ok)), "bool")
}

/// Runs the full suite and assembles the report.
fn run_suite(label: &str) -> Result<BenchReport, String> {
    let mut metrics = Vec::new();

    // Micro: every case times one call on fixed inputs.
    micro(&mut metrics)?;

    // Macro: the Sec. IX per-stage breakdown — the overhead experiment's
    // stage spans, over enough detections of the standard legitimate and
    // attack clips that a stage's p99 is not its slowest span. Each row is
    // the median of ROUNDS timed rounds, the micro rows' rule, so a host
    // stall shorter than one round moves at most two of them.
    eprintln!("[lumen-bench] macro: per-stage spans");
    let detector = trained_detector();
    let clips = [standard_pair(), attack_pair()];
    let rounds = (0..ROUNDS)
        .map(|_| overhead::time_stages(&detector, &clips, STAGE_SPANS))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("stage spans: {e}"))?;
    for name in overhead::STAGES {
        let (mut mean_ms, mut p99_ms) = (Vec::new(), Vec::new());
        for staged in &rounds {
            let row = staged
                .stages
                .iter()
                .find(|s| s.name == *name)
                .ok_or(format!("stage spans: no `{name}` span"))?;
            mean_ms.push(row.mean_ms);
            p99_ms.push(row.p99_ms);
        }
        let budget = (*name == lumen_obs::stage::DETECT).then_some(CLIP_BUDGET_MS);
        metrics.push(metric(
            &format!("stage.{name}.mean_ms"),
            median(mean_ms),
            "ms",
            "timing",
            budget,
        ));
        metrics.push(metric(
            &format!("stage.{name}.p99_ms"),
            median(p99_ms),
            "ms",
            "timing",
            budget,
        ));
    }

    // Macro: overload sweep — deterministic tick-based outcomes at the
    // heaviest swept load; integrity and accounting hold at every point.
    eprintln!("[lumen-bench] macro: overload experiment");
    let ol = overload::run(overload::OverloadOpts::default())
        .map_err(|e| format!("overload experiment: {e}"))?;
    if let Some(worst) = ol.rows.last() {
        metrics.push(exact(
            "overload.shed_fraction",
            worst.shed_fraction,
            "fraction",
        ));
        metrics.push(exact(
            "overload.p99_latency_ticks",
            worst.p99_latency_ticks,
            "ticks",
        ));
    }
    metrics.push(flag(
        "overload.integrity_ok",
        ol.rows.iter().all(|r| r.integrity_ok),
    ));
    metrics.push(flag(
        "overload.accounting_ok",
        ol.rows.iter().all(|r| r.accounting_ok),
    ));
    metrics.push(flag("overload.checkpoint_ok", ol.checkpoint_ok));

    // Macro: chaos recovery — kill/restore cycles under seeded storage
    // faults, snapshot rot and poisoned clips. Every outcome is a
    // deterministic seeded result, so the whole section gates exactly;
    // mis-restores additionally carry a zero budget (a re-served clip
    // whose verdict changed is a correctness bug regardless of baseline).
    eprintln!("[lumen-bench] macro: chaos experiment");
    let ch =
        chaos::run(chaos::ChaosOpts::default()).map_err(|e| format!("chaos experiment: {e}"))?;
    let cycles = ch.cycles.len().max(1) as f64;
    let mean_recovery = ch
        .cycles
        .iter()
        .map(|c| c.recovery_ticks as f64)
        .sum::<f64>()
        / cycles;
    let mean_reserve = ch
        .cycles
        .iter()
        .map(|c| c.reserve_steps as f64)
        .sum::<f64>()
        / cycles;
    let max_fallback = ch
        .cycles
        .iter()
        .map(|c| c.fallback_depth)
        .max()
        .unwrap_or(0);
    metrics.push(flag("chaos.integrity_ok", ch.integrity_ok));
    metrics.push(metric(
        "chaos.misrestores",
        ch.misrestores as f64,
        "count",
        "exact",
        Some(0.0),
    ));
    metrics.push(exact("chaos.cold_starts", ch.cold_starts as f64, "count"));
    metrics.push(exact(
        "chaos.quarantine_fraction",
        ch.quarantine_fraction,
        "fraction",
    ));
    metrics.push(exact(
        "chaos.max_fallback_depth",
        max_fallback as f64,
        "count",
    ));
    metrics.push(exact("chaos.mean_recovery_ticks", mean_recovery, "ticks"));
    metrics.push(exact("chaos.mean_reserve_steps", mean_reserve, "steps"));
    metrics.push(exact(
        "chaos.store_write_failures",
        ch.store.write_failures as f64,
        "count",
    ));
    metrics.push(exact(
        "chaos.store_quarantined",
        ch.store.quarantined as f64,
        "count",
    ));

    // Macro: daemon loopback — wall-clock round trips through the real
    // socket path (timing), plus the deterministic serving outcomes of
    // the loopback load run and the kill/restore soak (exact). The
    // byte-identity and accounting booleans gate exactly: a wire layer
    // that loses or reorders verdicts is a correctness bug, not a
    // regression to tolerate.
    eprintln!("[lumen-bench] macro: daemon loopback");
    let det = trained_detector();
    let sup = lumen_serve::Supervisor::new(lumen_serve::ServeConfig::default())
        .map_err(|e| format!("supervisor: {e}"))?;
    let mut daemon: lumen_daemon::Daemon<lumen_serve::MemStorage> = lumen_daemon::Daemon::new(
        sup,
        Box::new(move |_| lumen_core::stream::StreamingDetector::new(det.clone(), 15.0, 3)),
        lumen_daemon::DaemonConfig {
            bucket_capacity: 4096,
            bucket_refill: 4096.0,
            ..lumen_daemon::DaemonConfig::default()
        },
        None,
    )
    .map_err(|e| format!("daemon: {e}"))?;
    let mut rt_client =
        lumen_daemon::DaemonClient::connect(daemon.port()).map_err(|e| format!("connect: {e}"))?;
    let mut rtts_ms = Vec::with_capacity(256);
    for nonce in 0..256 {
        let start = Instant::now();
        rt_client
            .send(&lumen_daemon::Frame::Ping { nonce })
            .map_err(|e| format!("ping: {e}"))?;
        loop {
            daemon.turn_once().map_err(|e| format!("turn: {e}"))?;
            let frames = rt_client.poll().map_err(|e| format!("poll: {e}"))?;
            if frames
                .iter()
                .any(|f| matches!(f, lumen_daemon::Frame::Pong { nonce: n } if *n == nonce))
            {
                break;
            }
        }
        rtts_ms.push(start.elapsed().as_secs_f64() * 1000.0);
    }
    rtts_ms.sort_by(f64::total_cmp);
    let pctl = |p: f64| rtts_ms[((rtts_ms.len() - 1) as f64 * p) as usize];
    metrics.push(metric(
        "daemon.roundtrip_p50_ms",
        pctl(0.50),
        "ms",
        "timing",
        None,
    ));
    metrics.push(metric(
        "daemon.roundtrip_p99_ms",
        pctl(0.99),
        "ms",
        "timing",
        Some(CLIP_BUDGET_MS),
    ));
    drop(rt_client);
    drop(daemon);

    let d = daemon_exp::run(daemon_exp::DaemonOpts::default())
        .map_err(|e| format!("daemon experiment: {e}"))?;
    let first_verdict = d
        .rows
        .iter()
        .filter_map(|r| r.first_verdict_turns)
        .max()
        .unwrap_or(0);
    metrics.push(exact(
        "daemon.first_verdict_turns",
        first_verdict as f64,
        "turns",
    ));
    metrics.push(exact("daemon.rate_limited", d.rate_limited as f64, "count"));
    metrics.push(flag("daemon.accounting_ok", d.accounting_ok));
    metrics.push(flag("daemon.integrity_ok", d.integrity_ok));

    eprintln!("[lumen-bench] macro: daemon kill/restore soak");
    let ds =
        dsoak::run(dsoak::DsoakOpts::default()).map_err(|e| format!("dsoak experiment: {e}"))?;
    metrics.push(exact("dsoak.kills", ds.kills.len() as f64, "count"));
    metrics.push(flag("dsoak.byte_identity_ok", ds.byte_identity_ok));
    metrics.push(flag("dsoak.integrity_ok", ds.integrity_ok));

    // Macro: fleet sweep — the sharded multi-supervisor runtime driven
    // over waves of short sessions. The serial sweep alone is timed, per
    // swept session on the one core it runs on; everything else is a
    // deterministic tick-domain outcome and gates exactly: cross-shard
    // accounting, single-supervisor parity, mid-clip snapshot replay and
    // the per-tick work-stealing conservation ledger.
    eprintln!("[lumen-bench] macro: fleet experiment");
    let opts = fleet_exp::FleetOpts::default();
    let fleet_err = |e| format!("fleet experiment: {e}");
    let harness = fleet_exp::Harness::prepare(&opts).map_err(fleet_err)?;
    let started = Instant::now();
    let sweep = fleet_exp::sweep(&opts, &harness).map_err(fleet_err)?;
    let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
    let swept: u64 = sweep.rows.iter().map(|r| r.offered).sum();
    metrics.push(metric(
        "fleet.us_per_session",
        elapsed_us / swept.max(1) as f64,
        "us",
        "timing",
        None,
    ));
    let fl = fleet_exp::audit(&opts, &harness, sweep).map_err(fleet_err)?;
    if let Some(worst) = fl.rows.last() {
        metrics.push(exact(
            "fleet.p99_latency_ticks",
            worst.p99_latency_ticks,
            "ticks",
        ));
        metrics.push(exact(
            "fleet.shed_fraction",
            worst.shed_fraction,
            "fraction",
        ));
    }
    metrics.push(exact(
        "fleet.steals",
        fl.rows.iter().map(|r| r.steals).sum::<u64>() as f64,
        "count",
    ));
    metrics.push(flag(
        "fleet.accounting_ok",
        fl.rows.iter().all(|r| r.accounting_ok),
    ));
    metrics.push(flag("fleet.parity_ok", fl.parity_ok));
    metrics.push(flag("fleet.snapshot_ok", fl.snapshot_ok));
    metrics.push(flag("fleet.conservation_ok", fl.conservation_ok));

    // Meta: the lint gate's own cost — the full two-tier workspace
    // analysis (lex, parse, symbol table, call graph, every rule) timed
    // like any pipeline stage, so a rule that goes quadratic in workspace
    // size surfaces in the perf gate rather than as a slowly rotting CI
    // wait. The finding count rides along as an exact zero-budget metric:
    // the committed tree must lint clean.
    eprintln!("[lumen-bench] meta: lumen-lint workspace analysis");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = std::fs::read_to_string(root.join("lint.toml"))
        .map_err(|e| format!("read lint.toml: {e}"))?;
    let lint_config =
        lumen_lint::Config::parse(&baseline).map_err(|e| format!("parse lint.toml: {e}"))?;
    let first = lumen_lint::lint_workspace(&root, &lint_config)
        .map_err(|e| format!("lint workspace: {e}"))?;
    let lint_ms = time_ms(|| lumen_lint::lint_workspace(&root, &lint_config));
    metrics.push(metric("lint.workspace_ms", lint_ms, "ms", "timing", None));
    metrics.push(metric(
        "lint.findings",
        first.findings.len() as f64,
        "count",
        "exact",
        Some(0.0),
    ));
    metrics.push(metric(
        "lint.files_scanned",
        first.files_scanned as f64,
        "count",
        "info",
        None,
    ));

    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        label: label.to_string(),
        metrics,
    })
}

/// One gate violation (or warning) found by `check`.
struct Finding {
    hard: bool,
    message: String,
}

/// Compares `current` against `baseline` under the gate rules.
fn check_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    timing_tolerance_pct: f64,
    exact_tolerance: f64,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if baseline.schema_version != current.schema_version {
        findings.push(Finding {
            hard: true,
            message: format!(
                "schema version mismatch: baseline v{} vs current v{}",
                baseline.schema_version, current.schema_version
            ),
        });
        return findings;
    }
    for base in &baseline.metrics {
        let Some(cur) = current.get(&base.name) else {
            findings.push(Finding {
                hard: true,
                message: format!("metric `{}` missing from current report", base.name),
            });
            continue;
        };
        match base.kind.as_str() {
            "timing" => {
                // Gate regressions only: a faster run is never a failure.
                let ceiling = base.value * (1.0 + timing_tolerance_pct / 100.0);
                if cur.value > ceiling {
                    findings.push(Finding {
                        hard: true,
                        message: format!(
                            "timing regression `{}`: {:.4} {} > {:.4} (baseline {:.4} +{}%)",
                            base.name,
                            cur.value,
                            cur.unit,
                            ceiling,
                            base.value,
                            timing_tolerance_pct
                        ),
                    });
                }
            }
            "exact" if (cur.value - base.value).abs() > exact_tolerance => {
                findings.push(Finding {
                    hard: true,
                    message: format!(
                        "exact drift `{}`: {:.6} vs baseline {:.6} (tolerance {})",
                        base.name, cur.value, base.value, exact_tolerance
                    ),
                });
            }
            _ => {}
        }
    }
    for cur in &current.metrics {
        if let Some(budget) = cur.budget {
            if cur.value > budget {
                findings.push(Finding {
                    hard: true,
                    message: format!(
                        "budget exceeded `{}`: {:.4} {} > budget {:.4}",
                        cur.name, cur.value, cur.unit, budget
                    ),
                });
            }
        }
        if baseline.get(&cur.name).is_none() {
            findings.push(Finding {
                hard: false,
                message: format!("metric `{}` absent from baseline (new metric?)", cur.name),
            });
        }
    }
    findings
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lumen-bench run [--label L] [--out PATH]\n  \
         lumen-bench check --baseline PATH --current PATH \
         [--timing-tolerance-pct N] [--exact-tolerance X] [--warn-only]"
    );
    ExitCode::from(2)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let label = arg_value(args, "--label").unwrap_or_else(|| "local".to_string());
    let out = arg_value(args, "--out").unwrap_or_else(|| format!("BENCH_{label}.json"));
    let report = match run_suite(&label) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lumen-bench: suite failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("lumen-bench: serialize failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("lumen-bench: writing {out} failed: {e}");
        return ExitCode::FAILURE;
    }
    for m in &report.metrics {
        println!("{:40} {:>14.6} {}", m.name, m.value, m.unit);
    }
    eprintln!("[lumen-bench] wrote {out}");
    ExitCode::SUCCESS
}

fn load_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_check(args: &[String]) -> ExitCode {
    let (Some(baseline_path), Some(current_path)) =
        (arg_value(args, "--baseline"), arg_value(args, "--current"))
    else {
        return usage();
    };
    let timing_tolerance_pct = arg_value(args, "--timing-tolerance-pct")
        .and_then(|v| v.parse().ok())
        .unwrap_or(300.0);
    let exact_tolerance = arg_value(args, "--exact-tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1e-9);
    let warn_only = args.iter().any(|a| a == "--warn-only");
    let (baseline, current) = match (load_report(&baseline_path), load_report(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lumen-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let findings = check_reports(&baseline, &current, timing_tolerance_pct, exact_tolerance);
    let mut hard = 0usize;
    for f in &findings {
        let tag = if f.hard { "FAIL" } else { "warn" };
        eprintln!("[lumen-bench] {tag}: {}", f.message);
        hard += usize::from(f.hard);
    }
    if hard > 0 && !warn_only {
        eprintln!("[lumen-bench] {hard} gate violation(s)");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[lumen-bench] gate ok ({} metric(s), {} warning(s){})",
        baseline.metrics.len(),
        findings.len() - hard,
        if warn_only && hard > 0 {
            ", violations demoted by --warn-only"
        } else {
            ""
        }
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(metrics: Vec<BenchMetric>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            label: "test".to_string(),
            metrics,
        }
    }

    #[test]
    fn timing_gate_fails_only_on_regression() {
        let base = report(vec![metric("t", 10.0, "ms", "timing", None)]);
        let fast = report(vec![metric("t", 1.0, "ms", "timing", None)]);
        let slow = report(vec![metric("t", 50.0, "ms", "timing", None)]);
        assert!(check_reports(&base, &fast, 300.0, 1e-9).is_empty());
        let findings = check_reports(&base, &slow, 300.0, 1e-9);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].hard);
    }

    #[test]
    fn a_sweep_five_times_slower_fails_and_a_faster_one_passes() {
        // `fleet.us_per_session` is lower-is-better, so the gate fails on
        // a slowdown, never on a speed-up.
        let row = |us| {
            report(vec![metric(
                "fleet.us_per_session",
                us,
                "us",
                "timing",
                None,
            )])
        };
        let findings = check_reports(&row(150.0), &row(750.0), 300.0, 1e-9);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].hard, "{}", findings[0].message);
        assert!(check_reports(&row(150.0), &row(30.0), 300.0, 1e-9).is_empty());
    }

    #[test]
    fn exact_gate_is_two_sided_and_budget_is_absolute() {
        let base = report(vec![metric("e", 0.5, "fraction", "exact", None)]);
        let drifted = report(vec![metric("e", 0.4, "fraction", "exact", None)]);
        assert_eq!(check_reports(&base, &drifted, 300.0, 1e-9).len(), 1);
        let blown = report(vec![metric("e", 0.5, "fraction", "exact", Some(0.3))]);
        let findings = check_reports(&base, &blown, 300.0, 1e-9);
        assert_eq!(findings.len(), 1, "budget applies even without drift");
    }

    #[test]
    fn missing_metric_is_hard_new_metric_is_soft() {
        let base = report(vec![metric("gone", 1.0, "ms", "timing", None)]);
        let cur = report(vec![metric("new", 1.0, "ms", "timing", None)]);
        let findings = check_reports(&base, &cur, 300.0, 1e-9);
        assert_eq!(findings.len(), 2);
        assert_eq!(findings.iter().filter(|f| f.hard).count(), 1);
    }

    #[test]
    fn info_metrics_are_never_gated() {
        let base = report(vec![metric("i", 1.0, "pct", "info", None)]);
        let cur = report(vec![metric("i", 1000.0, "pct", "info", None)]);
        assert!(check_reports(&base, &cur, 300.0, 1e-9).is_empty());
    }
}
