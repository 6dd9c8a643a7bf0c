//! The benchmark's own checks, at a tiny size: metric names and units
//! match `BENCHMARK.json`, runs of one seed agree exactly on everything
//! but timings, another seed streams other clips, and a wrong reference
//! verdict is caught.

use lumenbench::plan::{Spec, Workload, CLIP_SAMPLES, WARMUP_TURNS};
use lumenbench::{prepare, run, Report};
use serde::Value;
use std::path::PathBuf;

/// A few sessions, one clip period of window, one set-up.
fn tiny(workload: Workload) -> Spec {
    Spec {
        sessions: 16,
        window_turns: CLIP_SAMPLES,
        period_ns: Spec::standard(workload, 1).period_ns.map(|_| 1_000_000),
        setups: 1,
        legit_pool: 13,
        reenactment_pool: 5,
        ..Spec::standard(workload, 1)
    }
}

fn tiny_run(workload: Workload, seed: u64, traced: bool) -> Report {
    let spec = tiny(workload);
    let inputs = prepare(&spec, seed).expect("inputs");
    run(&spec, &inputs, seed, traced).expect("run")
}

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is checked in");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(json: &Value, section: &str) -> Vec<(String, String)> {
    let Value::Array(items) = json.field(section).expect("section") else {
        panic!("{section} is not an array");
    };
    items
        .iter()
        .map(|m| {
            (
                m.field("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.field("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn emitted(metrics: &[lumenbench::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_metric_is_emitted_with_its_declared_unit() {
    let json = benchmark_json();
    let workloads: Vec<String> = match json.field("workloads").expect("workloads") {
        Value::Array(items) => items
            .iter()
            .map(|w| {
                w.field("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect(),
        _ => panic!("workloads is not an array"),
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    for workload in Workload::ALL {
        let report = tiny_run(workload, 3, true);
        assert!(report.correct(), "{}", report.summary());
        assert_eq!(emitted(&report.end_to_end()), declared(&json, "end_to_end"));
        assert_eq!(emitted(&report.layers), declared(&json, "per_layer"));
        for m in report.end_to_end().iter().chain(&report.layers) {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
        }
        let line = report.json_line(true).expect("result line renders");
        let parsed: Value = serde_json::from_str(&line).expect("result line parses");
        assert_eq!(parsed.field("failed").and_then(Value::as_u64).ok(), Some(0));
        // The layers that must stay idle on every workload.
        for idle in [
            "serve.clips_shed",
            "store.write_failures",
            "daemon.rate_limited",
            "fleet.steals",
        ] {
            let m = report.layers.iter().find(|m| m.name == idle).expect(idle);
            assert_eq!(m.value, 0.0, "{idle} on {}", workload.name());
        }
    }
}

#[test]
fn one_seed_gives_identical_verdicts_and_counts() {
    for workload in Workload::ALL {
        let a = tiny_run(workload, 11, false);
        let b = tiny_run(workload, 11, false);
        assert!(a.correct() && b.correct(), "{}", a.summary());
        let spec = tiny(workload);
        let expected = spec.plan().clips_between(WARMUP_TURNS, spec.total_turns());
        assert_eq!(a.outcome.attempted, expected);
        assert_eq!(a.outcome.attempted, b.outcome.attempted);
        assert_eq!(a.outcome.judged, b.outcome.judged);
        assert_eq!(a.outcome.legit, b.outcome.legit);
        assert_eq!(a.outcome.reenactment, b.outcome.reenactment);
        assert_eq!(a.outcome.frr().to_bits(), b.outcome.frr().to_bits());
        assert_eq!(a.outcome.far().to_bits(), b.outcome.far().to_bits());
        assert_eq!(a.outcome.failed_fraction(), 0.0);
        assert_eq!(b.outcome.failed_fraction(), 0.0);
    }
}

#[test]
fn another_seed_streams_other_clips() {
    let spec = tiny(Workload::FleetDirect);
    let a = prepare(&spec, 11).expect("inputs");
    let b = prepare(&spec, 12).expect("inputs");
    assert_eq!(a.pool.len(), b.pool.len());
    for (x, y) in a.pool.iter().zip(&b.pool) {
        assert_ne!(x.rx.samples(), y.rx.samples());
    }
    // No clip of the run is one of the enrolment traces.
    for clip in &a.pool {
        assert!(a
            .training
            .iter()
            .all(|t| t.rx.samples() != clip.rx.samples()));
    }
}

#[test]
fn no_session_replays_a_clip() {
    let spec = Spec::standard(Workload::DaemonSteady, 10);
    let plan = spec.plan();
    let turns = spec.total_turns() + CLIP_SAMPLES;
    assert!(plan.clips_are_fresh(turns));
    for s in [0, 3, 7, 598, 1_199] {
        let mut seen = std::collections::BTreeSet::new();
        for clip in 0..turns / CLIP_SAMPLES + 1 {
            assert!(
                seen.insert(plan.pool_index(s, clip)),
                "session {s} clip {clip}"
            );
        }
    }
    let short_pool = Spec {
        legit_pool: 9,
        ..spec
    };
    assert!(!short_pool.plan().clips_are_fresh(turns));
}

#[test]
fn a_wrong_reference_verdict_is_counted_as_failed() {
    for workload in Workload::ALL {
        let spec = tiny(workload);
        let plan = spec.plan();
        let mut inputs = prepare(&spec, 5).expect("inputs");
        // The clip session 0 completes first inside the window.
        let clip = plan.clips_done(0, WARMUP_TURNS);
        let index = plan.pool_index(0, clip);
        inputs.references[index].score += 1e-9;
        let report = run(&spec, &inputs, 5, false).expect("run");
        assert!(!report.correct());
        assert!(report.outcome.failed >= 1);
        assert!(report.outcome.failed_fraction() > 0.0);
        let line = report.json_line(false).expect("result line renders");
        assert!(line.starts_with("{\"correct\":false"));
    }
}
