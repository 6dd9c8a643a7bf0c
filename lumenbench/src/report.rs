//! What a run prints: the end-to-end metrics, the per-layer table of a
//! traced run, and the one-line JSON result.

use crate::plan::Workload;
use crate::tally::{percentile, Outcome};
use crate::trace::{SpanTotals, Tracer};
use crate::Result;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The checked verdicts.
    pub outcome: Outcome,
    /// Median time of the run's timed set-ups, seconds.
    pub setup_s: f64,
    /// Wall time inside the measured calls into the system in each
    /// latency block of the window, nanoseconds, in window order.
    pub block_busy_ns: Vec<u64>,
    /// Median wall time of one window turn's calls into the system
    /// (`Daemon::turn_once`, or a fleet turn's offers, tick and drain),
    /// nanoseconds.
    pub turn_p50_ns: u64,
    /// Growth of the process's peak resident set size over the run,
    /// above the resident memory of the prepared inputs, MiB (filled in
    /// by [`crate::run`]).
    pub peak_rss_mb: f64,
    /// 99th percentile of how late the open-loop generator started a
    /// window turn, milliseconds (0 for closed loops).
    pub late_p99_ms: f64,
    /// The per-layer table (traced runs only).
    pub layers: Vec<Metric>,
    /// The span log (traced runs only).
    pub spans: Option<Tracer>,
}

impl Report {
    /// Clips judged per second of wall time inside the measured calls:
    /// the rate of each latency block, median over the window's blocks,
    /// for the reason given at [`Outcome::latency_ms`].
    pub fn clips_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .outcome
            .blocks_ns
            .iter()
            .zip(&self.block_busy_ns)
            .filter(|&(_, &busy)| busy > 0)
            .map(|(clips, &busy)| clips.len() as f64 * 1e9 / busy as f64)
            .collect();
        median_f64(rates)
    }

    /// The end-to-end metrics `BENCHMARK.json` gates.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            metric("clips_per_s", self.clips_per_s(), "1/s"),
            metric("verdict_p50_ms", self.outcome.latency_ms(0.5), "ms"),
            metric("verdict_p99_ms", self.outcome.latency_ms(0.99), "ms"),
            metric("setup_s", self.setup_s, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
            metric("frr", self.outcome.frr(), "fraction"),
            metric("far", self.outcome.far(), "fraction"),
        ]
    }

    /// Whether the run judged every clip correctly and kept every
    /// accounting identity.
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0 && self.outcome.attempted > 0
    }

    /// The human-readable summary: the clip counts, then every end-to-end
    /// metric with its unit and the failure share, or for a traced run the
    /// per-layer table (its end-to-end timings are distorted by the
    /// shadows, so end-to-end figures come from untraced runs only).
    pub fn summary(&self) -> String {
        let o = &self.outcome;
        let mut out = format!(
            "workload {} seed {}: {} clips scheduled in the window, {} judged correctly, \
             {} failed; conclusive legitimate {} (rejected {}), reenactment {} (accepted {}); \
             latency samples {}; median turn {:.1} us\n",
            self.workload.name(),
            self.seed,
            o.attempted,
            o.judged,
            o.failed,
            o.legit.0,
            o.legit.1,
            o.reenactment.0,
            o.reenactment.1,
            o.latency_samples(),
            self.turn_p50_ns as f64 / 1e3,
        );
        if self.late_p99_ms > 0.0 {
            out.push_str(&format!(
                "open-loop generator lateness p99 {:.3} ms\n",
                self.late_p99_ms
            ));
        }
        if self.layers.is_empty() {
            let mut rows = self.end_to_end();
            rows.push(metric("failed_fraction", o.failed_fraction(), "fraction"));
            out.push_str(&table("end to end", &rows));
        } else {
            out.push_str(&table("per layer (traced run)", &self.layers));
        }
        for note in &o.notes {
            out.push_str(&format!("problem: {note}\n"));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// end-to-end metrics, or the per-layer ones for a traced run.
    ///
    /// # Errors
    ///
    /// Fails when the line cannot be rendered as JSON.
    pub fn json_line(&self, traced: bool) -> Result<String> {
        let metrics = if traced {
            self.layers.clone()
        } else {
            self.end_to_end()
        };
        let metrics = metrics
            .iter()
            .map(|m| {
                let entry = object(vec![
                    ("value", m.value.serialize()),
                    ("unit", m.unit.serialize()),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        let line = object(vec![
            ("correct", self.correct().serialize()),
            ("attempted", self.outcome.attempted.serialize()),
            ("failed", self.outcome.failed.serialize()),
            ("metrics", Value::Object(metrics)),
        ]);
        Ok(serde_json::to_string(&line)?)
    }
}

/// A JSON object with `fields` in order.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Median of `values` (0 when empty).
fn median_f64(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn table(title: &str, rows: &[Metric]) -> String {
    let mut out = format!("{title}:\n");
    for m in rows {
        out.push_str(&format!("  {:<30} {:>16.6} {}\n", m.name, m.value, m.unit));
    }
    out
}

/// Counts and settings the per-layer table needs beyond the span log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCounts {
    /// Name of the outer per-turn span (`daemon.turn` or `fleet.turn`).
    pub turn_span: &'static str,
    /// Median duration of that turn in the untraced run.
    pub untraced_turn_p50_ns: u64,
    /// Frames the shadow decoders decoded.
    pub frames_decoded: u64,
    /// Turns traced.
    pub traced_turns: u64,
    /// `Supervisor::offer` calls replayed on the shadow supervisors.
    pub serve_offers: u64,
    /// `Fleet::offer` calls in traced turns.
    pub fleet_offers: u64,
    /// Frames the daemon's token buckets refused.
    pub rate_limited: u64,
    /// Clips the system served.
    pub clips_served: u64,
    /// Clips the system shed.
    pub clips_shed: u64,
    /// Longest queue wait of a served clip, ticks.
    pub queue_wait_ticks_max: u64,
    /// Size of the last checkpoint record, bytes.
    pub checkpoint_bytes: u64,
    /// Checkpoints the daemon committed.
    pub commits: u64,
    /// Checkpoint writes that failed.
    pub write_failures: u64,
    /// Clips the fleet served on donated credits.
    pub steals: u64,
    /// Largest share of sessions on one shard.
    pub max_shard_share: f64,
    /// 99th percentile of open-loop lateness, ms.
    pub late_p99_ms: f64,
}

fn mean_ns(t: Option<&SpanTotals>, per: u64) -> f64 {
    match t {
        Some(t) if per > 0 => t.total_ns as f64 / per as f64,
        _ => 0.0,
    }
}

fn mean_self_ns(t: Option<&SpanTotals>) -> f64 {
    match t {
        Some(t) if t.count > 0 => t.self_ns as f64 / t.count as f64,
        _ => 0.0,
    }
}

fn pct_over(numerator: f64, base: f64) -> f64 {
    if base > 0.0 {
        (numerator / base - 1.0) * 100.0
    } else {
        0.0
    }
}

/// The per-layer table of a traced run, every metric present on every
/// workload (layers a workload does not run read 0).
pub fn layer_metrics(tracer: &Tracer, c: &LayerCounts) -> Vec<Metric> {
    let totals: BTreeMap<&'static str, SpanTotals> = tracer.totals();
    let t = |name: &str| totals.get(name);
    let count = |name: &str| t(name).map_or(0, |t| t.count);
    let clips = count("detect");
    let turns = tracer.durations("daemon.turn");
    let traced_turn_p50 = percentile(&tracer.durations(c.turn_span), 0.5) as f64;
    let snapshot_ms = mean_ns(t("serve.snapshot"), count("serve.snapshot")) / 1e6;
    let flight_overhead = match t("detect.plain") {
        Some(plain) => pct_over(
            t("detect").map_or(0, |d| d.total_ns) as f64,
            plain.total_ns as f64,
        ),
        None => 0.0,
    };
    vec![
        metric(
            "wire.decode_ns_per_frame",
            mean_ns(t("wire.decode"), c.frames_decoded),
            "ns",
        ),
        metric(
            "wire.frames_per_turn",
            if c.traced_turns > 0 {
                c.frames_decoded as f64 / c.traced_turns as f64
            } else {
                0.0
            },
            "count",
        ),
        metric(
            "wire.encode_ns_per_verdict",
            mean_ns(t("wire.encode"), count("wire.encode")),
            "ns",
        ),
        metric(
            "daemon.turn_us_p50",
            percentile(&turns, 0.5) as f64 / 1e3,
            "us",
        ),
        metric(
            "daemon.turn_us_p99",
            percentile(&turns, 0.99) as f64 / 1e3,
            "us",
        ),
        metric(
            "daemon.self_us_per_turn",
            mean_self_ns(t("daemon.turn")) / 1e3,
            "us",
        ),
        metric("daemon.rate_limited", c.rate_limited as f64, "count"),
        metric(
            "serve.offer_ns",
            mean_ns(t("serve.offers"), c.serve_offers),
            "ns",
        ),
        metric(
            "serve.tick_self_us",
            mean_self_ns(t("serve.tick")) / 1e3,
            "us",
        ),
        metric("serve.clips_served", c.clips_served as f64, "count"),
        metric("serve.clips_shed", c.clips_shed as f64, "count"),
        metric(
            "serve.queue_wait_ticks_max",
            c.queue_wait_ticks_max as f64,
            "ticks",
        ),
        metric("serve.snapshot_ms", snapshot_ms, "ms"),
        metric(
            "store.commit_ms",
            mean_ns(t("store.commit"), count("store.commit")) / 1e6,
            "ms",
        ),
        metric(
            "store.checkpoint_kb",
            c.checkpoint_bytes as f64 / 1024.0,
            "KiB",
        ),
        metric("store.commits", c.commits as f64, "count"),
        metric("store.write_failures", c.write_failures as f64, "count"),
        metric(
            "detect.us_per_clip",
            mean_ns(t("detect"), clips) / 1e3,
            "us",
        ),
        metric(
            "detect.preprocess_us",
            mean_ns(t("detect.preprocess"), clips) / 1e3,
            "us",
        ),
        metric(
            "detect.change_detection_us",
            mean_ns(t("detect.change_detection"), clips) / 1e3,
            "us",
        ),
        metric(
            "detect.features_us",
            mean_ns(t("detect.features"), clips) / 1e3,
            "us",
        ),
        metric("detect.lof_us", mean_ns(t("detect.lof"), clips) / 1e3, "us"),
        metric(
            "fleet.offer_ns",
            mean_ns(t("fleet.offers"), c.fleet_offers),
            "ns",
        ),
        metric(
            "fleet.tick_self_us",
            mean_self_ns(t("fleet.tick")) / 1e3,
            "us",
        ),
        metric("fleet.steals", c.steals as f64, "count"),
        metric("fleet.max_shard_share", c.max_shard_share, "fraction"),
        metric("obs.flight_overhead_pct", flight_overhead, "%"),
        metric("loadgen.late_p99_ms", c.late_p99_ms, "ms"),
        metric(
            "loadgen.tracing_overhead_pct",
            pct_over(traced_turn_p50, c.untraced_turn_p50_ns as f64),
            "%",
        ),
    ]
}
