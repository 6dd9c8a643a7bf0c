//! # lumenbench — wall-clock benchmark of the lumen serving path
//!
//! Three fixed-work workloads drive the public APIs of `lumen-daemon`,
//! `lumen-serve` and `lumen-fleet` from one thread:
//!
//! - `daemon_steady` — closed loop through an in-process [`Daemon`] over
//!   two loopback [`DaemonClient`] connections;
//! - `daemon_durable` — the same daemon with a flight recorder and a
//!   checkpoint every 25 turns, driven as an open loop;
//! - `fleet_direct` — closed loop straight into a two-shard [`Fleet`].
//!
//! Every run does identical work for one seed: the supervisor budget
//! never binds, no deadline expires and nothing is shed, so error rates
//! and clip counts are exact and only timings vary. Every verdict is
//! checked against a direct `Detector::detect` of the same samples.
//! A traced run adds per-layer timings taken from outside the system
//! (see [`trace`]).
//!
//! [`Daemon`]: lumen_daemon::Daemon
//! [`DaemonClient`]: lumen_daemon::DaemonClient
//! [`Fleet`]: lumen_fleet::Fleet

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod daemon_run;
pub mod fleet_run;
pub mod host;
pub mod plan;
pub mod report;
pub mod tally;
pub mod trace;

pub use plan::{prepare, Inputs, Spec, Workload};
pub use report::{Metric, Report};

/// Every fallible step of the benchmark.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Runs `spec` over prepared `inputs`. A traced run makes two passes of
/// half the window ([`Spec::traced_pass`]), each on a fresh set-up: an
/// untraced one, then one with the per-layer shadows and spans. The
/// second's median turn against the first's is the tracing overhead.
///
/// The report's peak resident memory is the growth of the process's peak
/// above its resident memory on entry, which already holds the prepared
/// inputs: what set-up and serving add, not what the clip pool occupies.
///
/// # Errors
///
/// Fails when the system under test returns an error; wrong or missing
/// verdicts are not errors but failures counted in the report.
pub fn run(spec: &Spec, inputs: &Inputs, seed: u64, traced: bool) -> Result<Report> {
    let rss_before_mb = host::rss_mb().unwrap_or(0.0);
    let mut report = run_passes(spec, inputs, seed, traced)?;
    report.peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0) - rss_before_mb;
    Ok(report)
}

fn run_passes(spec: &Spec, inputs: &Inputs, seed: u64, traced: bool) -> Result<Report> {
    let pass = if traced {
        spec.traced_pass()
    } else {
        spec.clone()
    };
    let spec = &pass;
    let once = |untraced_turn_ns: Option<u64>| match spec.workload {
        Workload::DaemonSteady | Workload::DaemonDurable => {
            daemon_run::run(spec, inputs, seed, untraced_turn_ns)
        }
        Workload::FleetDirect => fleet_run::run(spec, inputs, seed, untraced_turn_ns),
    };
    let untraced = once(None)?;
    if !traced {
        return Ok(untraced);
    }
    let mut report = once(Some(untraced.turn_p50_ns))?;
    report.outcome.failed += untraced.outcome.failed;
    report.outcome.notes.extend(untraced.outcome.notes);
    Ok(report)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[u64]) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    tally::percentile(&sorted, 0.5)
}

/// Times `count` complete set-ups, dropping each before the next, so one
/// is live at a time; returns their durations in nanoseconds.
///
/// A run times half its set-ups before the window and the rest after
/// it, and reports their median: the host's speed drifts in phases of
/// seconds, and sampling both ends of the window keeps `setup_s` from
/// following whichever phase the run happened to start in.
///
/// # Errors
///
/// Propagates the first build failure.
pub fn time_setups<T>(count: usize, mut build: impl FnMut() -> Result<T>) -> Result<Vec<u64>> {
    let mut times = Vec::with_capacity(count);
    for _ in 0..count {
        let start = host::now_ns();
        let built = build()?;
        times.push(host::now_ns() - start);
        drop(built);
    }
    Ok(times)
}
