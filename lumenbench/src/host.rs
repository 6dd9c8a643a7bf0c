//! The benchmark's only contact with its host: the wall clock, the
//! kernel's memory accounting and the span file of a traced run. Every
//! reading taken here is reported as a measurement; none is ever fed back
//! into the system under test.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    // lint:allow(no-wall-clock): a wall-clock harness times real elapsed work by design, like crates/bench/src/bin; readings are telemetry, never verdict inputs
    *ORIGIN.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the first reading in this process.
pub fn now_ns() -> u64 {
    let origin = origin();
    // lint:allow(no-wall-clock): a wall-clock harness times real elapsed work by design, like crates/bench/src/bin; readings are telemetry, never verdict inputs
    let elapsed = Instant::now().duration_since(origin);
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Waits until [`now_ns`] reaches `due_ns`: sleeps while more than a
/// scheduler quantum remains, then spins, so an open-loop generator
/// starts each turn within a few microseconds of its due time.
pub fn wait_until_ns(due_ns: u64) {
    const SPIN_NS: u64 = 200_000;
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The process's peak resident set size (`VmHWM`), in MiB, or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    status_mib("VmHWM:")
}

/// The process's current resident set size (`VmRSS`), in MiB, or `None`
/// where `/proc` does not provide it.
pub fn rss_mb() -> Option<f64> {
    status_mib("VmRSS:")
}

fn status_mib(field: &str) -> Option<f64> {
    // lint:allow(no-fs): the benchmark reports the kernel's resident-memory accounting from /proc, as crates/bench/src/bin persists its reports; nothing is written
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Writes `contents` to `path`, creating its parent directory.
///
/// # Errors
///
/// Returns the I/O error of the directory creation or the write.
pub fn write_report(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        // lint:allow(no-fs): the traced run writes its spans once, after the measurement, as crates/bench/src/bin persists its reports
        std::fs::create_dir_all(dir)?;
    }
    // lint:allow(no-fs): the traced run writes its spans once, after the measurement, as crates/bench/src/bin persists its reports
    std::fs::write(path, contents)
}
