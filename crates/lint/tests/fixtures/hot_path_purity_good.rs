//! Good: everything reachable from the hot entry is pure — no wall
//! clock, no filesystem, no panic site anywhere in the call chain.

/// Per-clip verdict entry point.
// lint:hot-path
pub fn detect(x: f64) -> f64 {
    refine(x)
}

/// Helper on the verdict path.
fn refine(x: f64) -> f64 {
    x * 2.0
}

/// The clip loop that calls the entry point.
fn run(x: f64) -> f64 {
    detect(x)
}
