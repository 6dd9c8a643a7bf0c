//! Bad: the hot entry itself is clean, but a panic site hides one call
//! down — only the interprocedural rule sees it. The inline allow
//! silences the file-local `no-panic` rule so the fixture isolates
//! `hot-path-purity`.

/// Per-clip verdict entry point.
// lint:hot-path
pub fn detect(x: f64) -> f64 {
    refine(x)
}

/// Helper on the verdict path.
fn refine(x: f64) -> f64 {
    // lint:allow(no-panic): fixture exercises the interprocedural rule
    scale(x).expect("scale is total")
}

/// The clip loop that calls the entry point.
fn run(x: f64) -> f64 {
    detect(x)
}
