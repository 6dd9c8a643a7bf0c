//! Bad: verdict-path fns discard two `Result`s — one through `let _ =`
//! in the hot entry, one through a dangling `.ok()` one call down.

/// Fallible refresh; the symbol table records the `Result` return.
fn refresh() -> Result<(), Error> {
    Ok(())
}

/// Fallible push.
fn push(v: u64) -> Result<(), Error> {
    Ok(())
}

/// Verdict-path tick.
// lint:hot-path
pub fn tick() {
    let _ = refresh();
    settle();
}

/// Helper on the verdict path.
fn settle() {
    push(1).ok();
}

/// The session loop that drives the verdict path.
fn run() {
    tick();
}
