//! Good: every `Result` on the verdict path is propagated or surfaced;
//! nothing is silently dropped.

/// Fallible refresh.
fn refresh() -> Result<(), Error> {
    Ok(())
}

/// Fallible push.
fn push(v: u64) -> Result<(), Error> {
    Ok(())
}

/// Verdict-path tick: propagates one failure, surfaces the other.
// lint:hot-path
pub fn tick(counters: &mut Counters) -> Result<(), Error> {
    refresh()?;
    if push(1).is_err() {
        counters.add("push_failed", 1);
    }
    Ok(())
}

/// The session loop that drives the verdict path.
fn run(counters: &mut Counters) -> Result<(), Error> {
    tick(counters)
}
