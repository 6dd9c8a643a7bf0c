//! Good: the span opens first, so every exit — including the `?` failure
//! path — is covered by the guard's drop.

/// Measured stage; the failure path is measured too.
pub fn measure(rec: &Recorder, x: u64) -> Result<u64, Error> {
    let _span = rec.span("measure");
    let v = validate(x)?;
    Ok(v * 2)
}

/// The pipeline that runs the stage.
fn run(rec: &Recorder) -> Result<u64, Error> {
    measure(rec, 1)
}
