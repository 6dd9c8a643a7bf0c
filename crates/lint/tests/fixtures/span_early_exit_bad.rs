//! Bad: the fn opens an obs span, but a `?` sits before the open — the
//! early failure path exits without ever being measured.

/// Measured stage with an unmeasured failure path.
pub fn measure(rec: &Recorder, x: u64) -> Result<u64, Error> {
    let v = validate(x)?;
    let _span = rec.span("measure");
    Ok(v * 2)
}

/// The pipeline that runs the stage.
fn run(rec: &Recorder) -> Result<u64, Error> {
    measure(rec, 1)
}
