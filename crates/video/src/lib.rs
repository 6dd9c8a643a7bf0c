//! Video-chat optics simulator for the Lumen defense.
//!
//! The ICDCS 2020 paper evaluates its defense with volunteers, a 27-inch
//! monitor and smartphone cameras. This crate replaces that physical testbed
//! with a physically-motivated simulation of the same optical chain:
//!
//! ```text
//! caller video content ──► callee screen ──► face reflection ──► callee camera
//!        (content)            (screen)        (reflection)         (camera)
//! ```
//!
//! * [`pixel`] / [`frame`] — Rec. 709 luminance (the paper's Eq. 3) and image
//!   rasters;
//! * [`content`] — luminance scripts for the transmitted video, including
//!   the metering-driven luminance steps a legitimate caller produces by
//!   moving the spot-metering area (Sec. II-B);
//! * [`screen`] — screen models (size, brightness, distance, panel kind) and
//!   their illuminance on the callee's face;
//! * [`ambient`] — ambient-light levels (the Sec. VIII-I study);
//! * [`reflection`] — the Von Kries diagonal reflection model (Eqs. 1–2)
//!   calibrated against the paper's feasibility study (nasal bridge
//!   105 → 132 for a black→white 27-inch screen);
//! * [`camera`] — camera response: auto-exposure, metering modes, sensor
//!   noise and 8-bit quantization;
//! * [`noise`] — seeded noise processes (white, random-walk head motion,
//!   occlusion bursts);
//! * [`profile`] — the ten synthetic "volunteers" with distinct skin
//!   reflectance and behaviour;
//! * [`synth`] — glue that turns a transmitted-video luminance trace into
//!   the received-video ROI luminance trace for a *live* face.
//!
//! # Example
//!
//! ```
//! use lumen_video::content::MeteringScript;
//! use lumen_video::profile::UserProfile;
//! use lumen_video::screen::Screen;
//! use lumen_video::synth::{ReflectionSynth, SynthConfig};
//!
//! # fn main() -> Result<(), lumen_video::VideoError> {
//! let script = MeteringScript::random_with_seed(42, 15.0)?;
//! let tx = script.sample_signal(10.0)?;
//! let synth = ReflectionSynth::new(SynthConfig {
//!     screen: Screen::dell_27in(),
//!     ..SynthConfig::default()
//! });
//! let rx = synth.synthesize(&tx, &UserProfile::preset(0), 7)?;
//! assert_eq!(rx.len(), tx.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod error;

pub mod ambient;
pub mod camera;
pub mod content;
pub mod frame;
pub mod noise;
pub mod pixel;
pub mod profile;
pub mod reflection;
pub mod screen;
pub mod synth;

pub use error::VideoError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, VideoError>;
