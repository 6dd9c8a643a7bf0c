//! Synthetic faces and facial-landmark detection for the Lumen defense.
//!
//! The paper locates the lower nasal bridge with a Python facial-recognition
//! API (Sec. IV, Fig. 5): four landmarks on the nasal bridge, five on the
//! nasal tip, and an interest square of side `l = |b1 - b2|` centered on the
//! lower bridge point. This crate reproduces that geometry end to end on
//! synthetic imagery:
//!
//! * [`geometry`] — parametric face geometry with ground-truth landmarks;
//! * [`render`] — rasterizes a face (skin, eyes, mouth, specular nasal
//!   ridge) into a [`lumen_video::frame::Frame`] under a given illumination;
//! * [`detect`] — an actual detector that finds the nasal ridge in a frame
//!   by brightness-band analysis (no ground-truth peeking), returning the
//!   nine landmarks;
//! * [`roi`] — the interest-square construction and ROI luminance
//!   extraction;
//! * [`tracker`] — temporal landmark smoothing (Sec. V discusses
//!   localization jitter as a noise source).
//!
//! # Example
//!
//! ```
//! use lumen_face::geometry::FaceGeometry;
//! use lumen_face::render::FaceRenderer;
//! use lumen_face::detect::detect_landmarks;
//! use lumen_face::roi::roi_luminance;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let geom = FaceGeometry::centered(160, 120);
//! let frame = FaceRenderer::default().render(&geom, 140.0)?;
//! let landmarks = detect_landmarks(&frame).expect("face is visible");
//! let luma = roi_luminance(&frame, &landmarks)?;
//! assert!(luma > 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod detect;
pub mod geometry;
pub mod landmarks;
pub mod render;
pub mod roi;
pub mod sequence;
pub mod tracker;
