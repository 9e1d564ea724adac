//! Synthetic camera imaging and fiducial-marker detection for the
//! autonomous-landing reproduction.
//!
//! The paper's marker-detection module exists in two generations:
//!
//! * **MLS-V1** uses a *classical* OpenCV ArUco pipeline (adaptive threshold,
//!   quad extraction, perspective unwarp, bit decoding). We re-implement that
//!   pipeline from scratch in [`classical`].
//! * **MLS-V2/V3** use *TPH-YOLO*, a transformer-augmented YOLOv5 trained on a
//!   synthetic AirSim dataset. We cannot train a deep network here, so
//!   [`learned`] provides a *trained-model surrogate*: local contrast
//!   normalisation of the frame, permissive candidate proposals from dark
//!   connected components, corner refinement by hill-climbing on the decode
//!   score, and soft-bit decoding of every cell against every dictionary code
//!   in all four rotations, accepted above a fixed soft-score threshold.
//!   The surrogate keeps the property the paper actually measures —
//!   markedly better detection under blur, occlusion, glare, low light and
//!   sensor noise — while running on the very same rendered frames as the
//!   classical detector.
//!
//! Everything upstream of the detectors is also here: a tiny grayscale image
//! type ([`GrayImage`]), a pinhole camera ([`Camera`]), an ArUco-style marker
//! dictionary ([`MarkerDictionary`]), a ground-scene renderer
//! ([`MarkerRenderer`]) and an image-degradation pipeline ([`ImageDegrader`])
//! modelling the weather and lighting effects of the paper's evaluation.
//!
//! # Examples
//!
//! Render a frame of a marker from 8 m altitude and detect it with both
//! detectors:
//!
//! ```
//! use mls_geom::{Pose, Vec2, Vec3};
//! use mls_vision::{
//!     Camera, ClassicalDetector, GroundScene, LearnedDetector, MarkerDetector,
//!     MarkerDictionary, MarkerPlacement, MarkerRenderer,
//! };
//!
//! let dictionary = MarkerDictionary::standard();
//! let renderer = MarkerRenderer::new(dictionary.clone());
//! let scene = GroundScene::new().with_marker(MarkerPlacement::new(3, Vec2::ZERO, 1.0, 0.0));
//! let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 8.0), 0.0);
//! let camera = Camera::downward();
//! let frame = renderer.render(&camera, &pose, &scene);
//!
//! let classical = ClassicalDetector::new(dictionary.clone());
//! let learned = LearnedDetector::new(dictionary);
//! assert!(classical.detect(&frame).iter().any(|d| d.id == 3));
//! assert!(learned.detect(&frame).iter().any(|d| d.id == 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

mod camera;
pub mod classical;
mod degrade;
mod detection;
mod dictionary;
mod homography;
mod image;
pub mod learned;
mod renderer;

pub use camera::{Camera, CameraIntrinsics, CameraMount};
pub use classical::{ClassicalDetector, ClassicalDetectorConfig};
pub use degrade::{DegradationConfig, ImageDegrader, LightingCondition, WeatherKind};
pub use detection::{Detection, MarkerDetector, MarkerObservation};
pub use dictionary::{DictionaryMatch, MarkerCode, MarkerDictionary, MARKER_CELLS, PAYLOAD_CELLS};
pub use homography::Homography;
pub use image::{GrayImage, IntegralImage};
pub use learned::{LearnedDetector, LearnedDetectorConfig};
pub use renderer::{
    GroundAppearance, GroundScene, MarkerPlacement, MarkerRenderer, RendererConfig, ShadowDisc,
};

/// Errors produced by the vision crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VisionError {
    /// Raw pixel buffer length did not match the requested dimensions.
    DimensionMismatch {
        /// Number of samples implied by `width * height`.
        expected: usize,
        /// Number of samples actually supplied.
        actual: usize,
    },
    /// The dictionary generator could not produce the requested number of
    /// codes at the requested minimum Hamming distance.
    DictionaryGeneration {
        /// Number of codes requested.
        requested: usize,
        /// Number of codes that could be generated.
        generated: usize,
    },
    /// A marker id was requested that is not present in the dictionary.
    UnknownMarkerId {
        /// The offending id.
        id: u32,
    },
    /// A world point projected behind the camera.
    BehindCamera,
    /// A homography or pose-estimation problem was geometrically degenerate
    /// (collinear correspondences, zero-area quads, ...).
    DegenerateGeometry,
}

impl fmt::Display for VisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VisionError::DimensionMismatch { expected, actual } => {
                write!(f, "pixel buffer has {actual} samples, expected {expected}")
            }
            VisionError::DictionaryGeneration {
                requested,
                generated,
            } => write!(
                f,
                "could only generate {generated} of {requested} dictionary codes"
            ),
            VisionError::UnknownMarkerId { id } => {
                write!(f, "marker id {id} is not in the dictionary")
            }
            VisionError::BehindCamera => write!(f, "point projects behind the camera"),
            VisionError::DegenerateGeometry => write!(f, "degenerate geometry"),
        }
    }
}

impl Error for VisionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VisionError>();
        let err = VisionError::UnknownMarkerId { id: 7 };
        assert!(err.to_string().contains('7'));
        let err = VisionError::DimensionMismatch {
            expected: 4,
            actual: 3,
        };
        assert!(err.to_string().contains("expected 4"));
    }
}
