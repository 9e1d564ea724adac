//! Detector-facing types: pixel-space detections, the [`MarkerDetector`]
//! trait implemented by the classical and learned pipelines, and the lifting
//! of detections into world-frame marker observations.

use mls_geom::{Pose, Vec2, Vec3};
use serde::{Deserialize, Serialize};

use crate::{Camera, GrayImage};

/// A single marker detection in pixel space.
///
/// Both detector generations produce this type. The classical pipeline also
/// estimates the in-plane marker orientation from the decoded rotation; the
/// learned surrogate — like the paper's TPH-YOLO, which "was not trained for
/// marker orientation estimation" — leaves [`Detection::orientation`] empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Decoded marker id.
    pub id: u32,
    /// Pixel coordinates of the marker center.
    pub center: Vec2,
    /// Pixel coordinates of the four marker corners (counter-clockwise in
    /// image coordinates, starting from the corner that maps to the marker's
    /// top-left cell when known).
    pub corners: [Vec2; 4],
    /// Detector confidence in `[0, 1]`.
    pub confidence: f64,
    /// Apparent side length of the marker in pixels (mean of the four edges).
    pub apparent_size: f64,
    /// In-plane marker orientation in the image (radians), when the detector
    /// recovers it.
    pub orientation: Option<f64>,
}

impl Detection {
    /// Builds a detection, deriving `center` and `apparent_size` from the
    /// corners.
    pub fn from_corners(id: u32, corners: [Vec2; 4], confidence: f64) -> Self {
        let center = Vec2::new(
            corners.iter().map(|c| c.x).sum::<f64>() / 4.0,
            corners.iter().map(|c| c.y).sum::<f64>() / 4.0,
        );
        let mut perimeter = 0.0;
        for i in 0..4 {
            perimeter += corners[i].distance(corners[(i + 1) % 4]);
        }
        Self {
            id,
            center,
            corners,
            confidence: confidence.clamp(0.0, 1.0),
            apparent_size: perimeter / 4.0,
            orientation: None,
        }
    }

    /// Returns the same detection with an orientation estimate attached.
    pub fn with_orientation(mut self, orientation: f64) -> Self {
        self.orientation = Some(orientation);
        self
    }

    /// Quadrilateral area in square pixels (shoelace formula).
    pub fn area(&self) -> f64 {
        let c = &self.corners;
        let mut area = 0.0;
        for i in 0..4 {
            let j = (i + 1) % 4;
            area += c[i].x * c[j].y - c[j].x * c[i].y;
        }
        area.abs() / 2.0
    }
}

/// A marker detector operating on rendered (and possibly degraded) camera
/// frames.
///
/// The trait is object safe so the landing system can swap detector
/// generations behind a `Box<dyn MarkerDetector>`.
pub trait MarkerDetector: Send + Sync {
    /// Detects markers in a grayscale frame.
    ///
    /// Detections are returned in descending confidence order. An empty
    /// vector means no marker was found (a *false negative* when a marker was
    /// actually visible — the metric of Table II).
    fn detect(&self, image: &GrayImage) -> Vec<Detection>;

    /// Short human-readable name used in reports ("opencv-aruco",
    /// "tph-yolo-surrogate").
    fn name(&self) -> &str;

    /// Relative computational cost of one inference compared to the classical
    /// detector (used by the compute model; TPH-YOLO is far heavier than the
    /// OpenCV pipeline even after TensorRT conversion).
    fn relative_cost(&self) -> f64 {
        1.0
    }
}

impl<D: MarkerDetector + ?Sized> MarkerDetector for Box<D> {
    fn detect(&self, image: &GrayImage) -> Vec<Detection> {
        (**self).detect(image)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn relative_cost(&self) -> f64 {
        (**self).relative_cost()
    }
}

/// A detection lifted into the world frame using the camera geometry and the
/// vehicle's (estimated) pose.
///
/// This is what the decision-making module consumes: a marker id, an estimate
/// of where that marker sits on the ground, and how much the detector trusts
/// it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkerObservation {
    /// Decoded marker id.
    pub id: u32,
    /// Estimated world position of the marker center (on the ground plane).
    pub world_position: Vec3,
    /// Detector confidence in `[0, 1]`.
    pub confidence: f64,
    /// Apparent marker size in pixels when observed.
    pub apparent_size: f64,
    /// Estimated physical marker side length in metres (from the apparent
    /// size and the range to the ground), useful for sanity checks against
    /// the expected marker size.
    pub estimated_size: f64,
    /// The pixel-space detection this observation was lifted from.
    pub detection: Detection,
}

impl MarkerObservation {
    /// Lifts a pixel-space detection into the world frame.
    ///
    /// The marker is assumed to lie on the horizontal plane `z = ground_z`
    /// (the paper lands on flat static targets). Returns `None` when the ray
    /// through the detection center does not hit that plane in front of the
    /// camera (e.g. the vehicle is banked so far the camera sees the sky).
    pub fn from_detection(
        camera: &Camera,
        vehicle_pose: &Pose,
        detection: &Detection,
        ground_z: f64,
    ) -> Option<Self> {
        let ray = camera.pixel_ray(vehicle_pose, detection.center);
        let t = ray.intersect_horizontal_plane(ground_z)?;
        let world = ray.point_at(t);

        // Estimate the physical size: project two adjacent corners onto the
        // ground plane and measure their separation.
        let mut estimated_size = 0.0;
        let mut edges = 0usize;
        for i in 0..4 {
            let a = camera.pixel_ray(vehicle_pose, detection.corners[i]);
            let b = camera.pixel_ray(vehicle_pose, detection.corners[(i + 1) % 4]);
            if let (Some(ta), Some(tb)) = (
                a.intersect_horizontal_plane(ground_z),
                b.intersect_horizontal_plane(ground_z),
            ) {
                estimated_size += a.point_at(ta).distance(b.point_at(tb));
                edges += 1;
            }
        }
        if edges > 0 {
            estimated_size /= edges as f64;
        }

        Some(Self {
            id: detection.id,
            world_position: world,
            confidence: detection.confidence,
            apparent_size: detection.apparent_size,
            estimated_size,
            detection: detection.clone(),
        })
    }
}

/// Orders a raw set of four corner points counter-clockwise (in image
/// coordinates, i.e. clockwise on screen where y grows downward) around
/// their centroid, starting from the corner with the smallest angle.
pub(crate) fn order_corners(mut corners: [Vec2; 4]) -> [Vec2; 4] {
    let cx = corners.iter().map(|c| c.x).sum::<f64>() / 4.0;
    let cy = corners.iter().map(|c| c.y).sum::<f64>() / 4.0;
    corners.sort_by(|a, b| {
        let aa = (a.y - cy).atan2(a.x - cx);
        let ab = (b.y - cy).atan2(b.x - cx);
        aa.partial_cmp(&ab).unwrap_or(std::cmp::Ordering::Equal)
    });
    corners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CameraIntrinsics;
    use mls_geom::Attitude;

    fn square_detection(center: Vec2, half: f64) -> Detection {
        Detection::from_corners(
            5,
            [
                Vec2::new(center.x - half, center.y - half),
                Vec2::new(center.x + half, center.y - half),
                Vec2::new(center.x + half, center.y + half),
                Vec2::new(center.x - half, center.y + half),
            ],
            0.9,
        )
    }

    #[test]
    fn from_corners_derives_center_and_size() {
        let d = square_detection(Vec2::new(80.0, 60.0), 10.0);
        assert!((d.center.x - 80.0).abs() < 1e-9);
        assert!((d.center.y - 60.0).abs() < 1e-9);
        assert!((d.apparent_size - 20.0).abs() < 1e-9);
        assert!((d.area() - 400.0).abs() < 1e-9);
        assert!(d.orientation.is_none());
    }

    #[test]
    fn confidence_is_clamped() {
        let d = Detection::from_corners(1, [Vec2::ZERO; 4], 3.0);
        assert!((d.confidence - 1.0).abs() < 1e-12);
        let d = Detection::from_corners(1, [Vec2::ZERO; 4], -1.0);
        assert_eq!(d.confidence, 0.0);
    }

    #[test]
    fn observation_at_nadir_recovers_marker_under_vehicle() {
        let camera = Camera::downward();
        let pose = Pose::from_position_yaw(Vec3::new(2.0, -3.0, 10.0), 0.0);
        // A detection exactly at the principal point maps to the ground point
        // directly below the vehicle.
        let center = Vec2::new(camera.intrinsics.cx, camera.intrinsics.cy);
        let d = square_detection(center, 8.0);
        let obs = MarkerObservation::from_detection(&camera, &pose, &d, 0.0)
            .expect("nadir ray must hit the ground");
        assert!(
            obs.world_position
                .horizontal_distance(Vec3::new(2.0, -3.0, 0.0))
                < 1e-6
        );
        assert!((obs.world_position.z - 0.0).abs() < 1e-9);
        assert!(obs.estimated_size > 0.0);
    }

    #[test]
    fn observation_estimated_size_scales_with_altitude() {
        let camera = Camera::downward();
        let d = square_detection(Vec2::new(camera.intrinsics.cx, camera.intrinsics.cy), 10.0);
        let low = MarkerObservation::from_detection(
            &camera,
            &Pose::from_position_yaw(Vec3::new(0.0, 0.0, 5.0), 0.0),
            &d,
            0.0,
        )
        .unwrap();
        let high = MarkerObservation::from_detection(
            &camera,
            &Pose::from_position_yaw(Vec3::new(0.0, 0.0, 15.0), 0.0),
            &d,
            0.0,
        )
        .unwrap();
        // Same pixels seen from 3x the altitude correspond to a 3x larger
        // physical footprint.
        assert!((high.estimated_size / low.estimated_size - 3.0).abs() < 1e-6);
    }

    #[test]
    fn observation_fails_when_camera_sees_sky() {
        let camera = Camera::downward();
        // Rolled 180 degrees: the downward camera now looks up.
        let pose = Pose::new(
            Vec3::new(0.0, 0.0, 10.0),
            Attitude::new(std::f64::consts::PI, 0.0, 0.0),
        );
        let d = square_detection(Vec2::new(camera.intrinsics.cx, camera.intrinsics.cy), 8.0);
        assert!(MarkerObservation::from_detection(&camera, &pose, &d, 0.0).is_none());
    }

    #[test]
    fn order_corners_is_counter_clockwise_by_angle() {
        let shuffled = [
            Vec2::new(10.0, 0.0),
            Vec2::new(0.0, 0.0),
            Vec2::new(10.0, 10.0),
            Vec2::new(0.0, 10.0),
        ];
        let ordered = order_corners(shuffled);
        let cx = 5.0;
        let cy = 5.0;
        let mut prev = (ordered[0].y - cy).atan2(ordered[0].x - cx);
        for c in ordered.iter().skip(1) {
            let a = (c.y - cy).atan2(c.x - cx);
            assert!(a > prev);
            prev = a;
        }
    }

    #[test]
    fn trait_is_object_safe() {
        struct Null;
        impl MarkerDetector for Null {
            fn detect(&self, _image: &GrayImage) -> Vec<Detection> {
                Vec::new()
            }
            fn name(&self) -> &str {
                "null"
            }
        }
        let boxed: Box<dyn MarkerDetector> = Box::new(Null);
        assert_eq!(boxed.name(), "null");
        assert!(boxed.detect(&GrayImage::new(4, 4)).is_empty());
        assert!((boxed.relative_cost() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intrinsics_default_matches_expected_resolution() {
        let i = CameraIntrinsics::downward_default();
        assert_eq!(i.width, 160);
        assert_eq!(i.height, 120);
    }
}
