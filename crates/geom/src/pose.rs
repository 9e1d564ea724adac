//! Vehicle pose: position plus attitude.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Attitude, Vec3};

/// A rigid-body pose in the world frame: position (metres) and attitude.
///
/// # Examples
///
/// ```
/// use mls_geom::{Pose, Vec3, Attitude};
///
/// let pose = Pose::new(Vec3::new(5.0, 0.0, 10.0), Attitude::from_yaw(0.0));
/// // A point one metre ahead of the vehicle in the body frame:
/// let world = pose.transform_point(Vec3::UNIT_X);
/// assert!((world - Vec3::new(6.0, 0.0, 10.0)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Pose {
    /// Position of the body origin in the world frame (metres).
    pub position: Vec3,
    /// Attitude of the body frame relative to the world frame.
    pub attitude: Attitude,
}

impl Pose {
    /// The identity pose: origin, level, zero yaw.
    pub const IDENTITY: Pose = Pose {
        position: Vec3::ZERO,
        attitude: Attitude::LEVEL,
    };

    /// Creates a pose from a position and attitude.
    #[inline]
    pub const fn new(position: Vec3, attitude: Attitude) -> Self {
        Self { position, attitude }
    }

    /// Creates a level pose at `position` with the given yaw.
    #[inline]
    pub const fn from_position_yaw(position: Vec3, yaw: f64) -> Self {
        Self {
            position,
            attitude: Attitude::from_yaw(yaw),
        }
    }

    /// Transforms a point from the body frame into the world frame.
    #[inline]
    pub fn transform_point(&self, body_point: Vec3) -> Vec3 {
        self.position + self.attitude.body_to_world(body_point)
    }

    /// Transforms a point from the world frame into the body frame.
    #[inline]
    pub fn inverse_transform_point(&self, world_point: Vec3) -> Vec3 {
        self.attitude.world_to_body(world_point - self.position)
    }

    /// Transforms a direction (no translation) from body to world frame.
    #[inline]
    pub fn transform_direction(&self, body_dir: Vec3) -> Vec3 {
        self.attitude.body_to_world(body_dir)
    }

    /// Altitude above the world origin plane (the `z` coordinate).
    #[inline]
    pub fn altitude(&self) -> f64 {
        self.position.z
    }

    /// Yaw of the pose, radians.
    #[inline]
    pub fn yaw(&self) -> f64 {
        self.attitude.yaw
    }

    /// `true` if position and attitude are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.position.is_finite() && self.attitude.is_finite()
    }
}

impl fmt::Display for Pose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pos {} {}", self.position, self.attitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn identity_pose_is_a_no_op() {
        let p = Pose::IDENTITY;
        let point = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(p.transform_point(point), point);
        assert_eq!(p.inverse_transform_point(point), point);
    }

    #[test]
    fn translation_only() {
        let p = Pose::from_position_yaw(Vec3::new(10.0, -5.0, 2.0), 0.0);
        assert_eq!(p.transform_point(Vec3::ZERO), p.position);
        assert_eq!(p.inverse_transform_point(p.position), Vec3::ZERO);
    }

    #[test]
    fn yawed_pose_rotates_then_translates() {
        let p = Pose::from_position_yaw(Vec3::new(1.0, 1.0, 0.0), FRAC_PI_2);
        let world = p.transform_point(Vec3::UNIT_X);
        assert!((world - Vec3::new(1.0, 2.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn transform_roundtrip() {
        let p = Pose::new(Vec3::new(3.0, -2.0, 8.0), Attitude::new(0.05, -0.1, 1.0));
        for point in [
            Vec3::ZERO,
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(-4.0, 0.5, -2.0),
        ] {
            let rt = p.inverse_transform_point(p.transform_point(point));
            assert!((rt - point).norm() < 1e-9);
        }
    }

    #[test]
    fn accessors() {
        let p = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 25.0), 0.7);
        assert_eq!(p.altitude(), 25.0);
        assert_eq!(p.yaw(), 0.7);
        assert!(p.is_finite());
        assert!(!format!("{p}").is_empty());
    }

    #[test]
    fn directions_ignore_translation() {
        let p = Pose::from_position_yaw(Vec3::new(100.0, 100.0, 100.0), FRAC_PI_2);
        let d = p.transform_direction(Vec3::UNIT_X);
        assert!((d - Vec3::UNIT_Y).norm() < 1e-12);
    }
}
