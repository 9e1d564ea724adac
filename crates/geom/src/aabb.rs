//! Axis-aligned bounding boxes, used for obstacles and map regions.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Ray, Vec3};

/// An axis-aligned box defined by its minimum and maximum corners.
///
/// Invariant: `min` is component-wise less than or equal to `max`. The
/// constructors enforce this by swapping components if necessary.
///
/// # Examples
///
/// ```
/// use mls_geom::{Aabb, Vec3};
///
/// let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 2.0, 2.0));
/// assert!(b.contains(Vec3::new(1.0, 1.0, 1.0)));
/// assert!(!b.contains(Vec3::new(3.0, 1.0, 1.0)));
/// assert_eq!(b.center(), Vec3::new(1.0, 1.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    min: Vec3,
    max: Vec3,
}

impl Aabb {
    /// Creates a box from two opposite corners (in any order).
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Self {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Creates a box from its center and half-extents.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any half-extent is negative.
    pub fn from_center_half_extents(center: Vec3, half_extents: Vec3) -> Self {
        debug_assert!(
            half_extents.x >= 0.0 && half_extents.y >= 0.0 && half_extents.z >= 0.0,
            "half extents must be non-negative"
        );
        Self {
            min: center - half_extents,
            max: center + half_extents,
        }
    }

    /// The minimum corner.
    #[inline]
    pub fn min(&self) -> Vec3 {
        self.min
    }

    /// The maximum corner.
    #[inline]
    pub fn max(&self) -> Vec3 {
        self.max
    }

    /// The geometric center of the box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// The size (full extents) of the box along each axis.
    #[inline]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// The half-extents of the box.
    #[inline]
    pub fn half_extents(&self) -> Vec3 {
        self.size() * 0.5
    }

    /// Volume of the box in cubic metres.
    #[inline]
    pub fn volume(&self) -> f64 {
        let s = self.size();
        s.x * s.y * s.z
    }

    /// `true` if `point` lies inside or on the boundary of the box.
    #[inline]
    pub fn contains(&self, point: Vec3) -> bool {
        point.x >= self.min.x
            && point.x <= self.max.x
            && point.y >= self.min.y
            && point.y <= self.max.y
            && point.z >= self.min.z
            && point.z <= self.max.z
    }

    /// `true` if the two boxes overlap (boundary contact counts).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// Returns the box grown by `margin` metres in every direction.
    ///
    /// This is the "inflation" operation used for obstacle clearance
    /// (see the paper's Fig. 6 discussion of inflated bounding boxes).
    pub fn inflated(&self, margin: f64) -> Aabb {
        debug_assert!(margin >= 0.0, "inflation margin must be non-negative");
        Aabb {
            min: self.min - Vec3::splat(margin),
            max: self.max + Vec3::splat(margin),
        }
    }

    /// The smallest box containing both `self` and `other`.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Closest point inside the box to `point` (the point itself if inside).
    pub fn closest_point(&self, point: Vec3) -> Vec3 {
        point.clamp(self.min, self.max)
    }

    /// Euclidean distance from `point` to the box (zero if inside).
    pub fn distance_to_point(&self, point: Vec3) -> f64 {
        self.closest_point(point).distance(point)
    }

    /// Ray/box intersection using the slab method.
    ///
    /// Returns the entry distance `t >= 0` along the ray, or `None` when the
    /// ray misses the box. A ray starting inside the box returns `Some(0.0)`.
    pub fn ray_intersection(&self, ray: &Ray) -> Option<f64> {
        let mut t_min = 0.0_f64;
        let mut t_max = f64::INFINITY;
        for axis in 0..3 {
            let origin = ray.origin[axis];
            let dir = ray.direction[axis];
            let lo = self.min[axis];
            let hi = self.max[axis];
            if dir.abs() < 1e-15 {
                if origin < lo || origin > hi {
                    return None;
                }
            } else {
                let inv = 1.0 / dir;
                let mut t0 = (lo - origin) * inv;
                let mut t1 = (hi - origin) * inv;
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                if t_min > t_max {
                    return None;
                }
            }
        }
        Some(t_min)
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aabb[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn constructor_orders_corners() {
        let b = Aabb::new(Vec3::new(2.0, -1.0, 5.0), Vec3::new(-2.0, 1.0, 0.0));
        assert_eq!(b.min(), Vec3::new(-2.0, -1.0, 0.0));
        assert_eq!(b.max(), Vec3::new(2.0, 1.0, 5.0));
        assert_eq!(b.center(), Vec3::new(0.0, 0.0, 2.5));
        assert_eq!(b.size(), Vec3::new(4.0, 2.0, 5.0));
        assert!((b.volume() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn containment_and_boundary() {
        let b = unit_box();
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::splat(1.0)));
        assert!(!b.contains(Vec3::new(1.0001, 0.5, 0.5)));
    }

    #[test]
    fn intersection_symmetric() {
        let a = unit_box();
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(2.0));
        let c = Aabb::new(Vec3::splat(3.0), Vec3::splat(4.0));
        assert!(a.intersects(&b) && b.intersects(&a));
        assert!(!a.intersects(&c) && !c.intersects(&a));
        // Touching boxes count as intersecting.
        let d = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0));
        assert!(a.intersects(&d));
    }

    #[test]
    fn inflation_grows_every_side() {
        let b = unit_box().inflated(0.5);
        assert_eq!(b.min(), Vec3::splat(-0.5));
        assert_eq!(b.max(), Vec3::splat(1.5));
    }

    #[test]
    fn union_contains_both() {
        let a = unit_box();
        let b = Aabb::new(Vec3::splat(5.0), Vec3::splat(6.0));
        let u = a.union(&b);
        assert!(u.contains(Vec3::splat(0.5)));
        assert!(u.contains(Vec3::splat(5.5)));
    }

    #[test]
    fn closest_point_and_distance() {
        let b = unit_box();
        assert_eq!(b.closest_point(Vec3::splat(0.5)), Vec3::splat(0.5));
        assert_eq!(
            b.closest_point(Vec3::new(2.0, 0.5, 0.5)),
            Vec3::new(1.0, 0.5, 0.5)
        );
        assert!((b.distance_to_point(Vec3::new(2.0, 0.5, 0.5)) - 1.0).abs() < 1e-12);
        assert_eq!(b.distance_to_point(Vec3::splat(0.5)), 0.0);
    }

    #[test]
    fn ray_hits_and_misses() {
        let b = Aabb::from_center_half_extents(Vec3::new(10.0, 0.0, 0.0), Vec3::splat(1.0));
        let hit = Ray::new(Vec3::ZERO, Vec3::UNIT_X);
        assert!((b.ray_intersection(&hit).unwrap() - 9.0).abs() < 1e-12);
        let miss = Ray::new(Vec3::ZERO, Vec3::UNIT_Y);
        assert!(b.ray_intersection(&miss).is_none());
        let away = Ray::new(Vec3::ZERO, -Vec3::UNIT_X);
        assert!(b.ray_intersection(&away).is_none());
        // Starting inside the box.
        let inside = Ray::new(Vec3::new(10.0, 0.0, 0.0), Vec3::UNIT_Z);
        assert_eq!(b.ray_intersection(&inside), Some(0.0));
    }

    #[test]
    fn ray_parallel_to_slab() {
        let b = unit_box();
        // Parallel to x axis, inside the y/z slabs.
        let inside_slab = Ray::new(Vec3::new(-5.0, 0.5, 0.5), Vec3::UNIT_X);
        assert!(b.ray_intersection(&inside_slab).is_some());
        // Parallel to x axis, outside the y slab.
        let outside_slab = Ray::new(Vec3::new(-5.0, 2.0, 0.5), Vec3::UNIT_X);
        assert!(b.ray_intersection(&outside_slab).is_none());
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", unit_box()).is_empty());
    }
}
