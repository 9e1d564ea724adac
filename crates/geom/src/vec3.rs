//! Three-dimensional vector type used throughout the workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A 3-D vector of `f64` components in metres (world frame: ENU).
///
/// # Examples
///
/// ```
/// use mls_geom::Vec3;
///
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::new(4.0, 5.0, 6.0);
/// assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
/// assert!((a.dot(b) - 32.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// East component (metres).
    pub x: f64,
    /// North component (metres).
    pub y: f64,
    /// Up component (metres).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +x (east).
    pub const UNIT_X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along +y (north).
    pub const UNIT_Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along +z (up).
    pub const UNIT_Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a new vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Creates a vector with all components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Self { x: v, y: v, z: v }
    }

    /// Builds a vector from a horizontal [`super::Vec2`]-like pair and a height.
    #[inline]
    pub const fn from_xy_z(x: f64, y: f64, z: f64) -> Self {
        Self::new(x, y, z)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (cheaper than [`Vec3::norm`]).
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Horizontal (x, y) distance to another point, ignoring altitude.
    #[inline]
    pub fn horizontal_distance(self, other: Vec3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Returns the unit vector in the same direction, or `None` if the vector
    /// is (numerically) zero.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Returns the unit vector in the same direction, falling back to `+x`
    /// for a zero vector. Useful where a direction is required and the zero
    /// case is benign.
    #[inline]
    pub fn normalized_or_x(self) -> Vec3 {
        self.normalized().unwrap_or(Vec3::UNIT_X)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Clamps every component into `[min, max]`.
    #[inline]
    pub fn clamp(self, min: Vec3, max: Vec3) -> Vec3 {
        self.max(min).min(max)
    }

    /// Returns the vector with its horizontal components only (z zeroed).
    #[inline]
    pub fn horizontal(self) -> Vec3 {
        Vec3::new(self.x, self.y, 0.0)
    }

    /// Projects the vector onto the horizontal plane and returns `(x, y)`.
    #[inline]
    pub fn xy(self) -> super::Vec2 {
        super::Vec2::new(self.x, self.y)
    }

    /// `true` if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Caps the norm of the vector at `max_norm`, preserving direction.
    ///
    /// Vectors shorter than `max_norm` are returned unchanged.
    #[inline]
    pub fn clamp_norm(self, max_norm: f64) -> Vec3 {
        debug_assert!(max_norm >= 0.0, "max_norm must be non-negative");
        let n = self.norm();
        if n > max_norm && n > f64::EPSILON {
            self * (max_norm / n)
        } else {
            self
        }
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;

    /// Indexes the vector: 0 → x, 1 → y, 2 → z.
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    fn index(&self, index: usize) -> &f64 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |acc, v| acc + v)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl From<(f64, f64, f64)> for Vec3 {
    fn from(t: (f64, f64, f64)) -> Self {
        Vec3::new(t.0, t.1, t.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Vec3::new(1.0, -2.0, 3.5);
        let b = Vec3::new(0.5, 4.0, -1.5);
        assert_eq!(a + b - b, a);
        assert_eq!((a * 2.0) / 2.0, a);
        assert_eq!(-(-a), a);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
        c *= 3.0;
        c /= 3.0;
        assert!((c - a).norm() < 1e-12);
    }

    #[test]
    fn dot_and_cross_orthogonality() {
        let x = Vec3::UNIT_X;
        let y = Vec3::UNIT_Y;
        assert_eq!(x.cross(y), Vec3::UNIT_Z);
        assert_eq!(x.dot(y), 0.0);
        let a = Vec3::new(2.0, -1.0, 0.5);
        let b = Vec3::new(-3.0, 0.2, 7.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn norm_and_normalized() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert!((v.norm_squared() - 25.0).abs() < 1e-12);
        let n = v.normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!(Vec3::ZERO.normalized().is_none());
        assert_eq!(Vec3::ZERO.normalized_or_x(), Vec3::UNIT_X);
    }

    #[test]
    fn distances() {
        let a = Vec3::new(0.0, 0.0, 10.0);
        let b = Vec3::new(3.0, 4.0, 10.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert!((a.horizontal_distance(b) - 5.0).abs() < 1e-12);
        let c = Vec3::new(3.0, 4.0, 100.0);
        assert!((a.horizontal_distance(c) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(10.0, -10.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(5.0, -5.0, 2.0));
    }

    #[test]
    fn clamp_and_minmax() {
        let v = Vec3::new(5.0, -5.0, 0.5);
        let lo = Vec3::splat(-1.0);
        let hi = Vec3::splat(1.0);
        assert_eq!(v.clamp(lo, hi), Vec3::new(1.0, -1.0, 0.5));
        assert_eq!(v.abs(), Vec3::new(5.0, 5.0, 0.5));
        assert_eq!(v.min(Vec3::ZERO), Vec3::new(0.0, -5.0, 0.0));
        assert_eq!(v.max(Vec3::ZERO), Vec3::new(5.0, 0.0, 0.5));
    }

    #[test]
    fn clamp_norm_preserves_direction() {
        let v = Vec3::new(6.0, 8.0, 0.0);
        let clamped = v.clamp_norm(5.0);
        assert!((clamped.norm() - 5.0).abs() < 1e-12);
        assert!((clamped.normalized().unwrap() - v.normalized().unwrap()).norm() < 1e-12);
        // Shorter vectors are unchanged.
        assert_eq!(
            Vec3::new(1.0, 0.0, 0.0).clamp_norm(5.0),
            Vec3::new(1.0, 0.0, 0.0)
        );
        assert_eq!(Vec3::ZERO.clamp_norm(5.0), Vec3::ZERO);
    }

    #[test]
    fn conversions_and_index() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let arr: [f64; 3] = v.into();
        assert_eq!(arr, [1.0, 2.0, 3.0]);
        assert_eq!(Vec3::from([1.0, 2.0, 3.0]), v);
        assert_eq!(Vec3::from((1.0, 2.0, 3.0)), v);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v[2], 3.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn sum_of_iterator() {
        let total: Vec3 = (0..5).map(|i| Vec3::splat(i as f64)).sum();
        assert_eq!(total, Vec3::splat(10.0));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Vec3::ZERO).is_empty());
        assert!(!format!("{:?}", Vec3::ZERO).is_empty());
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(Vec3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Vec3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Vec3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }
}
