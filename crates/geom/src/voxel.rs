//! Integer voxel indices used by the occupancy maps.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

use crate::Vec3;

/// A discrete voxel index into a regular 3-D grid.
///
/// Conversion between metric coordinates and voxel indices is always relative
/// to a resolution (voxel edge length in metres); both occupancy-map
/// implementations use the same convention, so a point and a resolution map to
/// the same voxel everywhere in the workspace.
///
/// # Examples
///
/// ```
/// use mls_geom::{Vec3, VoxelIndex};
///
/// let idx = VoxelIndex::from_point(Vec3::new(1.2, -0.3, 5.9), 0.5);
/// assert_eq!(idx, VoxelIndex::new(2, -1, 11));
/// let center = idx.center(0.5);
/// assert!((center - Vec3::new(1.25, -0.25, 5.75)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VoxelIndex {
    /// Index along x.
    pub x: i32,
    /// Index along y.
    pub y: i32,
    /// Index along z.
    pub z: i32,
}

impl VoxelIndex {
    /// Creates a voxel index from its components.
    #[inline]
    pub const fn new(x: i32, y: i32, z: i32) -> Self {
        Self { x, y, z }
    }

    /// The voxel containing `point` at the given resolution.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `resolution` is not strictly positive.
    #[inline]
    pub fn from_point(point: Vec3, resolution: f64) -> Self {
        debug_assert!(resolution > 0.0, "voxel resolution must be positive");
        Self {
            x: (point.x / resolution).floor() as i32,
            y: (point.y / resolution).floor() as i32,
            z: (point.z / resolution).floor() as i32,
        }
    }

    /// The metric center of this voxel at the given resolution.
    #[inline]
    pub fn center(&self, resolution: f64) -> Vec3 {
        Vec3::new(
            (self.x as f64 + 0.5) * resolution,
            (self.y as f64 + 0.5) * resolution,
            (self.z as f64 + 0.5) * resolution,
        )
    }

    /// Manhattan (L1) distance between two voxel indices.
    #[inline]
    pub fn manhattan_distance(&self, other: VoxelIndex) -> i64 {
        (self.x as i64 - other.x as i64).abs()
            + (self.y as i64 - other.y as i64).abs()
            + (self.z as i64 - other.z as i64).abs()
    }

    /// All 26 neighbours of this voxel (face, edge and corner adjacency).
    pub fn all_neighbors(&self) -> Vec<VoxelIndex> {
        let mut out = Vec::with_capacity(26);
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    out.push(VoxelIndex::new(self.x + dx, self.y + dy, self.z + dz));
                }
            }
        }
        out
    }
}

impl Add for VoxelIndex {
    type Output = VoxelIndex;
    #[inline]
    fn add(self, rhs: VoxelIndex) -> VoxelIndex {
        VoxelIndex::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for VoxelIndex {
    type Output = VoxelIndex;
    #[inline]
    fn sub(self, rhs: VoxelIndex) -> VoxelIndex {
        VoxelIndex::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl fmt::Display for VoxelIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}, {}]", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_voxel_floor_semantics() {
        assert_eq!(
            VoxelIndex::from_point(Vec3::new(0.0, 0.0, 0.0), 1.0),
            VoxelIndex::new(0, 0, 0)
        );
        assert_eq!(
            VoxelIndex::from_point(Vec3::new(0.99, 0.0, 0.0), 1.0),
            VoxelIndex::new(0, 0, 0)
        );
        assert_eq!(
            VoxelIndex::from_point(Vec3::new(1.0, 0.0, 0.0), 1.0),
            VoxelIndex::new(1, 0, 0)
        );
        assert_eq!(
            VoxelIndex::from_point(Vec3::new(-0.01, 0.0, 0.0), 1.0),
            VoxelIndex::new(-1, 0, 0)
        );
    }

    #[test]
    fn center_lies_inside_voxel() {
        let idx = VoxelIndex::new(3, -2, 7);
        let res = 0.25;
        let c = idx.center(res);
        assert_eq!(VoxelIndex::from_point(c, res), idx);
    }

    #[test]
    fn distances() {
        let a = VoxelIndex::new(0, 0, 0);
        let b = VoxelIndex::new(3, 4, 0);
        assert_eq!(a.manhattan_distance(b), 7);
    }

    #[test]
    fn neighbor_counts_and_uniqueness() {
        let v = VoxelIndex::new(5, 5, 5);
        let all = v.all_neighbors();
        assert_eq!(all.len(), 26);
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 26);
        assert!(!all.contains(&v));
        let faces = all.iter().filter(|n| v.manhattan_distance(**n) == 1);
        assert_eq!(faces.count(), 6);
    }

    #[test]
    fn arithmetic_and_display() {
        let a = VoxelIndex::new(1, 2, 3);
        let b = VoxelIndex::new(-1, 1, 1);
        assert_eq!(a + b, VoxelIndex::new(0, 3, 4));
        assert_eq!(a - b, VoxelIndex::new(2, 1, 2));
        assert!(!format!("{a}").is_empty());
    }
}
