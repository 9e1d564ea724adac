//! Occupancy-mapping substrates.
//!
//! The paper's mapping module went through two generations:
//!
//! * **MLS-V2** keeps a *local* static voxel grid around the vehicle
//!   (EGO-Planner style). It is fast but only knows about space it has
//!   recently observed, and it forgets everything that scrolls out of the
//!   window — which is how V2 ends up planning "through at-the-time unseen
//!   obstacles". Implemented by [`VoxelGridMap`].
//! * **MLS-V3** switches to a *global* probabilistic octree (OctoMap style):
//!   log-odds occupancy, ray-carving of free space, hierarchical pruning, and
//!   far lower memory for large mostly-empty worlds. Implemented by
//!   [`OctreeMap`].
//!
//! Both implement [`OccupancyQuery`], the interface the planners consume,
//! including inflation-aware queries ([`OccupancyQuery::occupied_within`])
//! that reproduce the Fig. 6 "inflated bounding box" behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use mls_geom::Vec3;
use serde::{Deserialize, Serialize};

mod grid;
mod octree;
mod raycast;

pub use grid::{VoxelGridConfig, VoxelGridMap};
pub use octree::{OctreeConfig, OctreeMap};
pub use raycast::voxel_traversal;

/// Errors produced by the mapping crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MappingError {
    /// A map parameter was out of range.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::InvalidConfig { reason } => {
                write!(f, "invalid map configuration: {reason}")
            }
        }
    }
}

impl Error for MappingError {}

/// Occupancy state of a queried point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellState {
    /// Observed and occupied.
    Occupied,
    /// Observed and free.
    Free,
    /// Never observed (or outside the map).
    Unknown,
}

/// The query interface planners and safety checks use, shared by the grid
/// and octree maps.
pub trait OccupancyQuery: Send + Sync {
    /// Edge length of the smallest map cell, metres.
    fn resolution(&self) -> f64;

    /// Occupancy state of the cell containing `point`.
    fn state_at(&self, point: Vec3) -> CellState;

    /// Approximate memory consumed by the map storage, bytes.
    fn memory_bytes(&self) -> usize;

    /// `true` when any cell within `radius` of `point` is occupied — the
    /// inflation primitive. `treat_unknown_as_occupied` selects the
    /// conservative behaviour used during the landing descent.
    ///
    /// For radii up to 2.5 map cells a fixed 15-direction probe pattern is
    /// used — the centre, the six axis directions at `radius`, and the eight
    /// cube diagonals — which is an adequate and much cheaper approximation
    /// of true inflation when the cells are comparable in size to the
    /// vehicle. Larger radii read every lattice point of the sphere, so thin
    /// obstacles cannot slip between probes; that includes both planners at
    /// `fig6-constrained`'s 1.6 m on 0.4 m cells (257 probes). Every probe
    /// set contains the centre itself.
    ///
    /// A probe set is a pure function of the radius and the resolution, so
    /// each thread builds it once and keeps the last few in a small table.
    /// [`OctreeMap`] overrides this method: it reads the same probes, but
    /// descends the tree levels they all share once instead of once each.
    fn occupied_within(&self, point: Vec3, radius: f64, treat_unknown_as_occupied: bool) -> bool {
        probes(radius, self.resolution())
            .offsets
            .iter()
            .any(|offset| {
                occupancy_blocks(self.state_at(point + *offset), treat_unknown_as_occupied)
            })
    }

    /// `true` when the straight segment from `a` to `b`, inflated by
    /// `radius`, touches occupied space.
    fn segment_blocked(
        &self,
        a: Vec3,
        b: Vec3,
        radius: f64,
        treat_unknown_as_occupied: bool,
    ) -> bool {
        let length = a.distance(b);
        let step = self.resolution().max(0.1);
        let samples = (length / step).ceil().max(1.0) as usize;
        for i in 0..=samples {
            let t = i as f64 / samples as f64;
            if self.occupied_within(a.lerp(b, t), radius, treat_unknown_as_occupied) {
                return true;
            }
        }
        false
    }
}

/// Whether a probe reading `state` blocks an inflation query.
fn occupancy_blocks(state: CellState, treat_unknown_as_occupied: bool) -> bool {
    match state {
        CellState::Occupied => true,
        CellState::Unknown => treat_unknown_as_occupied,
        CellState::Free => false,
    }
}

/// The probes of one inflation query shape: the offsets from the queried
/// point that [`OccupancyQuery::occupied_within`] reads, in scan order, and
/// their per-axis extremes, which bound the box every probe falls in.
struct Probes {
    offsets: Vec<Vec3>,
    min: Vec3,
    max: Vec3,
}

impl Probes {
    /// The probes of a query of radius `r` (non-negative) on cells of edge
    /// `resolution`.
    fn new(r: f64, resolution: f64) -> Self {
        let offsets = if r <= 2.5 * resolution {
            let d = r / 3.0f64.sqrt();
            vec![
                Vec3::ZERO,
                Vec3::new(r, 0.0, 0.0),
                Vec3::new(-r, 0.0, 0.0),
                Vec3::new(0.0, r, 0.0),
                Vec3::new(0.0, -r, 0.0),
                Vec3::new(0.0, 0.0, r),
                Vec3::new(0.0, 0.0, -r),
                Vec3::new(d, d, d),
                Vec3::new(d, d, -d),
                Vec3::new(d, -d, d),
                Vec3::new(d, -d, -d),
                Vec3::new(-d, d, d),
                Vec3::new(-d, d, -d),
                Vec3::new(-d, -d, d),
                Vec3::new(-d, -d, -d),
            ]
        } else {
            let step = resolution.max(0.05);
            let n = (r / step).ceil() as i32;
            let mut offsets = Vec::new();
            for dz in -n..=n {
                for dy in -n..=n {
                    for dx in -n..=n {
                        let offset =
                            Vec3::new(dx as f64 * step, dy as f64 * step, dz as f64 * step);
                        if offset.norm() <= r + 1e-9 {
                            offsets.push(offset);
                        }
                    }
                }
            }
            offsets
        };
        let min = offsets.iter().fold(Vec3::ZERO, |acc, o| acc.min(*o));
        let max = offsets.iter().fold(Vec3::ZERO, |acc, o| acc.max(*o));
        Self { offsets, min, max }
    }
}

/// One probe table entry: the bit patterns of (radius, resolution) and
/// their probes.
type ProbeEntry = ((u64, u64), Rc<Probes>);

/// Probe sets a thread keeps; the oldest is evicted first.
const PROBE_TABLE_CAPACITY: usize = 8;

thread_local! {
    /// The probe sets this thread has built. Maps are shared `Sync` values
    /// across mission threads; a table per thread needs no lock.
    static PROBE_TABLE: RefCell<VecDeque<ProbeEntry>> = const { RefCell::new(VecDeque::new()) };
}

/// The probes of an inflation query of `radius` on cells of edge
/// `resolution`, built on this thread's first query of that shape.
fn probes(radius: f64, resolution: f64) -> Rc<Probes> {
    let r = radius.max(0.0);
    let key = (r.to_bits(), resolution.to_bits());
    PROBE_TABLE.with(|table| {
        let mut table = table.borrow_mut();
        if let Some((_, probes)) = table.iter().find(|(k, _)| *k == key) {
            return Rc::clone(probes);
        }
        let probes = Rc::new(Probes::new(r, resolution));
        if table.len() == PROBE_TABLE_CAPACITY {
            table.pop_front();
        }
        table.push_back((key, Rc::clone(&probes)));
        probes
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct HalfSpace;

    impl OccupancyQuery for HalfSpace {
        fn resolution(&self) -> f64 {
            0.25
        }
        fn state_at(&self, point: Vec3) -> CellState {
            if point.x > 5.0 {
                CellState::Occupied
            } else if point.x > 4.0 {
                CellState::Unknown
            } else {
                CellState::Free
            }
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_inflation_detects_nearby_occupancy() {
        let map = HalfSpace;
        assert!(!map.occupied_within(Vec3::new(0.0, 0.0, 0.0), 1.0, false));
        assert!(map.occupied_within(Vec3::new(4.6, 0.0, 0.0), 1.0, false));
        // Unknown treated as occupied only when asked.
        assert!(!map.occupied_within(Vec3::new(3.5, 0.0, 0.0), 1.0, false));
        assert!(map.occupied_within(Vec3::new(3.5, 0.0, 0.0), 1.0, true));
    }

    #[test]
    fn default_segment_check_detects_crossing() {
        let map = HalfSpace;
        assert!(map.segment_blocked(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(8.0, 0.0, 0.0),
            0.3,
            false
        ));
        assert!(!map.segment_blocked(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(3.0, 0.0, 0.0),
            0.3,
            false
        ));
    }

    #[test]
    fn probe_sets_have_the_pattern_and_the_lattice_sizes() {
        // 2.5 cells exactly is still the 15-direction pattern.
        let pattern = probes(1.0, 0.4);
        assert_eq!(pattern.offsets.len(), 15);
        assert_eq!(pattern.offsets[0], Vec3::ZERO);
        assert_eq!(pattern.max, Vec3::splat(1.0));
        // The `fig6-constrained` inflation reads the sphere lattice.
        let lattice = probes(1.6, 0.4);
        assert_eq!(lattice.offsets.len(), 257);
        assert!(lattice.offsets.contains(&Vec3::ZERO));
        assert_eq!(lattice.min, Vec3::splat(-1.6));
        // The table hands out the set it built.
        assert!(Rc::ptr_eq(&lattice, &probes(1.6, 0.4)));
    }

    #[test]
    fn errors_display() {
        let e = MappingError::InvalidConfig {
            reason: "resolution".to_string(),
        };
        assert!(e.to_string().contains("resolution"));
    }
}
