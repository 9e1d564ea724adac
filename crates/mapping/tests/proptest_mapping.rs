//! Property-based tests of the occupancy-map substrates.

use mls_geom::Vec3;
use mls_mapping::{
    voxel_traversal, CellState, OccupancyQuery, OctreeConfig, OctreeMap, VoxelGridConfig,
    VoxelGridMap,
};
use proptest::prelude::*;

fn vec3(range: std::ops::Range<f64>) -> impl Strategy<Value = Vec3> {
    (range.clone(), range.clone(), 0.5f64..12.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// The reference inflation query: the per-probe body the trait's default
/// `occupied_within` had before its probe sets were tabled, copied verbatim
/// over `&dyn OccupancyQuery` — 15 directions up to 2.5 cells, the sphere
/// lattice beyond, read through nothing but `state_at` and `resolution()`.
fn reference_occupied_within(
    map: &dyn OccupancyQuery,
    point: Vec3,
    radius: f64,
    treat_unknown_as_occupied: bool,
) -> bool {
    let r = radius.max(0.0);
    let check = |p: Vec3| match map.state_at(p) {
        CellState::Occupied => true,
        CellState::Unknown => treat_unknown_as_occupied,
        CellState::Free => false,
    };
    if r <= 2.5 * map.resolution() {
        let d = r / 3.0f64.sqrt();
        let offsets = [
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
        ];
        return offsets.iter().any(|offset| check(point + *offset));
    }
    let step = map.resolution().max(0.05);
    let n = (r / step).ceil() as i32;
    for dz in -n..=n {
        for dy in -n..=n {
            for dx in -n..=n {
                let offset = Vec3::new(dx as f64 * step, dy as f64 * step, dz as f64 * step);
                if offset.norm() > r + 1e-9 {
                    continue;
                }
                if check(point + offset) {
                    return true;
                }
            }
        }
    }
    false
}

/// Half-extent of the maps the inflation-exactness property queries.
const EXACT_HALF_EXTENT: f64 = 12.0;

/// A coordinate in one of `bands`, the band picked by the first draw and the
/// position inside it by the second.
fn banded(bands: &'static [(f64, f64)]) -> impl Strategy<Value = f64> {
    (0..bands.len(), 0.0f64..1.0).prop_map(move |(band, t)| {
        let (lo, hi) = bands[band];
        lo + t * (hi - lo)
    })
}

/// A query point anywhere in the mapped volume, or on its rim, where part of
/// the probe box leaves the map (x or y near ±[`EXACT_HALF_EXTENT`], z below
/// the radius) or all of it does.
fn query_point() -> impl Strategy<Value = Vec3> {
    const H: f64 = EXACT_HALF_EXTENT;
    const HORIZONTAL: &[(f64, f64)] = &[(-H - 1.0, -H + 2.5), (-H, H), (H - 2.5, H + 1.0)];
    const VERTICAL: &[(f64, f64)] = &[(-0.5, 2.5), (0.0, 13.0)];
    (banded(HORIZONTAL), banded(HORIZONTAL), banded(VERTICAL))
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The voxel traversal is always face-connected, starts in the start
    /// cell, and never contains the end cell.
    #[test]
    fn traversal_is_connected_and_bounded(
        from in vec3(-15.0..15.0),
        to in vec3(-15.0..15.0),
        resolution in 0.2f64..1.0,
    ) {
        let cells = voxel_traversal(from, to, resolution);
        let start = mls_geom::VoxelIndex::from_point(from, resolution);
        let end = mls_geom::VoxelIndex::from_point(to, resolution);
        if start == end {
            prop_assert!(cells.is_empty());
        } else {
            prop_assert_eq!(cells[0], start);
            prop_assert!(!cells.contains(&end));
            for pair in cells.windows(2) {
                prop_assert_eq!(pair[0].manhattan_distance(pair[1]), 1);
            }
            // Never more cells than a generous bound on the crossed distance.
            let bound = (3.0 * from.distance(to) / resolution).ceil() as usize + 6;
            prop_assert!(cells.len() <= bound);
        }
    }

    /// Inserting a cloud always marks its endpoints occupied (both backends),
    /// and a point that was never observed stays unknown.
    #[test]
    fn endpoints_become_occupied_and_unobserved_stays_unknown(
        endpoints in prop::collection::vec(vec3(3.0..15.0), 1..40),
    ) {
        let origin = Vec3::new(0.0, 0.0, 5.0);
        let mut grid = VoxelGridMap::new(VoxelGridConfig {
            resolution: 0.5,
            half_extent_xy: 20.0,
            height: 14.0,
            carve_free_space: true,
            max_range: 40.0,
        }).unwrap();
        // max_range must cover the sampled endpoints (up to ~22 m away) and
        // match the grid, or the octree silently drops what the grid records.
        let mut tree = OctreeMap::new(OctreeConfig { resolution: 0.5, half_extent: 32.0, max_range: 40.0, ..OctreeConfig::default() }).unwrap();
        for _ in 0..3 {
            grid.insert_cloud(origin, &endpoints);
            tree.insert_cloud(origin, &endpoints);
        }
        for p in &endpoints {
            prop_assert_eq!(grid.state_at(*p), CellState::Occupied);
            prop_assert_eq!(tree.state_at(*p), CellState::Occupied);
        }
        // A corner of the map far from every ray stays unknown.
        let probe = Vec3::new(-18.0, -18.0, 10.0);
        prop_assert_eq!(grid.state_at(probe), CellState::Unknown);
        prop_assert_eq!(tree.state_at(probe), CellState::Unknown);
    }

    /// The octree's log-odds saturation means occupancy decisions are always
    /// reversible within a bounded number of contrary observations.
    #[test]
    fn octree_occupancy_is_reversible(hits in 1usize..60) {
        let mut tree = OctreeMap::new(OctreeConfig { resolution: 0.5, half_extent: 16.0, ..OctreeConfig::default() }).unwrap();
        let origin = Vec3::new(0.0, 0.0, 3.0);
        let cell = Vec3::new(5.0, 0.0, 3.0);
        for _ in 0..hits {
            tree.insert_cloud(origin, &[cell]);
        }
        prop_assert_eq!(tree.state_at(cell), CellState::Occupied);
        // Observe through the cell (miss) until it flips; the clamp bounds
        // how long that can take regardless of how many hits accumulated.
        let beyond = Vec3::new(9.0, 0.0, 3.0);
        let mut flips = 0;
        while tree.state_at(cell) == CellState::Occupied && flips < 60 {
            tree.insert_cloud(origin, &[beyond]);
            flips += 1;
        }
        prop_assert!(flips < 30, "took {flips} misses to flip a clamped cell");
    }

    /// Inflation queries are monotone in the radius: a larger radius never
    /// reports "clear" where a smaller one reported "occupied".
    #[test]
    fn inflation_is_monotone_in_radius(
        obstacle in vec3(2.0..12.0),
        probe in vec3(2.0..12.0),
        r_small in 0.2f64..1.0,
        r_extra in 0.1f64..2.0,
    ) {
        let mut grid = VoxelGridMap::new(VoxelGridConfig {
            resolution: 0.5,
            half_extent_xy: 16.0,
            height: 14.0,
            carve_free_space: false,
            max_range: 40.0,
        }).unwrap();
        grid.mark_occupied(obstacle);
        let small = grid.occupied_within(probe, r_small, false);
        let large = grid.occupied_within(probe, r_small + r_extra, false);
        prop_assert!(!small || large, "larger radius must still see the obstacle");
    }

    /// The tabled inflation query is the reference query, bit for bit: the
    /// octree's shared-level override and the grid's default body agree with
    /// the per-probe reference at every radius either side of the 2.5-cell
    /// switch, with unknown space read both ways, on maps with carved and
    /// pruned free space, saturated blocks and marked points.
    #[test]
    fn inflation_query_matches_the_per_probe_reference(
        origin in (-4.0f64..4.0, -4.0f64..4.0, 2.0f64..8.0),
        wall_x in 3.0f64..10.0,
        block in (0u64..15, 0u64..15, 0u64..8),
        marked in prop::collection::vec(query_point(), 0..12),
        points in prop::collection::vec(query_point(), 12..24),
    ) {
        let resolution = 0.4;
        let h = EXACT_HALF_EXTENT;
        let origin = Vec3::new(origin.0, origin.1, origin.2);
        let mut grid = VoxelGridMap::new(VoxelGridConfig {
            resolution,
            half_extent_xy: h,
            height: 14.0,
            carve_free_space: true,
            max_range: 40.0,
        }).unwrap();
        let mut tree = OctreeMap::new(OctreeConfig {
            resolution,
            half_extent: h,
            max_range: 40.0,
            ..OctreeConfig::default()
        }).unwrap();
        // A dense scan of a wall and the ground: rays carve free space,
        // which prunes octree leaves into coarse free nodes.
        let mut scan = Vec::new();
        for i in -20..=20 {
            for j in 0..=30 {
                scan.push(Vec3::new(wall_x, f64::from(i) * 0.25, f64::from(j) * 0.25));
                scan.push(Vec3::new(f64::from(j) * 0.25 - 4.0, f64::from(i) * 0.25, 0.0));
            }
        }
        for _ in 0..2 {
            grid.insert_cloud(origin, &scan);
            tree.insert_cloud(origin, &scan);
        }
        // A saturated 4 × 4 × 4-leaf block, aligned so the octree prunes it
        // into one occupied node two levels up.
        let corner = (block.0 * 4, block.1 * 4, block.2 * 4);
        let leaf = |i: u64, d: u64| (i + d) as f64 * resolution + resolution / 2.0;
        for dz in 0..4 {
            for dy in 0..4 {
                for dx in 0..4 {
                    let p = Vec3::new(leaf(corner.0, dx) - h, leaf(corner.1, dy) - h, leaf(corner.2, dz));
                    grid.mark_occupied(p);
                    tree.mark_occupied(p);
                }
            }
        }
        // The block's centre: small radii stay inside its pruned node.
        let block_centre = Vec3::new(
            (corner.0 + 2) as f64 * resolution - h,
            (corner.1 + 2) as f64 * resolution - h,
            (corner.2 + 2) as f64 * resolution,
        );
        for p in &marked {
            grid.mark_occupied(*p);
            tree.mark_occupied(*p);
        }
        let fixed = [origin, block_centre, Vec3::new(wall_x, 0.0, 3.0)];
        for point in points.iter().copied().chain(fixed) {
            for radius in [0.0, 0.5, 0.9, 1.0, 1.01, 1.6, 2.3] {
                for unknown in [false, true] {
                    let want = reference_occupied_within(&tree, point, radius, unknown);
                    prop_assert_eq!(
                        tree.occupied_within(point, radius, unknown), want,
                        "octree at {:?}, radius {}, unknown-as-occupied {}", point, radius, unknown
                    );
                    let want = reference_occupied_within(&grid, point, radius, unknown);
                    prop_assert_eq!(
                        grid.occupied_within(point, radius, unknown), want,
                        "grid at {:?}, radius {}, unknown-as-occupied {}", point, radius, unknown
                    );
                }
            }
        }
    }
}
