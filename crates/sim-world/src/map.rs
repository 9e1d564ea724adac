//! Simulation maps: bounded worlds with obstacles and landing markers.
//!
//! A [`WorldMap`] is the substitute for one of the paper's ten AirSim /
//! Unreal Engine maps: flat terrain populated with buildings, trees and
//! poles, plus one target landing marker and a handful of false-positive
//! markers scattered around the nominal GPS target.

use mls_geom::{Aabb, Ray, Vec3};
use serde::{Deserialize, Serialize};

use crate::obstacle::{Obstacle, RayHit};

/// Style of the environment a map represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MapStyle {
    /// Open fields, scattered trees, at most a barn or two.
    Rural,
    /// Houses, gardens, street trees and utility poles.
    Suburban,
    /// Dense, tall buildings with narrow corridors between them.
    Urban,
}

impl MapStyle {
    /// The three styles in benchmark order.
    pub const ALL: [MapStyle; 3] = [MapStyle::Rural, MapStyle::Suburban, MapStyle::Urban];

    /// Short lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            MapStyle::Rural => "rural",
            MapStyle::Suburban => "suburban",
            MapStyle::Urban => "urban",
        }
    }
}

/// A landing marker painted on the ground.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkerSite {
    /// Dictionary id rendered at this site. False-positive sites may reuse a
    /// *different* valid id or an out-of-dictionary id (a blank white square).
    pub id: u32,
    /// Centre of the marker on the ground plane.
    pub position: Vec3,
    /// Physical side length, metres.
    pub size: f64,
    /// In-plane rotation of the marker, radians.
    pub yaw: f64,
    /// `true` for the genuine landing target of the scenario.
    pub is_target: bool,
}

impl MarkerSite {
    /// Creates the genuine landing target of a scenario.
    pub fn target(id: u32, position: Vec3, size: f64, yaw: f64) -> Self {
        Self {
            id,
            position,
            size,
            yaw,
            is_target: true,
        }
    }

    /// Creates a false-positive / decoy site.
    pub fn decoy(id: u32, position: Vec3, size: f64, yaw: f64) -> Self {
        Self {
            id,
            position,
            size,
            yaw,
            is_target: false,
        }
    }
}

/// A complete static simulation world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldMap {
    /// Human-readable name ("urban-03").
    pub name: String,
    /// Environment style.
    pub style: MapStyle,
    /// Horizontal/vertical extent of the world.
    pub bounds: Aabb,
    /// Ground elevation (flat terrain).
    pub ground_z: f64,
    /// Static obstacles.
    pub obstacles: Vec<Obstacle>,
    /// Landing markers (the target plus decoys).
    pub markers: Vec<MarkerSite>,
}

impl WorldMap {
    /// Creates an empty flat map with the given name, style and half-extent.
    pub fn empty(name: impl Into<String>, style: MapStyle, half_extent: f64) -> Self {
        Self {
            name: name.into(),
            style,
            bounds: Aabb::from_center_half_extents(
                Vec3::new(0.0, 0.0, 60.0),
                Vec3::new(half_extent, half_extent, 60.0),
            ),
            ground_z: 0.0,
            obstacles: Vec::new(),
            markers: Vec::new(),
        }
    }

    /// Adds an obstacle (builder style).
    pub fn with_obstacle(mut self, obstacle: Obstacle) -> Self {
        self.obstacles.push(obstacle);
        self
    }

    /// Adds a marker site (builder style).
    pub fn with_marker(mut self, marker: MarkerSite) -> Self {
        self.markers.push(marker);
        self
    }

    /// The genuine landing target of the map, if one has been placed.
    pub fn target_marker(&self) -> Option<&MarkerSite> {
        self.markers.iter().find(|m| m.is_target)
    }

    /// Every decoy (non-target) marker.
    pub fn decoy_markers(&self) -> impl Iterator<Item = &MarkerSite> {
        self.markers.iter().filter(|m| !m.is_target)
    }

    /// `true` when `point` lies inside any obstacle, below the ground, or
    /// outside the world bounds.
    pub fn occupied(&self, point: Vec3) -> bool {
        if point.z <= self.ground_z {
            return true;
        }
        if !self.bounds.contains(point) {
            return true;
        }
        self.obstacles.iter().any(|o| o.contains(point))
    }

    /// `true` when `point` keeps at least `margin` metres of clearance from
    /// every obstacle and the ground.
    pub fn has_clearance(&self, point: Vec3, margin: f64) -> bool {
        if point.z - self.ground_z < margin {
            return false;
        }
        self.obstacles
            .iter()
            .all(|o| o.distance_to(point) >= margin)
    }

    /// Distance from `point` to the closest obstacle surface or the ground.
    pub fn clearance(&self, point: Vec3) -> f64 {
        let ground = (point.z - self.ground_z).max(0.0);
        self.obstacles
            .iter()
            .map(|o| o.distance_to(point))
            .fold(ground, f64::min)
    }

    /// `true` when the straight segment between `a` and `b` passes through
    /// occupied space (sampled every `step` metres).
    pub fn segment_occupied(&self, a: Vec3, b: Vec3, step: f64) -> bool {
        let length = a.distance(b);
        if length < 1e-9 {
            return self.occupied(a);
        }
        let steps = (length / step.max(0.05)).ceil() as usize;
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            if self.occupied(a.lerp(b, t)) {
                return true;
            }
        }
        false
    }

    /// Casts a ray against every obstacle and the ground plane, returning the
    /// nearest hit within `max_range`.
    pub fn raycast(&self, ray: &Ray, max_range: f64) -> Option<RayHit> {
        let mut best: Option<RayHit> = None;
        // Ground plane.
        if let Some(t) = ray.intersect_horizontal_plane(self.ground_z) {
            if t <= max_range {
                best = Some(RayHit {
                    distance: t,
                    point: ray.point_at(t),
                    porous: false,
                });
            }
        }
        for obstacle in &self.obstacles {
            // Cheap reject: skip obstacles whose bounding box is farther than
            // the current best hit.
            if let Some(current) = &best {
                if obstacle.bounding_box().distance_to_point(ray.origin) > current.distance {
                    continue;
                }
            }
            if let Some(hit) = obstacle.raycast(ray, max_range) {
                if best
                    .as_ref()
                    .map(|b| hit.distance < b.distance)
                    .unwrap_or(true)
                {
                    best = Some(hit);
                }
            }
        }
        best
    }

    /// The tallest obstacle height in the map (0 for an empty map).
    pub fn max_obstacle_height(&self) -> f64 {
        self.obstacles
            .iter()
            .map(|o| o.top_height())
            .fold(0.0, f64::max)
    }

    /// Simple density metric: obstacle footprint area divided by map area.
    pub fn obstacle_density(&self) -> f64 {
        let map_area = self.bounds.size().x * self.bounds.size().y;
        if map_area <= 0.0 {
            return 0.0;
        }
        let footprint: f64 = self
            .obstacles
            .iter()
            .map(|o| {
                let bb = o.bounding_box();
                bb.size().x * bb.size().y
            })
            .sum();
        (footprint / map_area).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_map() -> WorldMap {
        WorldMap::empty("test", MapStyle::Suburban, 50.0)
            .with_obstacle(Obstacle::building(
                Vec3::new(20.0, 0.0, 0.0),
                10.0,
                10.0,
                15.0,
            ))
            .with_obstacle(Obstacle::tree(Vec3::new(-15.0, 5.0, 0.0), 5.0, 3.0))
            .with_marker(MarkerSite::target(3, Vec3::new(30.0, 10.0, 0.0), 1.5, 0.2))
            .with_marker(MarkerSite::decoy(7, Vec3::new(25.0, -8.0, 0.0), 1.5, 0.0))
    }

    #[test]
    fn target_and_decoys_are_distinguished() {
        let map = simple_map();
        assert_eq!(map.target_marker().unwrap().id, 3);
        assert_eq!(map.decoy_markers().count(), 1);
    }

    #[test]
    fn occupancy_includes_ground_and_bounds() {
        let map = simple_map();
        assert!(map.occupied(Vec3::new(0.0, 0.0, -1.0)), "below ground");
        assert!(map.occupied(Vec3::new(500.0, 0.0, 10.0)), "out of bounds");
        assert!(map.occupied(Vec3::new(20.0, 0.0, 5.0)), "inside building");
        assert!(!map.occupied(Vec3::new(0.0, 0.0, 10.0)), "free air");
    }

    #[test]
    fn clearance_reflects_nearest_surface() {
        let map = simple_map();
        let p = Vec3::new(0.0, 0.0, 3.0);
        // Ground is 3 m below; building face is 15 m away horizontally.
        assert!((map.clearance(p) - 3.0).abs() < 1e-9);
        assert!(map.has_clearance(p, 2.0));
        assert!(!map.has_clearance(p, 4.0));
    }

    #[test]
    fn segment_occupancy_detects_building_crossing() {
        let map = simple_map();
        let a = Vec3::new(0.0, 0.0, 5.0);
        let b = Vec3::new(40.0, 0.0, 5.0);
        assert!(map.segment_occupied(a, b, 0.25), "crosses the building");
        let c = Vec3::new(0.0, 0.0, 20.0);
        let d = Vec3::new(40.0, 0.0, 20.0);
        assert!(
            !map.segment_occupied(c, d, 0.25),
            "passes above the building"
        );
    }

    #[test]
    fn raycast_prefers_nearest_hit() {
        let map = simple_map();
        // Looking down from above the building: the roof is hit before the
        // ground.
        let ray = Ray::new(Vec3::new(20.0, 0.0, 40.0), Vec3::new(0.0, 0.0, -1.0));
        let hit = map.raycast(&ray, 100.0).unwrap();
        assert!((hit.distance - 25.0).abs() < 1e-6, "roof at z=15");
        // Looking down over open ground: hit the ground plane.
        let ray = Ray::new(Vec3::new(0.0, -20.0, 40.0), Vec3::new(0.0, 0.0, -1.0));
        let hit = map.raycast(&ray, 100.0).unwrap();
        assert!((hit.distance - 40.0).abs() < 1e-6);
        assert!(!hit.porous);
    }

    #[test]
    fn raycast_range_limit_is_respected() {
        let map = simple_map();
        let ray = Ray::new(Vec3::new(0.0, -20.0, 40.0), Vec3::new(0.0, 0.0, -1.0));
        assert!(map.raycast(&ray, 10.0).is_none());
    }

    #[test]
    fn density_and_height_metrics() {
        let map = simple_map();
        assert!(map.obstacle_density() > 0.0);
        assert!(map.obstacle_density() < 0.2);
        assert!((map.max_obstacle_height() - 15.0).abs() < 1e-9);
        let empty = WorldMap::empty("empty", MapStyle::Rural, 10.0);
        assert_eq!(empty.obstacle_density(), 0.0);
        assert_eq!(empty.max_obstacle_height(), 0.0);
    }

    #[test]
    fn style_labels_are_stable() {
        assert_eq!(MapStyle::Rural.label(), "rural");
        assert_eq!(MapStyle::Urban.label(), "urban");
        assert_eq!(MapStyle::ALL.len(), 3);
    }
}
