//! Downward-facing RGB (here: grayscale) camera bridge.
//!
//! Renders what the marker-detection camera would see by converting the
//! world's marker sites into a `mls_vision` ground scene, rendering it from
//! the vehicle's true pose, and degrading the frame according to the weather
//! and the vehicle's motion. This is the substitute for the D435i colour
//! stream the paper feeds to OpenCV / TPH-YOLO.

use mls_geom::Pose;
use mls_sim_world::{Weather, WorldMap};
use mls_vision::{
    Camera, DegradationConfig, GrayImage, GroundScene, ImageDegrader, MarkerDictionary,
    MarkerPlacement, MarkerRenderer, RendererConfig,
};
use serde::{Deserialize, Serialize};

/// RGB camera configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RgbCameraConfig {
    /// Apply weather/motion degradation to the rendered frames.
    pub degrade: bool,
    /// Motion blur in pixels per metre-per-second of ground speed.
    pub motion_blur_per_mps: f64,
    /// Only markers within this many metres (horizontally) of the vehicle are
    /// added to the rendered scene (cheap culling).
    pub render_radius: f64,
    /// Per-axis supersampling of the renderer (1 keeps mission rendering
    /// cheap; 2 is the renderer's own anti-aliased default).
    pub supersampling: u8,
}

impl Default for RgbCameraConfig {
    fn default() -> Self {
        Self {
            degrade: true,
            motion_blur_per_mps: 0.6,
            render_radius: 40.0,
            supersampling: 1,
        }
    }
}

/// Stateful camera bridge.
#[derive(Debug, Clone)]
pub struct RgbCamera {
    config: RgbCameraConfig,
    camera: Camera,
    renderer: MarkerRenderer,
    seed: u64,
    frame_index: u64,
}

impl RgbCamera {
    /// Creates a camera bridge rendering markers from `dictionary`.
    pub fn new(dictionary: MarkerDictionary, config: RgbCameraConfig, seed: u64) -> Self {
        let renderer_config = RendererConfig {
            supersampling: config.supersampling.max(1),
            ..RendererConfig::default()
        };
        Self {
            config,
            camera: Camera::downward(),
            renderer: MarkerRenderer::with_config(dictionary, renderer_config),
            seed,
            frame_index: 0,
        }
    }

    /// The pinhole camera model used for projection and for lifting
    /// detections back into the world.
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// The configuration.
    pub fn config(&self) -> &RgbCameraConfig {
        &self.config
    }

    /// Captures one frame from the vehicle's true pose.
    pub fn capture(
        &mut self,
        world: &WorldMap,
        weather: &Weather,
        true_pose: &Pose,
        ground_speed: f64,
    ) -> GrayImage {
        let mut scene = GroundScene::new();
        for marker in &world.markers {
            if marker.position.horizontal_distance(true_pose.position) <= self.config.render_radius
            {
                scene = scene.with_marker(MarkerPlacement::new(
                    marker.id,
                    marker.position.xy(),
                    marker.size,
                    marker.yaw,
                ));
            }
        }
        let frame = self.renderer.render(&self.camera, true_pose, &scene);
        self.frame_index += 1;
        if !self.config.degrade {
            return frame;
        }
        let degradation = DegradationConfig::from_intensities(
            weather.fog,
            weather.rain,
            weather.glare,
            weather.low_light,
            ground_speed * self.config.motion_blur_per_mps,
        );
        ImageDegrader::new(degradation, self.seed.wrapping_add(self.frame_index)).apply(&frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mls_geom::Vec3;
    use mls_sim_world::{MapStyle, MarkerSite};
    use mls_vision::{ClassicalDetector, MarkerDetector};

    fn world_with_marker() -> WorldMap {
        WorldMap::empty("t", MapStyle::Rural, 60.0).with_marker(MarkerSite::target(
            4,
            Vec3::new(0.0, 0.0, 0.0),
            1.5,
            0.1,
        ))
    }

    #[test]
    fn rendered_marker_is_detectable_in_clear_weather() {
        let dict = MarkerDictionary::standard();
        let mut cam = RgbCamera::new(dict.clone(), RgbCameraConfig::default(), 1);
        let world = world_with_marker();
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 8.0), 0.0);
        let frame = cam.capture(&world, &Weather::clear(), &pose, 0.0);
        let detections = ClassicalDetector::new(dict).detect(&frame);
        assert!(detections.iter().any(|d| d.id == 4));
    }

    #[test]
    fn distant_markers_are_culled() {
        let dict = MarkerDictionary::standard();
        let cfg = RgbCameraConfig {
            render_radius: 5.0,
            degrade: false,
            ..RgbCameraConfig::default()
        };
        let mut cam = RgbCamera::new(dict, cfg, 1);
        let world = WorldMap::empty("t", MapStyle::Rural, 200.0).with_marker(MarkerSite::target(
            4,
            Vec3::new(100.0, 0.0, 0.0),
            1.5,
            0.0,
        ));
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 8.0), 0.0);
        let frame = cam.capture(&world, &Weather::clear(), &pose, 0.0);
        // Frame is pure ground texture; its contrast is low.
        let (min, max) = frame.min_max();
        assert!(max - min < 0.4);
    }

    #[test]
    fn adverse_weather_degrades_the_frame() {
        let dict = MarkerDictionary::standard();
        let world = world_with_marker();
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 8.0), 0.0);
        let mut clear_cam = RgbCamera::new(dict.clone(), RgbCameraConfig::default(), 1);
        let mut foggy_cam = RgbCamera::new(dict, RgbCameraConfig::default(), 1);
        let clear = clear_cam.capture(&world, &Weather::clear(), &pose, 0.0);
        let foggy = foggy_cam.capture(&world, &Weather::fog(), &pose, 0.0);
        let (cmin, cmax) = clear.min_max();
        let (fmin, fmax) = foggy.min_max();
        assert!(fmax - fmin < cmax - cmin, "fog must compress contrast");
    }

    #[test]
    fn frames_differ_between_captures_due_to_noise() {
        let dict = MarkerDictionary::standard();
        let mut cam = RgbCamera::new(dict, RgbCameraConfig::default(), 9);
        let world = world_with_marker();
        let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 8.0), 0.0);
        let a = cam.capture(&world, &Weather::clear(), &pose, 0.0);
        let b = cam.capture(&world, &Weather::clear(), &pose, 0.0);
        assert_ne!(a.data(), b.data());
    }
}
