//! The vision kernel probe: image capture and detection, frame by frame.
//!
//! Inside a mission, rendering and degradation happen together in the
//! vehicle's image capture, and the traced pass can only time them as one
//! layer. The probe calls the kernels directly on a fixed sweep of
//! weather × lighting × altitude × occlusion frames, so render, degrade and
//! the two detectors each get their own number. The sweep's axes never
//! change; only the per-frame details (which marker, where, at what yaw,
//! the degrader's noise seed) are drawn from the workload seed, so vision
//! numbers from different versions compare like with like.

use mls_geom::{Pose, Vec2, Vec3};
use mls_vision::{
    Camera, ClassicalDetector, DegradationConfig, GroundScene, ImageDegrader, LearnedDetector,
    LightingCondition, MarkerDetector, MarkerDictionary, MarkerPlacement, MarkerRenderer,
    WeatherKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock;
use crate::Metrics;

/// Altitudes of the sweep, metres: final descent, validation, cruise.
const ALTITUDES: [f64; 3] = [4.0, 8.0, 12.0];

/// Kernel totals over the sweep.
#[derive(Debug, Default)]
pub struct KernelProbe {
    pub frames: usize,
    pub render_s: f64,
    pub degrade_s: f64,
    pub learned_s: f64,
    pub classical_s: f64,
    pub detections: usize,
    /// Rays one frame casts: pixels × supersampling², from the renderer
    /// configuration (computed, not measured).
    pub rays_per_frame: f64,
}

/// Runs the sweep; the frame details derive from `seed`.
pub fn run(seed: u64) -> KernelProbe {
    let dictionary = MarkerDictionary::standard();
    let renderer = MarkerRenderer::new(dictionary.clone());
    let learned = LearnedDetector::new(dictionary.clone());
    let classical = ClassicalDetector::new(dictionary.clone());
    let camera = Camera::downward();
    let supersampling = renderer.config().supersampling.max(1) as f64;
    let mut probe = KernelProbe {
        rays_per_frame: (camera.intrinsics.width * camera.intrinsics.height) as f64
            * supersampling
            * supersampling,
        ..KernelProbe::default()
    };
    // The patch laid over the marker when the occlusion axis is on, in
    // normalized image coordinates (the marker sits near the image centre).
    // Its type is not exported, so it starts from the harsh-shadow band.
    let mut marker_occlusion =
        DegradationConfig::for_conditions(WeatherKind::Clear, LightingCondition::HarshShadows)
            .occlusion
            .expect("harsh shadows lay an occlusion patch");
    marker_occlusion.min = Vec2::new(0.42, 0.40);
    marker_occlusion.max = Vec2::new(0.58, 0.52);
    marker_occlusion.luminance = 0.1;
    marker_occlusion.opacity = 0.85;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e_656c);
    for weather in WeatherKind::ALL {
        for lighting in LightingCondition::ALL {
            for altitude in ALTITUDES {
                for occluded in [false, true] {
                    let id = rng.random_range(0..dictionary.len() as u32);
                    let center =
                        Vec2::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0));
                    let yaw = rng.random_range(0.0..std::f64::consts::TAU);
                    let scene =
                        GroundScene::new().with_marker(MarkerPlacement::new(id, center, 1.5, yaw));
                    let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, altitude), 0.0);
                    let mut config = DegradationConfig::for_conditions(weather, lighting);
                    if occluded {
                        config.occlusion = Some(marker_occlusion);
                    }
                    let mut degrader = ImageDegrader::new(config, rng.random::<u64>());

                    let start = clock::now();
                    let frame = renderer.render(&camera, &pose, &scene);
                    probe.render_s += clock::since(start);
                    let start = clock::now();
                    let frame = degrader.apply(std::hint::black_box(&frame));
                    probe.degrade_s += clock::since(start);
                    let start = clock::now();
                    let found = learned.detect(std::hint::black_box(&frame));
                    probe.learned_s += clock::since(start);
                    probe.detections += found.len();
                    let start = clock::now();
                    let found = classical.detect(std::hint::black_box(&frame));
                    probe.classical_s += clock::since(start);
                    probe.detections += found.len();
                    probe.frames += 1;
                }
            }
        }
    }
    probe
}

impl KernelProbe {
    pub fn push_metrics(&self, metrics: &mut Metrics) {
        let per_frame_ms = |seconds: f64| 1e3 * seconds / self.frames.max(1) as f64;
        metrics.push("vision.frames", self.frames as f64, "count");
        metrics.push(
            "vision.render_ms_per_frame",
            per_frame_ms(self.render_s),
            "ms",
        );
        metrics.push(
            "vision.degrade_ms_per_frame",
            per_frame_ms(self.degrade_s),
            "ms",
        );
        metrics.push("vision.rays_per_frame", self.rays_per_frame, "count");
        metrics.push(
            "vision.learned_detect_ms_per_frame",
            per_frame_ms(self.learned_s),
            "ms",
        );
        metrics.push(
            "vision.classical_detect_ms_per_frame",
            per_frame_ms(self.classical_s),
            "ms",
        );
        // Both detectors run on every frame; this is their mean yield.
        metrics.push(
            "vision.detections_per_frame",
            self.detections as f64 / (2 * self.frames.max(1)) as f64,
            "count",
        );
    }
}
