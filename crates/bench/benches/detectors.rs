//! Criterion micro-benchmarks of the two marker-detection pipelines.
//!
//! Establishes the relative inference cost of the classical (OpenCV-style)
//! pipeline versus the learned (TPH-YOLO surrogate) pipeline, which is the
//! exchange rate the compute model uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mls_geom::{Attitude, Pose, Vec2, Vec3};
use mls_vision::{
    Camera, ClassicalDetector, DegradationConfig, GroundScene, ImageDegrader, LearnedDetector,
    LightingCondition, MarkerDetector, MarkerDictionary, MarkerPlacement, MarkerRenderer,
    RendererConfig, WeatherKind,
};

fn rendered_frame(altitude: f64, degraded: bool) -> mls_vision::GrayImage {
    let dictionary = MarkerDictionary::standard();
    let renderer = MarkerRenderer::new(dictionary);
    let scene =
        GroundScene::new().with_marker(MarkerPlacement::new(7, Vec2::new(0.5, -0.3), 1.5, 0.4));
    let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, altitude), 0.1);
    let frame = renderer.render(&Camera::downward(), &pose, &scene);
    if degraded {
        let config =
            DegradationConfig::for_conditions(WeatherKind::Fog, LightingCondition::LowLight);
        ImageDegrader::new(config, 5).apply(&frame)
    } else {
        frame
    }
}

fn bench_detectors(c: &mut Criterion) {
    let dictionary = MarkerDictionary::standard();
    let classical = ClassicalDetector::new(dictionary.clone());
    let learned = LearnedDetector::new(dictionary);
    let mut group = c.benchmark_group("marker_detection");
    for (label, degraded) in [("clear", false), ("fog_lowlight", true)] {
        let frame = rendered_frame(9.0, degraded);
        group.bench_with_input(BenchmarkId::new("classical", label), &frame, |b, frame| {
            b.iter(|| classical.detect(std::hint::black_box(frame)))
        });
        group.bench_with_input(BenchmarkId::new("learned", label), &frame, |b, frame| {
            b.iter(|| learned.detect(std::hint::black_box(frame)))
        });
    }
    group.finish();
}

fn bench_rendering(c: &mut Criterion) {
    let dictionary = MarkerDictionary::standard();
    let renderer = MarkerRenderer::new(dictionary.clone());
    let scene = GroundScene::new().with_marker(MarkerPlacement::new(3, Vec2::ZERO, 1.5, 0.0));
    let camera = Camera::downward();
    let pose = Pose::from_position_yaw(Vec3::new(0.0, 0.0, 10.0), 0.0);
    c.bench_function("camera_render_160x120", |b| {
        b.iter(|| renderer.render(&camera, std::hint::black_box(&pose), &scene))
    });

    // What a mission frame costs: the vehicle camera renders at
    // supersampling 1 (`RgbCameraConfig::default()`), from a tilted airframe,
    // over a target and decoys, one of them with an id outside the
    // dictionary.
    let mission_renderer = MarkerRenderer::with_config(
        dictionary,
        RendererConfig {
            supersampling: 1,
            ..RendererConfig::default()
        },
    );
    let mission_scene = GroundScene::new()
        .with_marker(MarkerPlacement::new(7, Vec2::new(0.5, -0.3), 1.5, 0.4))
        .with_marker(MarkerPlacement::new(12, Vec2::new(-2.5, 1.8), 1.5, 2.0))
        .with_marker(MarkerPlacement::new(900, Vec2::new(2.2, 2.4), 1.0, 1.1));
    let tilted = Pose::new(Vec3::new(0.3, -0.2, 9.0), Attitude::new(0.08, -0.05, 0.6));
    c.bench_function("camera_render_160x120_mission", |b| {
        b.iter(|| mission_renderer.render(&camera, std::hint::black_box(&tilted), &mission_scene))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_detectors, bench_rendering
}
criterion_main!(benches);
