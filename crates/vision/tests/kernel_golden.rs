//! Golden bit-identity test for the vision kernels.
//!
//! A fixed sweep of frames runs through every kernel a mission pays for:
//! `MarkerRenderer::render` (supersampling 1 and 2; level, tilted and
//! horizon-crossing attitudes; a target, a decoy with an unknown id, a
//! marker partly off-frame and a shadow), `ImageDegrader::apply` over every
//! `WeatherKind` × `LightingCondition` plus a continuous-intensity config
//! with motion blur, the learned detector's `score_candidates` and the
//! classical detector's `detect`. Every float is hashed through `to_bits`,
//! so a kernel rewrite that changes a single bit of any frame, score or
//! corner fails here, naming the case that moved.
//!
//! The fixture was generated before the kernels were optimised, and an
//! exact optimisation must leave it untouched. If a kernel *deliberately*
//! changes its output, regenerate the fixture with:
//!
//! ```sh
//! MLS_BLESS=1 cargo test -p mls-vision --test kernel_golden
//! ```
//!
//! and review the fixture diff like any other behavioural change.

use std::fs;
use std::path::PathBuf;

use mls_geom::{Attitude, Pose, Vec2, Vec3};
use mls_vision::{
    Camera, ClassicalDetector, DegradationConfig, GrayImage, GroundScene, ImageDegrader,
    LearnedDetector, LightingCondition, MarkerDetector, MarkerDictionary, MarkerPlacement,
    MarkerRenderer, RendererConfig, ShadowDisc, WeatherKind,
};

/// FNV-1a over the bit patterns of everything fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    fn vec2(&mut self, value: Vec2) -> &mut Self {
        self.f64(value.x).f64(value.y)
    }

    fn image(&mut self, image: &GrayImage) -> &mut Self {
        self.u64(image.width() as u64).u64(image.height() as u64);
        for &v in image.data() {
            self.u64(u64::from(v.to_bits()));
        }
        self
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A target, a decoy whose id is not in the dictionary, a marker lying
/// across the frame edge and a shadow over the decoy's edge.
fn scene() -> GroundScene {
    GroundScene::new()
        .with_marker(MarkerPlacement::new(7, Vec2::new(0.3, -0.2), 1.5, 0.4))
        .with_marker(MarkerPlacement::new(9999, Vec2::new(-1.8, 2.2), 1.0, 1.1))
        .with_marker(MarkerPlacement::new(21, Vec2::new(3.9, -0.6), 1.5, 2.3))
        .with_shadow(ShadowDisc {
            center: Vec2::new(-1.5, 1.3),
            radius: 0.8,
            darkness: 0.6,
        })
}

fn poses() -> [(&'static str, Pose); 4] {
    [
        (
            "level",
            Pose::from_position_yaw(Vec3::new(0.0, 0.0, 8.0), 0.1),
        ),
        (
            "tilted",
            Pose::new(Vec3::new(0.4, -0.3, 7.0), Attitude::new(0.12, -0.08, 0.9)),
        ),
        (
            "low",
            Pose::new(Vec3::new(0.2, 0.1, 4.5), Attitude::new(-0.05, 0.06, -2.4)),
        ),
        (
            "horizon",
            Pose::new(Vec3::new(0.0, 0.0, 6.0), Attitude::new(1.2, 0.0, 0.3)),
        ),
    ]
}

/// One `<kernel> <case> <digest>` line per case of the sweep.
fn golden_lines() -> Vec<String> {
    let dictionary = MarkerDictionary::standard();
    let camera = Camera::downward();
    let scene = scene();
    let learned = LearnedDetector::new(dictionary.clone());
    let classical = ClassicalDetector::new(dictionary.clone());
    let mut lines = Vec::new();

    let mut frames: Vec<(String, GrayImage)> = Vec::new();
    for supersampling in [1u8, 2] {
        let renderer = MarkerRenderer::with_config(
            dictionary.clone(),
            RendererConfig {
                supersampling,
                ..RendererConfig::default()
            },
        );
        for (label, pose) in poses() {
            let case = format!("ss{supersampling}-{label}");
            let frame = renderer.render(&camera, &pose, &scene);
            lines.push(format!(
                "render {case} {}",
                Digest::new().image(&frame).hex()
            ));
            frames.push((case, frame));
        }
    }

    let base = frames[0].1.clone();
    let mut configs: Vec<(String, DegradationConfig)> = Vec::new();
    for weather in WeatherKind::ALL {
        for lighting in LightingCondition::ALL {
            configs.push((
                format!("{weather:?}-{lighting:?}"),
                DegradationConfig::for_conditions(weather, lighting),
            ));
        }
    }
    configs.push((
        "intensities-blur-glare".to_string(),
        DegradationConfig::from_intensities(0.3, 0.6, 0.8, 0.4, 3.5),
    ));
    for (seed, (case, config)) in configs.into_iter().enumerate() {
        let degraded = ImageDegrader::new(config, 100 + seed as u64).apply(&base);
        lines.push(format!(
            "degrade {case} {}",
            Digest::new().image(&degraded).hex()
        ));
        frames.push((case, degraded));
    }

    for (case, frame) in &frames {
        let mut digest = Digest::new();
        let candidates = learned.score_candidates(frame);
        digest.u64(candidates.len() as u64);
        for c in &candidates {
            digest.u64(u64::from(c.id)).f64(c.score).f64(c.margin);
            digest.vec2(c.center);
            for corner in c.corners {
                digest.vec2(corner);
            }
        }
        lines.push(format!(
            "learned {case} {} candidates {}",
            candidates.len(),
            digest.hex()
        ));
    }

    for (case, frame) in &frames {
        let mut digest = Digest::new();
        let detections = classical.detect(frame);
        digest.u64(detections.len() as u64);
        for d in &detections {
            digest.u64(u64::from(d.id)).f64(d.confidence);
            digest.vec2(d.center).f64(d.apparent_size);
            for corner in d.corners {
                digest.vec2(corner);
            }
            digest.f64(d.orientation.unwrap_or(f64::NAN));
        }
        lines.push(format!(
            "classical {case} {} detections {}",
            detections.len(),
            digest.hex()
        ));
    }
    lines
}

#[test]
fn vision_kernels_match_the_committed_digests() {
    let text = golden_lines().join("\n") + "\n";
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/kernel_golden.txt");
    if std::env::var("MLS_BLESS").as_deref() == Ok("1") {
        fs::create_dir_all(fixture.parent().unwrap()).expect("create fixtures dir");
        fs::write(&fixture, &text).expect("bless fixture");
        eprintln!("blessed {}", fixture.display());
        return;
    }
    let expected = fs::read_to_string(&fixture).unwrap_or_else(|err| {
        panic!(
            "missing fixture {} ({err}); regenerate with MLS_BLESS=1",
            fixture.display()
        )
    });
    let moved: Vec<String> = text
        .lines()
        .zip(expected.lines())
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  got  {got}\n  want {want}"))
        .collect();
    assert!(
        moved.is_empty() && text == expected,
        "vision kernel output diverged from the committed digests:\n{}\n\
         if the change is deliberate, regenerate with MLS_BLESS=1 and review the diff",
        moved.join("\n")
    );
}

#[test]
fn the_sweep_reaches_every_path_it_pins() {
    // The fixture only protects what the sweep exercises: the detectors must
    // find the target, the horizon frame must see sky and ground, and the
    // edge marker must put dark pixels on the frame border.
    let dictionary = MarkerDictionary::standard();
    let camera = Camera::downward();
    let renderer = MarkerRenderer::new(dictionary.clone());
    let [level, _, _, horizon] = poses();
    let frame = renderer.render(&camera, &level.1, &scene());
    assert!(ClassicalDetector::new(dictionary.clone())
        .detect(&frame)
        .iter()
        .any(|d| d.id == 7));
    let candidates = LearnedDetector::new(dictionary).score_candidates(&frame);
    assert!(candidates.iter().any(|c| c.id == 7));
    let border_dark = (0..frame.width())
        .flat_map(|x| [frame.get(x, 0), frame.get(x, frame.height() - 1)])
        .chain((0..frame.height()).flat_map(|y| [frame.get(0, y), frame.get(frame.width() - 1, y)]))
        .any(|v| v < 0.2);
    assert!(border_dark, "the edge marker must cross the frame border");
    let sky = renderer.config().sky_luminance;
    let horizon_frame = renderer.render(&camera, &horizon.1, &scene());
    let sky_pixels = horizon_frame
        .data()
        .iter()
        .filter(|&&v| (v - sky).abs() < 1e-6)
        .count();
    assert!(sky_pixels > 0 && sky_pixels < horizon_frame.data().len());
}
