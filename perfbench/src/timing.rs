//! Outside-in layer timing of one mission.
//!
//! The mission executor calls its [`FaultHook`] and [`TraceSink`] at every
//! module boundary of its loop. A benchmark-owned hook that injects nothing
//! and a sink that records nothing are attached side by side; both stamp
//! the same [`LayerClock`], and the interval between two consecutive
//! callbacks is charged to the layer the executor runs between them:
//!
//! | interval                                   | layer                    |
//! |--------------------------------------------|--------------------------|
//! | `tick` → `on_tick`                         | vehicle step             |
//! | `on_tick` → `pre_mapping`                  | depth capture            |
//! | `pre_mapping` → `on_mapping`               | map integration          |
//! | last callback → `pre_detection`            | image capture            |
//! | `pre_detection` → `on_observations`        | marker detection         |
//! | last callback → `on_directive`             | decision                 |
//! | `pre_planning` → `on_plan_result`          | path planning            |
//!
//! The takeoff climb the executor flies before its first tick is charged to
//! the vehicle step as well. Everything else (assembling the executor,
//! trajectory following between ticks, bookkeeping) falls into `other`.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mls_core::{Directive, FaultHook, MissionResult, ObservationStage, TickFaults, TraceSink};
use mls_geom::Vec3;
use mls_sim_uav::{PointCloud, VehicleState};
use mls_vision::{GrayImage, MarkerObservation};

use crate::clock;

/// The layers a mission's wall time is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Step,
    CaptureDepth,
    Integrate,
    CaptureImage,
    Detect,
    Decision,
    Plan,
    Other,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Step,
        Layer::CaptureDepth,
        Layer::Integrate,
        Layer::CaptureImage,
        Layer::Detect,
        Layer::Decision,
        Layer::Plan,
        Layer::Other,
    ];

    /// Stable label used in the spans file.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Step => "sim_uav.step",
            Layer::CaptureDepth => "sim_uav.capture_depth",
            Layer::Integrate => "mapping.integrate",
            Layer::CaptureImage => "sim_uav.capture_image",
            Layer::Detect => "mls_core.detect",
            Layer::Decision => "mls_core.decision",
            Layer::Plan => "planning.plan",
            Layer::Other => "mls_core.loop_other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Seconds per layer plus the work counters seen at the same boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub seconds: [f64; Layer::ALL.len()],
    pub ticks: u64,
    pub depth_captures: u64,
    pub integrations: u64,
    pub points_inserted: u64,
    pub frames: u64,
    pub observations: u64,
    pub decisions: u64,
    pub plan_queries: u64,
    pub plan_iterations: u64,
    pub plans_failed: u64,
    pub plan_fallbacks: u64,
}

impl LayerTotals {
    pub fn get(&self, layer: Layer) -> f64 {
        self.seconds[layer.index()]
    }

    pub fn add(&mut self, other: &LayerTotals) {
        for (mine, theirs) in self.seconds.iter_mut().zip(other.seconds) {
            *mine += theirs;
        }
        self.ticks += other.ticks;
        self.depth_captures += other.depth_captures;
        self.integrations += other.integrations;
        self.points_inserted += other.points_inserted;
        self.frames += other.frames;
        self.observations += other.observations;
        self.decisions += other.decisions;
        self.plan_queries += other.plan_queries;
        self.plan_iterations += other.plan_iterations;
        self.plans_failed += other.plans_failed;
        self.plan_fallbacks += other.plan_fallbacks;
    }
}

/// The clock one mission's hook and sink share.
#[derive(Debug)]
pub struct LayerClock {
    /// When the previous callback returned control to the executor.
    last: Instant,
    /// Whether the first tick was seen (the interval before it is the
    /// takeoff climb).
    ticking: bool,
    totals: LayerTotals,
}

impl LayerClock {
    /// A clock whose first interval starts now (just before the executor
    /// is assembled).
    pub fn start() -> Arc<Mutex<LayerClock>> {
        Arc::new(Mutex::new(LayerClock {
            last: clock::now(),
            ticking: false,
            totals: LayerTotals::default(),
        }))
    }

    /// Charges the interval since the previous callback to `layer` and
    /// starts the next one.
    fn charge(&mut self, layer: Layer) {
        let now = clock::now();
        self.totals.seconds[layer.index()] += now.duration_since(self.last).as_secs_f64();
        self.last = now;
    }

    /// Charges executor assembly to `other`; called right before the
    /// mission runs.
    pub fn assembled(&mut self) {
        self.charge(Layer::Other);
    }

    /// Charges the remaining interval (the mission's tail) to `other` and
    /// returns the totals.
    pub fn finish(&mut self) -> LayerTotals {
        self.charge(Layer::Other);
        self.totals
    }
}

fn lock(clock: &Mutex<LayerClock>) -> MutexGuard<'_, LayerClock> {
    clock
        .lock()
        .expect("a mission's layer clock is only shared by its own hook and sink")
}

/// The timing fault hook: stamps the clock and injects nothing.
pub struct TimingHook(pub Arc<Mutex<LayerClock>>);

impl FaultHook for TimingHook {
    fn tick(&mut self, _time: f64) -> TickFaults {
        let mut clock = lock(&self.0);
        let layer = if clock.ticking {
            Layer::Other
        } else {
            Layer::Step
        };
        clock.ticking = true;
        clock.charge(layer);
        TickFaults::NONE
    }

    fn pre_mapping(&mut self, _time: f64, _cloud: &mut PointCloud) {
        let mut clock = lock(&self.0);
        clock.charge(Layer::CaptureDepth);
        clock.totals.depth_captures += 1;
    }

    fn pre_detection(&mut self, _time: f64, _image: &mut GrayImage) {
        let mut clock = lock(&self.0);
        clock.charge(Layer::CaptureImage);
        clock.totals.frames += 1;
    }

    fn pre_planning(&mut self, _time: f64) -> f64 {
        lock(&self.0).charge(Layer::Other);
        1.0
    }
}

/// The timing trace sink: stamps the clock and counts work.
pub struct TimingSink(pub Arc<Mutex<LayerClock>>);

impl TraceSink for TimingSink {
    fn on_fault(&mut self, _time: f64, _faults: &TickFaults) {
        lock(&self.0).charge(Layer::Other);
    }

    fn on_tick(
        &mut self,
        _time: f64,
        _state: &VehicleState,
        _estimated: Vec3,
        _gps_drift: f64,
        _estimation_error: f64,
    ) {
        let mut clock = lock(&self.0);
        clock.charge(Layer::Step);
        clock.totals.ticks += 1;
    }

    fn on_mapping(&mut self, _time: f64, inserted: usize, _dropped: usize, _displaced: usize) {
        let mut clock = lock(&self.0);
        clock.charge(Layer::Integrate);
        clock.totals.integrations += 1;
        clock.totals.points_inserted += inserted as u64;
    }

    fn on_observations(
        &mut self,
        _time: f64,
        stage: ObservationStage,
        observations: &[MarkerObservation],
    ) {
        let mut clock = lock(&self.0);
        match stage {
            ObservationStage::PreFault => {
                clock.charge(Layer::Detect);
                clock.totals.observations += observations.len() as u64;
            }
            // Only the hook's no-op `post_detection` ran since the
            // pre-fault stamp.
            ObservationStage::PostFault => clock.charge(Layer::Other),
        }
    }

    fn on_directive(&mut self, _time: f64, _directive: &Directive) {
        let mut clock = lock(&self.0);
        clock.charge(Layer::Decision);
        clock.totals.decisions += 1;
    }

    fn on_plan_request(&mut self, _time: f64, _start: Vec3, _goal: Vec3) {
        lock(&self.0).charge(Layer::Other);
    }

    fn on_plan_result(
        &mut self,
        _time: f64,
        success: bool,
        fallback: bool,
        _latency: f64,
        iterations: usize,
    ) {
        let mut clock = lock(&self.0);
        clock.charge(Layer::Plan);
        clock.totals.plan_queries += 1;
        clock.totals.plan_iterations += iterations as u64;
        clock.totals.plans_failed += u64::from(!success);
        clock.totals.plan_fallbacks += u64::from(fallback);
    }

    fn on_mission_end(&mut self, _time: f64, _result: MissionResult) {
        lock(&self.0).charge(Layer::Other);
    }
}
