//! Compute-platform model: turns per-module workloads into latencies and
//! resource-utilisation traces.
//!
//! The paper runs the same software on three platforms: a desktop for
//! Software-in-the-Loop, an NVIDIA Jetson Nano (4 GB, MAXN power mode,
//! TensorRT-optimised detector) for Hardware-in-the-Loop, and the same Jetson
//! on the real vehicle where the live camera pipeline adds further load. The
//! observed consequences are latency — "trajectories failed to create in time
//! when the drone was heading towards a newly discovered obstacle" — and
//! near-saturated CPU/memory (≈2.2 GB of 2.9 GB usable, all four cores busy,
//! Fig. 7).
//!
//! [`ComputeModel`] reproduces those consequences without real hardware: each
//! landing-system module submits its work in *reference CPU-seconds* (the
//! cost on the SIL desktop), the model scales it by the platform's speed,
//! inflates it under CPU contention and memory pressure, and records a
//! utilisation trace that the Fig. 7 harness replays.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Errors produced by the compute model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ComputeError {
    /// A profile parameter was out of range.
    InvalidProfile {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for ComputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeError::InvalidProfile { reason } => {
                write!(f, "invalid compute profile: {reason}")
            }
        }
    }
}

impl Error for ComputeError {}

/// The software modules that consume compute (Fig. 1's software architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Marker detection inference (OpenCV or TPH-YOLO surrogate).
    MarkerDetection,
    /// Point-cloud insertion / occupancy-map maintenance.
    Mapping,
    /// Path planning (A* or RRT*).
    PathPlanning,
    /// Decision-making state machine.
    DecisionMaking,
    /// State estimation (EKF) and sensor drivers.
    StateEstimation,
    /// Camera acquisition/encoding pipeline (significant only on the real
    /// vehicle, where frames are captured and shipped live).
    CameraPipeline,
}

impl TaskKind {
    /// All task kinds, in a stable reporting order.
    pub const ALL: [TaskKind; 6] = [
        TaskKind::MarkerDetection,
        TaskKind::Mapping,
        TaskKind::PathPlanning,
        TaskKind::DecisionMaking,
        TaskKind::StateEstimation,
        TaskKind::CameraPipeline,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::MarkerDetection => "detection",
            TaskKind::Mapping => "mapping",
            TaskKind::PathPlanning => "planning",
            TaskKind::DecisionMaking => "decision",
            TaskKind::StateEstimation => "estimation",
            TaskKind::CameraPipeline => "camera",
        }
    }

    /// `true` for workloads that can be offloaded to the GPU / TensorRT.
    pub fn gpu_accelerated(self) -> bool {
        matches!(self, TaskKind::MarkerDetection)
    }
}

/// A compute platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeProfile {
    /// Human-readable name.
    pub name: String,
    /// Number of CPU cores.
    pub cpu_cores: f64,
    /// Per-core speed relative to the SIL desktop (1.0 = desktop).
    pub core_speed: f64,
    /// Memory available to the landing system, MiB.
    pub available_memory_mb: f64,
    /// Speed-up factor applied to GPU-accelerated tasks (TensorRT on the
    /// Jetson; 1.0 when inference runs on the CPU).
    pub gpu_speedup: f64,
    /// Fraction of CPU permanently consumed by platform overhead (OS, camera
    /// drivers, telemetry).
    pub background_cpu: f64,
    /// Memory permanently consumed by platform overhead, MiB.
    pub background_memory_mb: f64,
}

impl ComputeProfile {
    /// The SIL desktop: everything is effectively free.
    pub fn desktop_sil() -> Self {
        Self {
            name: "desktop-sil".to_string(),
            cpu_cores: 16.0,
            core_speed: 1.0,
            available_memory_mb: 32_768.0,
            gpu_speedup: 4.0,
            background_cpu: 0.02,
            background_memory_mb: 1_500.0,
        }
    }

    /// Jetson Nano (4 GB, MAXN) as used in the HIL campaign: four slow cores,
    /// ~2.9 GiB usable after the OS, TensorRT acceleration for the detector.
    pub fn jetson_nano_maxn() -> Self {
        Self {
            name: "jetson-nano-maxn".to_string(),
            cpu_cores: 4.0,
            core_speed: 0.28,
            available_memory_mb: 2_900.0,
            gpu_speedup: 6.0,
            background_cpu: 0.08,
            background_memory_mb: 550.0,
        }
    }

    /// The same Jetson Nano on the real vehicle, where the live camera
    /// pipeline and telemetry consume extra CPU and memory (§V-C, Fig. 7).
    pub fn jetson_nano_realworld() -> Self {
        Self {
            name: "jetson-nano-realworld".to_string(),
            background_cpu: 0.22,
            background_memory_mb: 900.0,
            ..Self::jetson_nano_maxn()
        }
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns [`ComputeError::InvalidProfile`] for non-positive cores,
    /// speed, or memory.
    pub fn validate(&self) -> Result<(), ComputeError> {
        if self.cpu_cores <= 0.0 || self.core_speed <= 0.0 {
            return Err(ComputeError::InvalidProfile {
                reason: "cores and core speed must be positive".to_string(),
            });
        }
        if self.available_memory_mb <= 0.0 {
            return Err(ComputeError::InvalidProfile {
                reason: "available memory must be positive".to_string(),
            });
        }
        if !(0.0..1.0).contains(&self.background_cpu) {
            return Err(ComputeError::InvalidProfile {
                reason: "background CPU must be in [0, 1)".to_string(),
            });
        }
        Ok(())
    }

    /// Total reference CPU-seconds the platform can execute per wall-clock
    /// second (excluding background load).
    pub fn capacity(&self) -> f64 {
        self.cpu_cores * self.core_speed * (1.0 - self.background_cpu)
    }
}

/// One point of the resource-utilisation trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceSample {
    /// Simulation time, seconds.
    pub time: f64,
    /// CPU utilisation in `[0, 1]` (1 = all cores busy).
    pub cpu: f64,
    /// Resident memory, MiB.
    pub memory_mb: f64,
    /// Worst task latency observed this tick, seconds.
    pub worst_latency: f64,
}

/// Result of submitting one task to the model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskOutcome {
    /// Wall-clock latency until the task's result is available, seconds.
    pub latency: f64,
    /// Reference CPU-seconds charged for the task.
    pub charged_cost: f64,
}

/// The compute model: submit work each tick, read latencies and the trace.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    profile: ComputeProfile,
    resident: HashMap<TaskKind, f64>,
    tick_submitted: f64,
    tick_worst_latency: f64,
    tick_dt: f64,
    trace: Vec<ResourceSample>,
    time: f64,
    throttle: f64,
}

impl ComputeModel {
    /// Creates a model for the given platform.
    ///
    /// # Errors
    ///
    /// Returns [`ComputeError::InvalidProfile`] when the profile is invalid.
    pub fn new(profile: ComputeProfile) -> Result<Self, ComputeError> {
        profile.validate()?;
        Ok(Self {
            profile,
            resident: HashMap::new(),
            tick_submitted: 0.0,
            tick_worst_latency: 0.0,
            tick_dt: 0.02,
            trace: Vec::new(),
            time: 0.0,
            throttle: 1.0,
        })
    }

    /// Sets the platform throttle factor (thermal / power capping): `1.0` is
    /// full speed, lower values scale down both per-core speed and total
    /// capacity. Clamped to `[0.05, 1.0]`.
    pub fn set_throttle(&mut self, throttle: f64) {
        self.throttle = throttle.clamp(0.05, 1.0);
    }

    /// The current throttle factor.
    pub fn throttle(&self) -> f64 {
        self.throttle
    }

    /// The platform profile.
    pub fn profile(&self) -> &ComputeProfile {
        &self.profile
    }

    /// Declares the resident memory of a module (model weights, map storage,
    /// image buffers), MiB.
    pub fn set_resident_memory(&mut self, task: TaskKind, megabytes: f64) {
        self.resident.insert(task, megabytes.max(0.0));
    }

    /// Total resident memory including platform overhead, MiB.
    pub fn memory_in_use(&self) -> f64 {
        self.profile.background_memory_mb + self.resident.values().sum::<f64>()
    }

    /// Fraction of available memory currently used.
    pub fn memory_pressure(&self) -> f64 {
        self.memory_in_use() / self.profile.available_memory_mb
    }

    /// Starts a new scheduling tick of length `dt` seconds.
    pub fn begin_tick(&mut self, dt: f64) {
        self.tick_dt = dt.max(1e-4);
        self.tick_submitted = 0.0;
        self.tick_worst_latency = 0.0;
    }

    /// Submits a task costing `reference_cost` CPU-seconds on the SIL desktop
    /// and returns its latency on this platform under the load submitted so
    /// far this tick.
    pub fn submit(&mut self, task: TaskKind, reference_cost: f64) -> TaskOutcome {
        let reference_cost = reference_cost.max(0.0);
        let gpu = if task.gpu_accelerated() {
            self.profile.gpu_speedup.max(1.0)
        } else {
            1.0
        };
        let effective_cost = reference_cost / gpu;
        self.tick_submitted += effective_cost;

        // Contention: when the work submitted this tick exceeds what the
        // platform can execute within the tick, every task slows down
        // proportionally.
        let capacity_per_tick = self.profile.capacity() * self.throttle * self.tick_dt;
        let contention = (self.tick_submitted / capacity_per_tick.max(1e-9)).max(1.0);

        // Memory pressure beyond 90 % causes additional thrashing latency.
        let pressure = self.memory_pressure();
        let memory_penalty = if pressure > 0.9 {
            1.0 + (pressure - 0.9) * 6.0
        } else {
            1.0
        };

        // A task runs on one core: base latency is its cost divided by the
        // (possibly throttled) per-core speed, inflated by contention and
        // memory pressure.
        let latency = (effective_cost / (self.profile.core_speed * self.throttle))
            * contention
            * memory_penalty;

        self.tick_worst_latency = self.tick_worst_latency.max(latency);
        TaskOutcome {
            latency,
            charged_cost: effective_cost,
        }
    }

    /// Ends the tick, recording a trace sample at `time` seconds.
    pub fn end_tick(&mut self, time: f64) -> ResourceSample {
        self.time = time;
        let capacity_per_tick = self.profile.capacity() * self.throttle * self.tick_dt;
        let busy = (self.tick_submitted / capacity_per_tick.max(1e-9)).min(1.0);
        let cpu =
            (self.profile.background_cpu + busy * (1.0 - self.profile.background_cpu)).min(1.0);
        let sample = ResourceSample {
            time,
            cpu,
            memory_mb: self.memory_in_use().min(self.profile.available_memory_mb),
            worst_latency: self.tick_worst_latency,
        };
        self.trace.push(sample.clone());
        sample
    }

    /// The recorded utilisation trace.
    pub fn trace(&self) -> &[ResourceSample] {
        &self.trace
    }

    /// Mean CPU utilisation over the recorded trace.
    pub fn average_cpu(&self) -> f64 {
        if self.trace.is_empty() {
            return 0.0;
        }
        self.trace.iter().map(|s| s.cpu).sum::<f64>() / self.trace.len() as f64
    }

    /// Peak memory over the recorded trace, MiB.
    pub fn peak_memory(&self) -> f64 {
        self.trace.iter().map(|s| s.memory_mb).fold(0.0, f64::max)
    }
}

/// Reference CPU costs (seconds on the SIL desktop) of one invocation of each
/// module, parameterised by its workload. These fixed constants define the
/// exchange rate between "work done" and "platform time"; they are model
/// parameters, not timings taken while a mission flies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadModel {
    /// Cost of one classical-detector inference on a 160x120 frame.
    pub detection_base: f64,
    /// Cost of inserting one depth point into the occupancy map.
    pub mapping_per_point: f64,
    /// Cost of one A*/RRT* planning iteration (node expansion / sample).
    pub planning_per_iteration: f64,
    /// Cost of one decision-state-machine tick.
    pub decision_tick: f64,
    /// Cost of one EKF predict+update cycle.
    pub estimation_tick: f64,
    /// Cost per camera frame of the live acquisition pipeline.
    pub camera_per_frame: f64,
}

impl Default for WorkloadModel {
    fn default() -> Self {
        Self {
            detection_base: 0.004,
            mapping_per_point: 2.5e-6,
            planning_per_iteration: 6.0e-6,
            decision_tick: 2.0e-5,
            estimation_tick: 1.5e-5,
            camera_per_frame: 0.003,
        }
    }
}

impl WorkloadModel {
    /// Cost of one detector inference given the detector's relative cost
    /// (1.0 = classical OpenCV pipeline, ~35 = TPH-YOLO surrogate).
    pub fn detection_cost(&self, relative_cost: f64) -> f64 {
        self.detection_base * relative_cost.max(0.1)
    }

    /// Cost of inserting a point cloud of `points` points.
    pub fn mapping_cost(&self, points: usize) -> f64 {
        self.mapping_per_point * points as f64
    }

    /// Cost of a planning invocation that used `iterations` node expansions
    /// or samples.
    pub fn planning_cost(&self, iterations: usize) -> f64 {
        self.planning_per_iteration * iterations as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_validate_and_rank_by_capacity() {
        for p in [
            ComputeProfile::desktop_sil(),
            ComputeProfile::jetson_nano_maxn(),
            ComputeProfile::jetson_nano_realworld(),
        ] {
            p.validate().unwrap();
        }
        assert!(
            ComputeProfile::desktop_sil().capacity()
                > ComputeProfile::jetson_nano_maxn().capacity()
        );
        assert!(
            ComputeProfile::jetson_nano_maxn().capacity()
                > ComputeProfile::jetson_nano_realworld().capacity()
        );
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        let mut p = ComputeProfile::desktop_sil();
        p.cpu_cores = 0.0;
        assert!(p.validate().is_err());
        let mut p = ComputeProfile::desktop_sil();
        p.available_memory_mb = -1.0;
        assert!(p.validate().is_err());
        let mut p = ComputeProfile::desktop_sil();
        p.background_cpu = 1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn same_work_is_slower_on_the_jetson() {
        let mut desktop = ComputeModel::new(ComputeProfile::desktop_sil()).unwrap();
        let mut jetson = ComputeModel::new(ComputeProfile::jetson_nano_maxn()).unwrap();
        desktop.begin_tick(0.02);
        jetson.begin_tick(0.02);
        let d = desktop.submit(TaskKind::PathPlanning, 0.01);
        let j = jetson.submit(TaskKind::PathPlanning, 0.01);
        assert!(
            j.latency > d.latency * 2.0,
            "jetson {} vs desktop {}",
            j.latency,
            d.latency
        );
    }

    #[test]
    fn gpu_acceleration_helps_detection_only() {
        let mut jetson = ComputeModel::new(ComputeProfile::jetson_nano_maxn()).unwrap();
        jetson.begin_tick(0.1);
        let detection = jetson.submit(TaskKind::MarkerDetection, 0.1);
        jetson.begin_tick(0.1);
        let planning = jetson.submit(TaskKind::PathPlanning, 0.1);
        assert!(detection.latency < planning.latency);
        assert!(detection.charged_cost < planning.charged_cost);
    }

    #[test]
    fn contention_inflates_latency() {
        let mut jetson = ComputeModel::new(ComputeProfile::jetson_nano_maxn()).unwrap();
        jetson.begin_tick(0.02);
        let alone = jetson.submit(TaskKind::PathPlanning, 0.01);
        // New tick with heavy prior load.
        jetson.begin_tick(0.02);
        jetson.submit(TaskKind::MarkerDetection, 0.2);
        jetson.submit(TaskKind::Mapping, 0.05);
        let contended = jetson.submit(TaskKind::PathPlanning, 0.01);
        assert!(
            contended.latency > alone.latency * 2.0,
            "contended {} vs alone {}",
            contended.latency,
            alone.latency
        );
    }

    #[test]
    fn memory_pressure_penalises_latency() {
        let mut jetson = ComputeModel::new(ComputeProfile::jetson_nano_maxn()).unwrap();
        jetson.begin_tick(0.02);
        let before = jetson.submit(TaskKind::Mapping, 0.01);
        jetson.set_resident_memory(TaskKind::MarkerDetection, 1_500.0);
        jetson.set_resident_memory(TaskKind::Mapping, 900.0);
        assert!(jetson.memory_pressure() > 0.9);
        jetson.begin_tick(0.02);
        let after = jetson.submit(TaskKind::Mapping, 0.01);
        assert!(after.latency > before.latency);
    }

    #[test]
    fn trace_records_cpu_and_memory() {
        let mut jetson = ComputeModel::new(ComputeProfile::jetson_nano_maxn()).unwrap();
        jetson.set_resident_memory(TaskKind::MarkerDetection, 800.0);
        jetson.set_resident_memory(TaskKind::Mapping, 400.0);
        for i in 0..50 {
            jetson.begin_tick(0.02);
            jetson.submit(TaskKind::StateEstimation, 1.5e-5);
            if i % 10 == 0 {
                jetson.submit(TaskKind::MarkerDetection, 0.1);
            }
            jetson.end_tick(i as f64 * 0.02);
        }
        assert_eq!(jetson.trace().len(), 50);
        assert!(jetson.average_cpu() > 0.05);
        let expected_memory = 550.0 + 800.0 + 400.0;
        assert!((jetson.peak_memory() - expected_memory).abs() < 1e-6);
    }

    #[test]
    fn realworld_profile_has_higher_baseline_cpu_than_hil() {
        let mut hil = ComputeModel::new(ComputeProfile::jetson_nano_maxn()).unwrap();
        let mut real = ComputeModel::new(ComputeProfile::jetson_nano_realworld()).unwrap();
        for model in [&mut hil, &mut real] {
            for i in 0..20 {
                model.begin_tick(0.02);
                model.submit(TaskKind::StateEstimation, 1.5e-5);
                model.end_tick(i as f64 * 0.02);
            }
        }
        assert!(real.average_cpu() > hil.average_cpu());
    }

    #[test]
    fn workload_model_scales_with_work() {
        let w = WorkloadModel::default();
        assert!(w.detection_cost(35.0) > w.detection_cost(1.0) * 10.0);
        assert!(w.mapping_cost(10_000) > w.mapping_cost(100) * 50.0);
        assert!(w.planning_cost(20_000) > w.planning_cost(200));
    }

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ComputeError>();
        let e = ComputeError::InvalidProfile {
            reason: "x".to_string(),
        };
        assert!(e.to_string().contains('x'));
    }
}
