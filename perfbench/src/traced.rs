//! The traced pass: one campaign flown mission by mission from the
//! benchmark's own files, with a timing hook and sink on every mission.
//!
//! The pass re-creates exactly what the campaign runner does per mission
//! (the campaign's seed schedule, compute profile, landing and executor
//! configs) through the public `mls_core::MissionExecutor::for_variant`,
//! fans the missions out over the public `mls_campaign::MissionExecutor`
//! pool at the run's thread count, and rebuilds the campaign report from
//! the flown outcomes through `CampaignRunner::assemble_report`. The
//! rebuilt report must equal the untraced runner's byte for byte: that is
//! the proof that the timing hook and sink perturb nothing.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use mls_campaign::{
    CampaignCell, CampaignError, CampaignRunner, CampaignSpec, MissionExecutor, MissionRecord,
    MissionSlot,
};
use mls_compute::ComputeModel;
use mls_core::{MissionOutcome, SystemVariant};
use mls_sim_world::Scenario;

use crate::clock;
use crate::stats;
use crate::timing::{Layer, LayerClock, LayerTotals, TimingHook, TimingSink};
use crate::Metrics;

/// What one traced mission left behind.
#[derive(Debug, Clone)]
pub struct MissionSpan {
    pub index: usize,
    pub cell: String,
    pub variant: SystemVariant,
    pub scenario_id: usize,
    pub worker: ThreadId,
    /// Start and end, seconds since the traced batch started.
    pub start_s: f64,
    pub end_s: f64,
    pub sim_s: f64,
    pub layers: LayerTotals,
}

impl MissionSpan {
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The measured result of one traced pass.
#[derive(Debug)]
pub struct TracedPass {
    pub spans: Vec<MissionSpan>,
    pub threads: usize,
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    pub assemble_s: f64,
    pub missions_planned: usize,
    /// Digest of the untraced report and whether the rebuilt one matched.
    pub report_digest: String,
    pub identical: bool,
    /// Missions that could not be flown (assembly errors).
    pub errors: Vec<String>,
}

struct PassContext {
    spec: CampaignSpec,
    cells: Vec<CampaignCell>,
    suites: Vec<Arc<Vec<Scenario>>>,
    missions_per_cell: usize,
    origin: std::time::Instant,
}

/// Flies `spec` untraced through `runner` (the reference report), then
/// traced through the pool, and rebuilds and compares the report.
///
/// # Errors
///
/// Returns the untraced campaign's or the report assembly's error.
pub fn run(
    runner: &CampaignRunner,
    pool: &Arc<MissionExecutor>,
    spec: &CampaignSpec,
    suites: &[Arc<Vec<Scenario>>],
) -> Result<TracedPass, CampaignError> {
    let threads = runner.threads();
    let start = clock::now();
    let reference = runner.run_with_shared_suites(spec, suites)?;
    let untraced_wall_s = clock::since(start);
    let reference_json = reference.to_json()?;

    let cells = spec.cells();
    let missions_per_cell = spec.missions_per_cell();
    let total = cells.len() * missions_per_cell;
    let context = Arc::new(PassContext {
        spec: spec.clone(),
        cells,
        suites: suites.to_vec(),
        missions_per_cell,
        origin: clock::now(),
    });
    let job = context.clone();
    let flown: Vec<Result<(MissionOutcome, MissionSpan), String>> =
        pool.execute(total, threads, move |index| fly(&job, index));
    let traced_wall_s = clock::since(context.origin);

    let mut spans = Vec::with_capacity(total);
    let mut slots = Vec::with_capacity(total);
    let mut errors = Vec::new();
    for result in flown {
        match result {
            Ok((outcome, span)) => {
                slots.push(MissionSlot::Flown(Box::new(record(&outcome))));
                spans.push(span);
            }
            Err(err) => {
                errors.push(err);
                slots.push(MissionSlot::Skipped);
            }
        }
    }
    let start = clock::now();
    let rebuilt = runner.assemble_report(spec, slots)?;
    let assemble_s = clock::since(start);
    let identical = errors.is_empty() && rebuilt.to_json()? == reference_json;
    Ok(TracedPass {
        spans,
        threads,
        untraced_wall_s,
        traced_wall_s,
        assemble_s,
        missions_planned: total,
        report_digest: stats::digest(reference_json.as_bytes()),
        identical,
        errors,
    })
}

/// Flies job `index` of the pass with the timing hook and sink attached —
/// the campaign runner's per-mission recipe, seen from outside.
fn fly(context: &PassContext, index: usize) -> Result<(MissionOutcome, MissionSpan), String> {
    let start_s = clock::since(context.origin);
    let layer_clock = LayerClock::start();
    let cell = &context.cells[index / context.missions_per_cell];
    if !cell.faults.is_empty() {
        return Err(format!(
            "cell {} injects faults; traced passes fly baselines only",
            cell.index
        ));
    }
    let scenarios = &context.suites[cell.suite_index];
    let within = index % context.missions_per_cell;
    let scenario = &scenarios[within % scenarios.len()];
    let repeat = within / scenarios.len();
    let spec = &context.spec;
    let compute = ComputeModel::new(spec.profiles[cell.profile_index].clone())
        .map_err(|err| err.to_string())?;
    let executor = mls_core::MissionExecutor::for_variant(
        scenario,
        cell.variant,
        spec.landing.clone(),
        compute,
        spec.executor.clone(),
        spec.mission_seed(scenario.id, repeat),
    )
    .map_err(|err| err.to_string())?
    .with_fault_hook(Box::new(TimingHook(layer_clock.clone())))
    .with_trace_sink(Box::new(TimingSink(layer_clock.clone())));
    lock(&layer_clock).assembled();
    let outcome = executor.run();
    let layers = lock(&layer_clock).finish();
    let span = MissionSpan {
        index,
        cell: cell.label(),
        variant: cell.variant,
        scenario_id: scenario.id,
        worker: std::thread::current().id(),
        start_s,
        end_s: clock::since(context.origin),
        sim_s: outcome.duration,
        layers,
    };
    Ok((outcome, span))
}

fn lock(clock: &Mutex<LayerClock>) -> std::sync::MutexGuard<'_, LayerClock> {
    clock
        .lock()
        .expect("the mission's hook and sink released the clock when the mission ended")
}

/// The aggregation record the campaign runner keeps per flown mission.
fn record(outcome: &MissionOutcome) -> MissionRecord {
    MissionRecord {
        result: outcome.result,
        failsafe: outcome.failsafe,
        landing_error: outcome.landing_error,
        detection_error: outcome.mean_detection_error,
        duration: outcome.duration,
        mean_cpu: outcome.mean_cpu,
        peak_memory_mb: outcome.peak_memory_mb,
        worst_planning_latency: outcome.worst_planning_latency,
        gps_drift: outcome.gps_drift,
        visible_frames: outcome.detection_stats.visible_frames,
        missed_frames: outcome.detection_stats.missed_frames,
        trace: None,
    }
}

impl TracedPass {
    /// Layer totals over every mission (or only `variant`'s).
    pub fn totals(&self, variant: Option<SystemVariant>) -> (LayerTotals, f64) {
        let mut totals = LayerTotals::default();
        let mut wall = 0.0;
        for span in &self.spans {
            if variant.is_none_or(|v| v == span.variant) {
                totals.add(&span.layers);
                wall += span.wall_s();
            }
        }
        (totals, wall)
    }

    /// Pool idle time at the batch's end: from the moment the first worker
    /// ran out of missions to the moment the last mission landed.
    pub fn straggler_s(&self) -> f64 {
        let mut last_end: Vec<(ThreadId, f64)> = Vec::new();
        for span in &self.spans {
            match last_end
                .iter_mut()
                .find(|(worker, _)| *worker == span.worker)
            {
                Some((_, end)) => *end = end.max(span.end_s),
                None => last_end.push((span.worker, span.end_s)),
            }
        }
        let first_idle = last_end
            .iter()
            .map(|(_, end)| *end)
            .fold(f64::INFINITY, f64::min);
        let batch_end = last_end.iter().map(|(_, end)| *end).fold(0.0, f64::max);
        if last_end.len() < self.threads {
            // A worker that never got a mission idled from the start.
            batch_end
        } else {
            batch_end - first_idle
        }
    }

    /// The mission-layer per-layer metrics of this pass.
    pub fn push_metrics(&self, metrics: &mut Metrics) {
        let (t, wall) = self.totals(None);
        metrics.push("sim_uav.step_s", t.get(Layer::Step), "s");
        metrics.push("sim_uav.ticks", t.ticks as f64, "count");
        metrics.push("sim_uav.capture_image_s", t.get(Layer::CaptureImage), "s");
        metrics.push("sim_uav.frames", t.frames as f64, "count");
        metrics.push("sim_uav.capture_depth_s", t.get(Layer::CaptureDepth), "s");
        metrics.push("mls_core.detect_s", t.get(Layer::Detect), "s");
        metrics.push("mls_core.observations", t.observations as f64, "count");
        metrics.push("mls_core.decision_s", t.get(Layer::Decision), "s");
        metrics.push("mls_core.decisions", t.decisions as f64, "count");
        metrics.push("mls_core.loop_other_s", t.get(Layer::Other), "s");
        metrics.push(
            "mls_core.loop_other_share",
            t.get(Layer::Other) / wall.max(1e-12),
            "ratio",
        );
        let walls: Vec<f64> = self.spans.iter().map(MissionSpan::wall_s).collect();
        metrics.push("mls_core.mission_wall_p50_s", stats::median(&walls), "s");
        let (percentile, tail) = stats::tail(&walls);
        metrics.push("mls_core.mission_wall_tail_s", tail, "s");
        metrics.push("mls_core.mission_wall_tail_pct", percentile, "percentile");
        metrics.push("mls_core.missions_timed", walls.len() as f64, "count");
        metrics.push("mapping.integrate_s", t.get(Layer::Integrate), "s");
        metrics.push("mapping.integrations", t.integrations as f64, "count");
        metrics.push("mapping.points_inserted", t.points_inserted as f64, "count");
        metrics.push("planning.plan_s", t.get(Layer::Plan), "s");
        metrics.push("planning.queries", t.plan_queries as f64, "count");
        metrics.push("planning.iterations", t.plan_iterations as f64, "count");
        metrics.push(
            "planning.failed_share",
            t.plans_failed as f64 / (t.plan_queries.max(1)) as f64,
            "ratio",
        );
        metrics.push("planning.fallbacks", t.plan_fallbacks as f64, "count");
        metrics.push(
            "campaign.pool_busy_share",
            wall / (self.threads as f64 * self.traced_wall_s).max(1e-12),
            "ratio",
        );
        metrics.push("campaign.straggler_s", self.straggler_s(), "s");
        metrics.push("campaign.assemble_report_s", self.assemble_s, "s");
        metrics.push(
            "bench.tracing_overhead_share",
            (self.traced_wall_s - self.untraced_wall_s) / self.untraced_wall_s.max(1e-12),
            "ratio",
        );
    }

    /// One JSON line per mission span (children: the layer self times).
    pub fn span_lines(&self, pass: &str) -> Vec<String> {
        self.spans
            .iter()
            .map(|span| {
                let mut line = mls_obs::JsonObject::new();
                line.str("span", "mission")
                    .str("parent", pass)
                    .u64("job", span.index as u64)
                    .str("cell", &span.cell)
                    .u64("scenario_id", span.scenario_id as u64)
                    .str("worker", &format!("{:?}", span.worker))
                    .f64("start_s", span.start_s)
                    .f64("end_s", span.end_s)
                    .f64("sim_s", span.sim_s);
                for layer in Layer::ALL {
                    line.f64(&format!("{}_s", layer.label()), span.layers.get(layer));
                }
                line.u64("ticks", span.layers.ticks)
                    .u64("frames", span.layers.frames)
                    .u64("plan_queries", span.layers.plan_queries)
                    .u64("points_inserted", span.layers.points_inserted);
                line.finish()
            })
            .collect()
    }
}
