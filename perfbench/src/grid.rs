//! The two campaign-grid workloads: `table1-open` and `fig6-constrained`.
//!
//! A pass is one campaign over the workload's fixed benchmark suite,
//! flown through the public `CampaignRunner` on a private mission pool of
//! the run's thread count: a closed loop in which each worker pulls the
//! next mission when it finishes its last. The untraced run flies as many
//! whole passes as fit in the run's seconds (at least one); every pass of
//! a run flies the same spec, so every pass must produce the same report,
//! byte for byte.
//!
//! The missions themselves — maps, pads, weather and every mission's noise
//! streams — are the workload's fixed benchmark, as the paper's maps are:
//! how long a mission flies depends on its noise draw, and with the ~20
//! missions a run can afford, fresh draws per run would swing the pass
//! cost by a third. The workload seed instead draws the order in which the
//! pool's workers pull the missions of each cell, which moves where the
//! long missions land and so how long the pool idles at the pass's tail.

use std::sync::{Arc, Barrier};

use mls_campaign::{CampaignRunner, CampaignSpec, MissionExecutor, SuiteCache};
use mls_core::SystemVariant;
use mls_sim_world::{Scenario, ScenarioFamily};

use crate::clock;
use crate::stats;
use crate::traced::{self, TracedPass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{engine_metrics, kernel, Args, Run};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 101;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    Table1Open,
    Fig6Constrained,
}

impl Grid {
    /// The campaign one pass flies. Its seed fixes the benchmark — suite
    /// and mission noise streams — and is chosen so that a pass takes about
    /// half a minute on two cores.
    pub fn spec(self) -> CampaignSpec {
        match self {
            // The paper's Table I benchmark: every generation, default
            // configuration, fault-free, over a rural, a suburban and an
            // urban map with one clear and one adverse-weather scenario
            // each. The cheap MLS-V1 cell flies last, so the pool's two
            // workers run out of missions at nearly the same time.
            Grid::Table1Open => CampaignSpec {
                name: "perfbench-table1-open".to_string(),
                seed: 13,
                maps: 3,
                scenarios_per_map: 2,
                families: vec![ScenarioFamily::Open],
                variants: vec![
                    SystemVariant::MlsV2,
                    SystemVariant::MlsV3,
                    SystemVariant::MlsV1,
                ],
                ..CampaignSpec::default()
            },
            // Fig. 6's swallowed free space: MLS-V2 and MLS-V3 beside the
            // wall of a constrained pad with obstacle inflation (and the
            // descent clearance) raised to 1.6 m, fault-free, with the
            // mission bounds of the fig6_inflation harness.
            Grid::Fig6Constrained => {
                let mut spec = CampaignSpec {
                    name: "perfbench-fig6-constrained".to_string(),
                    seed: 1,
                    maps: 1,
                    scenarios_per_map: 2,
                    families: vec![ScenarioFamily::ConstrainedPad],
                    variants: vec![SystemVariant::MlsV2, SystemVariant::MlsV3],
                    ..CampaignSpec::default()
                };
                spec.landing.inflation_radius = 1.6;
                spec.landing.safety.descent_clearance = 1.6;
                spec.landing.mission_timeout = 120.0;
                spec.executor.max_duration = 150.0;
                spec
            }
        }
    }
}

/// A ready-to-fly runner: suites generated, pool started.
pub struct Prepared {
    pub runner: CampaignRunner,
    pub pool: Arc<MissionExecutor>,
    pub suites: Vec<Arc<Vec<Scenario>>>,
    /// Whole set-up (suite generation + pool start-up), one per repetition.
    pub setup_s: Vec<f64>,
    /// Suite generation alone, one per repetition.
    pub generate_s: Vec<f64>,
}

/// Sets up [`SETUPS`] times from scratch — a fresh suite cache and a fresh
/// pool each time — and keeps the last.
///
/// # Errors
///
/// Returns the scenario generator's error.
pub fn prepare(suite_spec: &CampaignSpec, threads: usize) -> Result<Prepared, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut generate_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // The previous repetition's pool is joined here, outside the clock.
        drop(kept.take());
        let start = clock::now();
        let pool = MissionExecutor::new(threads);
        let runner = CampaignRunner::new(threads)
            .with_executor(pool.clone())
            .with_suite_cache(SuiteCache::new());
        let suites = runner
            .suites_for(suite_spec)
            .map_err(|err| err.to_string())?;
        generate_s.push(clock::since(start));
        start_workers(&pool, threads);
        setup_s.push(clock::since(start));
        kept = Some((runner, pool, suites));
    }
    let (runner, pool, suites) = kept.expect("at least one set-up ran");
    Ok(Prepared {
        runner,
        pool,
        suites,
        setup_s,
        generate_s,
    })
}

/// Starts `pool`'s workers: they spawn lazily on the first batch that
/// needs them, and the barrier holds the batch until every one of them has
/// run a job, so start-up always includes each worker's first wake-up.
pub fn start_workers(pool: &MissionExecutor, threads: usize) {
    let barrier = Arc::new(Barrier::new(threads));
    pool.execute(threads, threads, move |_| {
        barrier.wait();
    });
}

/// Runs one grid workload.
///
/// # Errors
///
/// Returns set-up errors; failed missions and checks land in the [`Run`].
pub fn run(grid: Grid, args: &Args, threads: usize) -> Result<Run, String> {
    let spec = grid.spec();
    let mut prepared = prepare(&spec, threads)?;
    prepared.suites = prepared
        .suites
        .iter()
        .map(|suite| Arc::new(shuffled(suite, args.seed)))
        .collect();
    let mut run = Run::default();
    if args.trace {
        traced_run(&spec, &prepared, args, &mut run);
    } else {
        untraced_run(&spec, &prepared, args, &mut run);
    }
    run.setup_s = stats::median(&prepared.setup_s);
    Ok(run)
}

/// The suite in the pull order `seed` draws (Fisher–Yates). Scenario ids
/// travel with the scenarios, so every mission keeps its noise streams.
fn shuffled(suite: &[Scenario], seed: u64) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order = suite.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

fn untraced_run(spec: &CampaignSpec, prepared: &Prepared, args: &Args, run: &mut Run) {
    let planned = spec.total_missions() as u64;
    let mut first: Option<String> = None;
    let mut missions = 0u64;
    let mut sim_s = 0.0;
    let start = clock::now();
    loop {
        run.attempted += planned;
        let report = match prepared
            .runner
            .run_with_shared_suites(spec, &prepared.suites)
        {
            Ok(report) => report,
            Err(err) => {
                run.fail(planned, format!("campaign pass failed: {err}"));
                break;
            }
        };
        let json = match report.to_json() {
            Ok(json) => json,
            Err(err) => {
                run.fail(planned, format!("report does not serialize: {err}"));
                break;
            }
        };
        missions += report.missions as u64;
        sim_s += report
            .cells
            .iter()
            .map(|cell| cell.duration.mean.unwrap_or(0.0) * cell.missions as f64)
            .sum::<f64>();
        if let Some(problem) = check_report(spec, &report) {
            run.fail(planned, problem);
        }
        match &first {
            None => {
                run.digests
                    .push((spec.name.clone(), stats::digest(json.as_bytes())));
                first = Some(json);
            }
            Some(first) if *first != json => run.fail(
                planned,
                "a repeated pass of the same spec produced a different report".to_string(),
            ),
            Some(_) => {}
        }
        // Another pass only when it fits in the run's seconds.
        let passes = (missions / planned.max(1)).max(1) as f64;
        let elapsed = clock::since(start);
        if elapsed + elapsed / passes > args.seconds {
            break;
        }
    }
    let wall = clock::since(start);
    run.metrics
        .push("missions_per_s", missions as f64 / wall, "1/s");
    run.metrics.push("sim_s_per_host_s", sim_s / wall, "s/s");
    run.notes.push(format!(
        "{} passes, {missions} missions, {:.1} simulated s in {wall:.2} s on {} threads",
        missions / planned.max(1),
        sim_s,
        prepared.runner.threads()
    ));
}

/// Structural checks every report of a pass must satisfy.
fn check_report(spec: &CampaignSpec, report: &mls_campaign::CampaignReport) -> Option<String> {
    if report.missions != spec.total_missions() || report.cells.len() != spec.cells().len() {
        return Some(format!(
            "report covers {} missions in {} cells, the spec plans {} in {}",
            report.missions,
            report.cells.len(),
            spec.total_missions(),
            spec.cells().len()
        ));
    }
    for cell in &report.cells {
        let total = cell.success_rate + cell.collision_rate + cell.poor_landing_rate;
        let duration_ok = cell
            .duration
            .max
            .is_some_and(|max| max > 0.0 && max <= spec.executor.max_duration + 1.0);
        if (total - 1.0).abs() > 1e-9 || !duration_ok {
            return Some(format!(
                "cell {} has outcome rates or durations out of range",
                cell.index
            ));
        }
    }
    None
}

fn traced_run(spec: &CampaignSpec, prepared: &Prepared, args: &Args, run: &mut Run) {
    run.metrics.push(
        "sim_world.suite_generate_s",
        stats::median(&prepared.generate_s),
        "s",
    );
    let planned = spec.total_missions() as u64;
    run.attempted += planned;
    match traced::run(&prepared.runner, &prepared.pool, spec, &prepared.suites) {
        Ok(pass) => {
            record_pass(&pass, spec, run);
            pass.push_metrics(&mut run.metrics);
            run.metrics
                .push("campaign.missions_planned", planned as f64, "count");
            run.metrics
                .push("campaign.missions_flown", pass.spans.len() as f64, "count");
            run.metrics
                .push("campaign.early_stop_saved_share", 0.0, "ratio");
            run.notes.extend(variant_shares(&pass));
            run.lines.extend(pass.span_lines(&spec.name));
        }
        Err(err) => run.fail(planned, format!("traced pass failed: {err}")),
    }
    kernel::run(args.seed).push_metrics(&mut run.metrics);
    engine_metrics(&mut run.metrics, None);
}

/// Folds a traced pass's missions, byte-identity verdict and errors into
/// the run (the caller already counted the untraced reference missions).
pub fn record_pass(pass: &TracedPass, spec: &CampaignSpec, run: &mut Run) {
    run.attempted += pass.missions_planned as u64;
    run.digests
        .push((spec.name.clone(), pass.report_digest.clone()));
    for err in &pass.errors {
        run.fail(1, format!("traced mission failed: {err}"));
    }
    if !pass.identical {
        run.fail(
            pass.missions_planned as u64,
            "the traced pass's rebuilt report differs from the untraced report".to_string(),
        );
    }
}

/// Per-variant layer shares of mission wall time (the acceptance figures:
/// perception on `table1-open`, planning on `fig6-constrained`).
fn variant_shares(pass: &TracedPass) -> Vec<String> {
    let mut variants: Vec<SystemVariant> = pass.spans.iter().map(|span| span.variant).collect();
    variants.dedup();
    variants
        .into_iter()
        .map(|variant| {
            use crate::timing::Layer;
            let (t, wall) = pass.totals(Some(variant));
            format!(
                "{}: mission wall {wall:.2} s, image capture + detect {:.1} %, plan {:.1} %, \
                 other {:.1} %",
                variant.label(),
                100.0 * (t.get(Layer::CaptureImage) + t.get(Layer::Detect)) / wall.max(1e-12),
                100.0 * t.get(Layer::Plan) / wall.max(1e-12),
                100.0 * t.get(Layer::Other) / wall.max(1e-12),
            )
        })
        .collect()
}
