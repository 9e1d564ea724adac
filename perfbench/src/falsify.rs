//! The `falsify-journaled` workload: the CI falsification smoke space with
//! the write-ahead journal attached and failure-trace capture on.
//!
//! MLS-V3 on constrained pads, marker-occlusion × wind-gust faults, the
//! grid-refinement searcher. The timed phase is the search itself (from
//! start to a minimised, captured and replay-verified counterexample),
//! then byte-exact replays of the counterexample trace, then a resume of
//! the search stage from the completed journal, which must reproduce the
//! search's probes exactly without flying a mission. It is the only workload through the engine layers: fault
//! hooks, batched early-stopped probes, journal fsyncs, trace capture,
//! write and replay, and the corpus index.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mls_campaign::{
    CampaignRunner, CampaignSpec, EarlyStopPolicy, FalsificationConfig, FalsificationReport,
    FalsificationSearch, FaultAxis, FaultKind, FaultSpace, GridRefinementConfig, MissionExecutor,
    Searcher, SpaceFalsification, TracePolicy,
};
use mls_core::SystemVariant;
use mls_sim_world::{Scenario, ScenarioFamily};
use mls_trace::Trace;

use crate::clock;
use crate::grid;
use crate::stats;
use crate::traced;
use crate::{engine_metrics, kernel, Args, EngineStats, Metrics, Run};

/// The probe-suite seed of the CI smoke: a constrained-pad suite MLS-V3
/// lands clean fault-free. The search is deterministic, so every run
/// measures the same search; a second clean suite (seed 5) searches as
/// long but replays a counterexample with a different real-time factor,
/// and alternating the two would measure the suites, not the code.
const SUITE_SEED: u64 = 2;

/// Replays made at least, whatever the run's seconds.
const MIN_REPLAYS: usize = 1;

const VARIANT: SystemVariant = SystemVariant::MlsV3;

fn space() -> FaultSpace {
    FaultSpace::new(
        "v3-constrained-occlusion-x-wind",
        vec![
            FaultAxis::full(FaultKind::MarkerOcclusion),
            FaultAxis::full(FaultKind::WindGust),
        ],
    )
}

fn searcher() -> Searcher {
    Searcher::GridRefinement(GridRefinementConfig {
        resolution: 2,
        rounds: 0,
    })
}

/// The smoke configuration of the `falsify` harness.
fn config() -> FalsificationConfig {
    let mut config = FalsificationConfig {
        seed: SUITE_SEED,
        maps: 1,
        scenarios_per_map: 2,
        family: ScenarioFamily::ConstrainedPad,
        repeats: 1,
        failure_threshold: 0.75,
        minimizer_passes: 1,
        minimizer_bisections: 3,
        ..FalsificationConfig::default()
    };
    config.landing.mission_timeout = 120.0;
    config.executor.max_duration = 150.0;
    config
}

/// The probe campaign the search flies at `point` (`None`: the fault-free
/// baseline) — rebuilt from outside so the benchmark can replay the
/// captured trace, whose header pins this spec's hash.
fn probe_spec(config: &FalsificationConfig, point: Option<&[f64]>) -> CampaignSpec {
    let space = space();
    let plans = point.map(|point| space.plans(point)).unwrap_or_default();
    CampaignSpec {
        name: format!("falsify-{}", space.name),
        seed: config.seed,
        maps: config.maps,
        scenarios_per_map: config.scenarios_per_map,
        families: vec![config.family],
        repeats: config.repeats,
        variants: vec![VARIANT],
        profiles: vec![config.profile.clone()],
        baseline: plans.is_empty(),
        faults: Vec::new(),
        combos: if plans.is_empty() {
            Vec::new()
        } else {
            vec![plans]
        },
        landing: config.landing.clone(),
        executor: config.executor.clone(),
        capture: if point.is_some() {
            TracePolicy::FailuresOnly
        } else {
            TracePolicy::Off
        },
        probe_early_stop: config
            .probe_early_stop
            .then(|| EarlyStopPolicy::exact(config.failure_threshold)),
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns set-up and filesystem errors; failed operations and checks land
/// in the [`Run`].
pub fn run(args: &Args, threads: usize) -> Result<Run, String> {
    let config = config();
    let suite_spec = probe_spec(&config, None);
    let prepared = grid::prepare(&suite_spec, threads)?;
    // The search flies on the process-wide pool and suite cache; start
    // both here so the timed phase pays neither.
    CampaignRunner::new(threads)
        .generate_scenarios(&suite_spec)
        .map_err(|err| err.to_string())?;
    grid::start_workers(&MissionExecutor::global(), threads);

    let dir = PathBuf::from(format!(
        "{}/falsify-seed{}-trace{}",
        crate::OUT_DIR,
        args.seed,
        u8::from(args.trace)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|err| format!("{}: {err}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|err| format!("{}: {err}", dir.display()))?;
    let journal = dir.join("journal.jsonl");
    let search = || {
        FalsificationSearch::new(config.clone(), threads)
            .with_journal(&journal)
            .with_trace_dir(dir.join("traces"))
    };

    let mut run = Run::default();
    let timed = clock::now();
    let Some((result, ttc_s)) = timed_search(&search(), &mut run) else {
        return Ok(run);
    };
    let Some(replayed) = replays(&config, &result, args, timed, &mut run) else {
        return Ok(run);
    };
    let resume_s = resume(&search(), &result, &mut run);

    if args.trace {
        run.metrics.push(
            "sim_world.suite_generate_s",
            stats::median(&prepared.generate_s),
            "s",
        );
        // Mission layers: the search's fault-free baseline campaign, flown
        // once untraced and once traced.
        let planned = suite_spec.total_missions() as u64;
        run.attempted += planned;
        match traced::run(
            &prepared.runner,
            &prepared.pool,
            &suite_spec,
            &prepared.suites,
        ) {
            Ok(pass) => {
                grid::record_pass(&pass, &suite_spec, &mut run);
                pass.push_metrics(&mut run.metrics);
                run.lines.extend(pass.span_lines(&suite_spec.name));
            }
            Err(err) => run.fail(planned, format!("traced baseline failed: {err}")),
        }
        let mut stats = journal_stats(&journal)?;
        stats.time_to_counterexample_s = ttc_s;
        stats.resume_s = resume_s;
        stats.probes = result.probes.len();
        stats.replays_per_s = replayed.count as f64 / replayed.wall_s;
        stats.replay_s = replayed.wall_s / replayed.count as f64;
        trace_io(&replayed.trace, &dir, &mut stats, &mut run);
        push_campaign_counts(&stats, &mut run.metrics);
        kernel::run(args.seed).push_metrics(&mut run.metrics);
        engine_metrics(&mut run.metrics, Some(&stats));
    } else {
        run.metrics.push(
            "missions_per_s",
            result.missions_flown as f64 / ttc_s,
            "1/s",
        );
        run.metrics.push(
            "sim_s_per_host_s",
            replayed.sim_s * replayed.count as f64 / replayed.wall_s,
            "s/s",
        );
    }
    run.notes.push(format!(
        "suite seed {}: {} probes, {} missions to a counterexample in {ttc_s:.2} s; \
         {} replays in {:.2} s; resume in {resume_s:.3} s",
        config.seed,
        result.probes.len(),
        result.missions_flown,
        replayed.count,
        replayed.wall_s
    ));
    run.setup_s = stats::median(&prepared.setup_s);
    Ok(run)
}

/// The search to a captured, replay-verified counterexample; `None` (and a
/// recorded failure) when it errs or leaves no verified counterexample.
fn timed_search(search: &FalsificationSearch, run: &mut Run) -> Option<(SpaceFalsification, f64)> {
    run.attempted += 1;
    let start = clock::now();
    let result = match search.falsify(VARIANT, &space(), &searcher()) {
        Ok(result) => result,
        Err(err) => {
            run.fail(1, format!("search failed: {err}"));
            return None;
        }
    };
    let ttc_s = clock::since(start);
    run.attempted += result.missions_flown as u64;
    let report = FalsificationReport {
        results: vec![result.clone()],
    };
    match report.to_json() {
        Ok(json) => run
            .digests
            .push(("falsify".to_string(), stats::digest(json.as_bytes()))),
        Err(err) => run.fail(1, format!("search result does not serialize: {err}")),
    }
    let verified = result
        .counterexample
        .as_ref()
        .is_some_and(|ce| ce.trace.is_some() && ce.replay_identical == Some(true));
    if !verified {
        run.fail(
            1,
            "the search left no captured, byte-identically replaying counterexample".to_string(),
        );
        return None;
    }
    Some((result, ttc_s))
}

struct Replayed {
    trace: Trace,
    count: usize,
    wall_s: f64,
    /// Simulated seconds one replay flies.
    sim_s: f64,
}

/// Byte-exact replays of the counterexample trace until the run's seconds
/// (counted from the search's start) are spent, at least [`MIN_REPLAYS`].
fn replays(
    config: &FalsificationConfig,
    result: &SpaceFalsification,
    args: &Args,
    timed: std::time::Instant,
    run: &mut Run,
) -> Option<Replayed> {
    let counterexample = result.counterexample.as_ref()?;
    let link = counterexample.trace.as_ref()?;
    let spec = probe_spec(config, Some(&counterexample.point));
    let runner = CampaignRunner::new(1);
    let loaded = Trace::read_from(Path::new(&link.path)).map_err(|err| err.to_string());
    let scenarios: Result<Arc<Vec<Scenario>>, String> = runner
        .generate_scenarios(&spec)
        .map_err(|err| err.to_string());
    let (trace, scenarios) = match (loaded, scenarios) {
        (Ok(trace), Ok(scenarios)) => (trace, scenarios),
        (Err(err), _) | (_, Err(err)) => {
            run.fail(
                1,
                format!("cannot load the counterexample for replay: {err}"),
            );
            return None;
        }
    };
    let mut count = 0;
    let start = clock::now();
    while count < MIN_REPLAYS || clock::since(timed) < args.seconds {
        run.attempted += 1;
        count += 1;
        match runner.replay(&spec, &scenarios, &trace) {
            Ok(verdict) if verdict.is_identical() => {}
            Ok(verdict) => run.fail(1, format!("replay diverged: {verdict}")),
            Err(err) => run.fail(1, format!("replay failed: {err}")),
        }
    }
    let wall_s = clock::since(start);
    let sim_s = trace.events.last().map_or(0.0, |event| event.time());
    Some(Replayed {
        trace,
        count,
        wall_s,
        sim_s,
    })
}

/// Resumes the search stage from the completed journal: the baseline and
/// every probe replay from their records, so nothing flies, and the
/// resumed stage must reproduce the original search's probes exactly.
/// Returns the resume's wall seconds.
fn resume(search: &FalsificationSearch, original: &SpaceFalsification, run: &mut Run) -> f64 {
    run.attempted += 1;
    let start = clock::now();
    let resumed = search.search_space(VARIANT, &space(), &searcher());
    let resume_s = clock::since(start);
    match resumed {
        Ok(stage)
            if !stage.probes.is_empty()
                && original.probes.starts_with(&stage.probes)
                && stage.baseline_success_rate == original.baseline_success_rate => {}
        Ok(_) => run.fail(
            1,
            "the resumed search stage differs from the original search".to_string(),
        ),
        Err(err) => run.fail(1, format!("resume failed: {err}")),
    }
    resume_s
}

/// Journal records, bytes and the mission schedule they describe.
fn journal_stats(journal: &Path) -> Result<EngineStats, String> {
    let text =
        std::fs::read_to_string(journal).map_err(|err| format!("{}: {err}", journal.display()))?;
    let mut stats = EngineStats {
        journal_bytes: text.len(),
        ..EngineStats::default()
    };
    for line in text.lines().skip(1) {
        let record = serde_json::parse(line).map_err(|err| format!("journal record: {err}"))?;
        stats.journal_records += 1;
        match record.get("t").and_then(|kind| kind.as_str()) {
            Some("probe") => {
                let outcomes = match record.get("outcomes") {
                    Some(serde_json::Value::Array(outcomes)) => outcomes.as_slice(),
                    _ => &[],
                };
                stats.missions_planned += outcomes.len();
                // Outcome code 0 marks a mission early stopping skipped.
                stats.missions_flown += outcomes
                    .iter()
                    .filter(|code| code.as_u64() != Some(0))
                    .count();
            }
            Some("slot") => {
                stats.missions_planned += 1;
                let skipped = record
                    .get("slot")
                    .and_then(|slot| slot.get("skipped"))
                    .is_some();
                stats.missions_flown += usize::from(!skipped);
            }
            _ => {}
        }
    }
    Ok(stats)
}

/// Times writing and reading the counterexample trace back, and checks the
/// round trip is lossless.
fn trace_io(trace: &Trace, dir: &Path, stats: &mut EngineStats, run: &mut Run) {
    const ROUNDS: usize = 20;
    let path = dir.join("roundtrip.jsonl");
    run.attempted += 1;
    let mut write_s = 0.0;
    let mut read_s = 0.0;
    for _ in 0..ROUNDS {
        let start = clock::now();
        if let Err(err) = trace.write_to(&path) {
            run.fail(1, format!("trace write failed: {err}"));
            return;
        }
        write_s += clock::since(start);
        let start = clock::now();
        match Trace::read_from(&path) {
            Ok(read) if read == *trace => {}
            Ok(_) => {
                run.fail(
                    1,
                    "a trace read back differs from the one written".to_string(),
                );
                return;
            }
            Err(err) => {
                run.fail(1, format!("trace read failed: {err}"));
                return;
            }
        }
        read_s += clock::since(start);
    }
    stats.trace_write_s = write_s / ROUNDS as f64;
    stats.trace_read_s = read_s / ROUNDS as f64;
    stats.trace_bytes = std::fs::metadata(&path).map_or(0, |meta| meta.len() as usize);
    stats.trace_files = count_files(&dir.join("traces"), "jsonl");
}

fn count_files(dir: &Path, extension: &str) -> usize {
    let mut count = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                count += count_files(&path, extension);
            } else if path.extension().is_some_and(|ext| ext == extension)
                && path
                    .file_name()
                    .is_some_and(|name| name != "corpus-index.jsonl")
            {
                count += 1;
            }
        }
    }
    count
}

fn push_campaign_counts(stats: &EngineStats, metrics: &mut Metrics) {
    metrics.push(
        "campaign.missions_planned",
        stats.missions_planned as f64,
        "count",
    );
    metrics.push(
        "campaign.missions_flown",
        stats.missions_flown as f64,
        "count",
    );
    metrics.push(
        "campaign.early_stop_saved_share",
        1.0 - stats.missions_flown as f64 / stats.missions_planned.max(1) as f64,
        "ratio",
    );
}
