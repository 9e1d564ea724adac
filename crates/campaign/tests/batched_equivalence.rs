//! Batched probe evaluation: its reference, and its independence of the
//! thread count.
//!
//! A searcher generation flies as one executor batch
//! (`CampaignRunner::run_probe_rates`). Three properties pin that path:
//!
//! * **Reference.** Every probe's rate and mission count in a batch equals
//!   what a one-cell campaign of the same spec records through
//!   `run_with_shared_suites`, with early stopping on and off.
//! * **Thread count.** Over every falsify space shape (at
//!   `MLS_FALSIFY_SMOKE`-scale lattices) the search finds the identical
//!   counterexample coordinates, evaluates the identical probe set and
//!   captures byte-identical traces. The two open-pad grid/CMA spaces are
//!   checked at the search stage (probe logs + failing point) at 1, 2 and
//!   3 threads; the V1 space and the constrained-pad smoke space run the
//!   full search → minimize → capture pipeline at 1 and 2 threads so the
//!   persisted trace bytes are compared too.
//! * **Early stop.** Early stopping changes recorded rates (prefix rates)
//!   but never a pass/fail classification, so on the V1 grid space the
//!   searcher visits the same points and lands on the same failing point
//!   with it on and off.
//!
//! Traces land under `target/test-traces/` so CI can upload them as a
//! workflow artifact for post-mortem inspection.

use std::path::PathBuf;

use mls_campaign::{
    CampaignRunner, CampaignSpec, CmaEsConfig, EarlyStopPolicy, FalsificationConfig,
    FalsificationSearch, FaultAxis, FaultKind, FaultSpace, GridRefinementConfig, SearchStage,
    Searcher, SpaceFalsification,
};
use mls_core::SystemVariant;
use mls_sim_world::ScenarioFamily;
use mls_trace::{Trace, TracePolicy};

/// Stable artifact directory (uploaded by the CI workflow).
fn trace_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-traces")
        .join(name)
}

/// A smoke-scale falsification config: tiny probe suites, short missions.
fn smoke_config(seed: u64, family: ScenarioFamily, early_stop: bool) -> FalsificationConfig {
    let mut config = FalsificationConfig {
        seed,
        maps: 1,
        scenarios_per_map: 2,
        family,
        repeats: 1,
        failure_threshold: 0.75,
        minimizer_passes: 1,
        minimizer_bisections: 1,
        probe_early_stop: early_stop,
        ..FalsificationConfig::default()
    };
    config.landing.mission_timeout = 120.0;
    config.executor.max_duration = 150.0;
    config
}

/// A minimal-lattice grid searcher (the falsify binary's smoke setting).
fn smoke_grid() -> Searcher {
    Searcher::GridRefinement(GridRefinementConfig {
        resolution: 2,
        rounds: 0,
    })
}

/// The known-falsifiable MLS-V1 space (the falsification_e2e reference).
fn v1_space() -> FaultSpace {
    FaultSpace::new(
        "eq-v1-occlusion-x-gps",
        vec![
            FaultAxis::full(FaultKind::MarkerOcclusion),
            FaultAxis::new(FaultKind::GpsBias, 0.15, 1.0),
        ],
    )
}

/// Runs the full falsification (search → minimize → capture) of `space`,
/// keeping traces per `tag`.
fn falsify(
    config: &FalsificationConfig,
    threads: usize,
    variant: SystemVariant,
    space: &FaultSpace,
    searcher: &Searcher,
    tag: &str,
) -> SpaceFalsification {
    FalsificationSearch::new(config.clone(), threads)
        .with_trace_dir(trace_root(&format!("equiv-{}-{tag}", space.name)))
        .falsify(variant, space, searcher)
        .unwrap_or_else(|err| panic!("falsify({}, {tag}) failed: {err}", space.name))
}

/// Runs only the search stage (baseline + searcher).
fn search(
    config: &FalsificationConfig,
    threads: usize,
    variant: SystemVariant,
    space: &FaultSpace,
    searcher: &Searcher,
) -> SearchStage {
    FalsificationSearch::new(config.clone(), threads)
        .search_space(variant, space, searcher)
        .unwrap_or_else(|err| panic!("search_space({}) failed: {err}", space.name))
}

/// Asserts two falsification results are equivalent: identical probe
/// sequences (points *and* rates), identical counterexample coordinates
/// and byte-identical captured traces. Only the trace *paths* may differ
/// (each run keeps its own directory).
fn assert_equivalent(a: &SpaceFalsification, b: &SpaceFalsification, what: &str) {
    assert_eq!(a.probes, b.probes, "{what}: probe logs diverged");
    assert_eq!(
        a.baseline_success_rate, b.baseline_success_rate,
        "{what}: baselines diverged"
    );
    assert_eq!(
        a.missions_flown, b.missions_flown,
        "{what}: mission accounting diverged"
    );
    match (&a.counterexample, &b.counterexample) {
        (None, None) => {}
        (Some(ce_a), Some(ce_b)) => {
            assert_eq!(ce_a.point, ce_b.point, "{what}: counterexample coordinates");
            assert_eq!(ce_a.plans, ce_b.plans, "{what}: counterexample plans");
            assert_eq!(
                ce_a.success_rate, ce_b.success_rate,
                "{what}: counterexample rates"
            );
            assert_eq!(
                ce_a.replay_identical, ce_b.replay_identical,
                "{what}: replay verdicts"
            );
            match (&ce_a.trace, &ce_b.trace) {
                (None, None) => {}
                (Some(link_a), Some(link_b)) => {
                    assert_eq!(link_a.triage, link_b.triage, "{what}: triage classes");
                    assert_eq!(link_a.seed, link_b.seed, "{what}: trace seeds");
                    let trace_a = Trace::read_from(std::path::Path::new(&link_a.path)).unwrap();
                    let trace_b = Trace::read_from(std::path::Path::new(&link_b.path)).unwrap();
                    assert_eq!(
                        trace_a.to_jsonl().unwrap(),
                        trace_b.to_jsonl().unwrap(),
                        "{what}: captured traces are not byte-identical"
                    );
                }
                mismatched => panic!("{what}: trace capture diverged: {mismatched:?}"),
            }
        }
        mismatched => panic!("{what}: counterexample existence diverged: {mismatched:?}"),
    }
}

/// A single-cell probe spec at `point` of the V1 space, built from public
/// fields the way an outside caller would.
fn probe_spec(point: &[f64], early_stop: bool) -> CampaignSpec {
    let mut spec = CampaignSpec {
        name: "equiv-probe".to_string(),
        seed: 3,
        maps: 1,
        scenarios_per_map: 2,
        families: vec![ScenarioFamily::Open],
        repeats: 2,
        variants: vec![SystemVariant::MlsV1],
        baseline: false,
        combos: vec![v1_space().plans(point)],
        capture: TracePolicy::Off,
        probe_early_stop: early_stop.then(|| EarlyStopPolicy::exact(0.75)),
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 120.0;
    spec.executor.max_duration = 150.0;
    spec
}

#[test]
fn probe_batches_rate_every_probe_as_its_own_campaign() {
    // The reference side of batched evaluation: each probe of a batch,
    // flown alone as a one-cell campaign.
    let runner = CampaignRunner::new(2);
    let points = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]];
    for early_stop in [true, false] {
        let specs: Vec<CampaignSpec> = points
            .iter()
            .map(|point| probe_spec(point, early_stop))
            .collect();
        let suite = runner.generate_scenarios(&specs[0]).expect("probe suite");
        let rates = runner
            .run_probe_rates(specs.clone(), suite.clone())
            .expect("probe batch");
        assert_eq!(rates.len(), specs.len());
        for (spec, rate) in specs.iter().zip(&rates) {
            let single = runner
                .run_with_shared_suites(spec, std::slice::from_ref(&suite))
                .expect("one-probe campaign");
            let what = format!("early stop {early_stop}, {:?}", spec.combos[0]);
            assert_eq!(
                rate.success_rate, single.cells[0].success_rate,
                "{what}: rates"
            );
            assert_eq!(
                rate.missions_flown, single.cells[0].missions,
                "{what}: missions flown"
            );
            assert_eq!(rate.missions_planned, spec.missions_per_cell(), "{what}");
        }
        assert_eq!(
            rates
                .iter()
                .any(|rate| rate.missions_flown < rate.missions_planned),
            early_stop,
            "early stop {early_stop}: the batch must (not) cut a decided probe short"
        );
    }
}

#[test]
fn v1_occlusion_x_gps_full_pipeline_is_thread_independent() {
    // The V1 space through the full search → minimize → capture pipeline
    // with early-stopped probes: counterexample coordinates, probe logs
    // and the persisted trace bytes must not depend on the thread count.
    let config = smoke_config(3, ScenarioFamily::Open, true);
    let space = v1_space();
    let searcher = smoke_grid();
    let variant = SystemVariant::MlsV1;
    let one = falsify(&config, 1, variant, &space, &searcher, "t1");
    let two = falsify(&config, 2, variant, &space, &searcher, "t2");
    assert!(
        one.counterexample.is_some(),
        "the all-axes-at-max corner falsifies MLS-V1"
    );
    assert_equivalent(&one, &two, "1 thread vs 2 threads");
}

#[test]
fn v1_grid_search_classifies_identically_with_and_without_early_stop() {
    let space = v1_space();
    let searcher = smoke_grid();
    let variant = SystemVariant::MlsV1;
    let full = search(
        &smoke_config(3, ScenarioFamily::Open, false),
        2,
        variant,
        &space,
        &searcher,
    );
    let early = search(
        &smoke_config(3, ScenarioFamily::Open, true),
        2,
        variant,
        &space,
        &searcher,
    );
    let points_of = |stage: &SearchStage| {
        stage
            .probes
            .iter()
            .map(|probe| probe.point.clone())
            .collect::<Vec<_>>()
    };
    assert!(!full.probes.is_empty(), "the searcher flew no probes");
    assert_eq!(points_of(&full), points_of(&early), "probe points diverged");
    assert_eq!(full.failing_point, early.failing_point);
    assert!(
        early.missions_flown < full.missions_flown,
        "early stopping must save missions here ({} vs {})",
        early.missions_flown,
        full.missions_flown
    );
}

#[test]
fn v2_starvation_x_wind_search_is_thread_independent() {
    let config = smoke_config(3, ScenarioFamily::Open, true);
    let space = FaultSpace::new(
        "eq-v2-starvation-x-wind",
        vec![
            FaultAxis::new(FaultKind::PlannerStarvation, 0.5, 1.0),
            FaultAxis::full(FaultKind::WindGust),
        ],
    );
    let searcher = smoke_grid();
    let variant = SystemVariant::MlsV2;
    let one = search(&config, 1, variant, &space, &searcher);
    let two = search(&config, 2, variant, &space, &searcher);
    assert_eq!(one, two, "1 thread vs 2 threads");
    let three = search(&config, 3, variant, &space, &searcher);
    assert_eq!(two, three, "2 threads vs 3 threads");
}

#[test]
fn v3_cma_search_is_thread_independent() {
    // The CMA-ES searcher feeds measured rates back into its ranking, so
    // equivalence here also pins that batched generations tell identical
    // rates in identical order.
    let config = smoke_config(3, ScenarioFamily::Open, true);
    let space = FaultSpace::new(
        "eq-v3-dropout-x-gps",
        vec![
            FaultAxis::full(FaultKind::DetectionDropout),
            FaultAxis::new(FaultKind::GpsBias, 0.15, 1.0),
        ],
    );
    let searcher = Searcher::CmaEs(CmaEsConfig {
        population: 4,
        generations: 1,
        initial_step: 0.3,
        seed: 7,
    });
    let variant = SystemVariant::MlsV3;
    let one = search(&config, 1, variant, &space, &searcher);
    let two = search(&config, 2, variant, &space, &searcher);
    assert_eq!(one, two, "1 thread vs 2 threads");
    let three = search(&config, 3, variant, &space, &searcher);
    assert_eq!(two, three, "2 threads vs 3 threads");
}

#[test]
fn constrained_space_without_early_stop_is_thread_independent() {
    // Early stopping off: every probe flies its full schedule — full
    // pipeline, on the constrained-pad family (the falsify binary's smoke
    // space, seed 2 as there).
    let config = smoke_config(2, ScenarioFamily::ConstrainedPad, false);
    let space = FaultSpace::new(
        "eq-v3-constrained-occlusion-x-wind",
        vec![
            FaultAxis::full(FaultKind::MarkerOcclusion),
            FaultAxis::full(FaultKind::WindGust),
        ],
    );
    let searcher = smoke_grid();
    let variant = SystemVariant::MlsV3;
    let one = falsify(&config, 1, variant, &space, &searcher, "t1");
    let two = falsify(&config, 2, variant, &space, &searcher, "t2");
    // With early stopping off, every probe flies its full schedule.
    let planned = config.maps * config.scenarios_per_map * config.repeats;
    assert!(
        one.missions_flown >= one.probes.len() * planned,
        "without early stop every probe flies all {planned} missions"
    );
    assert_equivalent(&one, &two, "1 thread vs 2 threads");
}
