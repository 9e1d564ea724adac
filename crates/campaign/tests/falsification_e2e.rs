//! End-to-end integration tests for the multi-dimensional falsification
//! pipeline: multi-fault (combo) cells fly deterministically, captured
//! traces carry their fault-space coordinates and replay byte-identically,
//! and the search → minimize → capture chain produces a triaged, replayable
//! counterexample. The flown report and the searched result both read back
//! and re-serialise byte for byte.
//!
//! Traces land under `target/test-traces/` so CI can upload them as a
//! workflow artifact for post-mortem inspection.

use std::path::PathBuf;

use mls_campaign::{
    CampaignReport, CampaignRunner, CampaignSpec, FalsificationConfig, FalsificationReport,
    FalsificationSearch, FaultAxis, FaultKind, FaultPlan, FaultSpace, GridRefinementConfig,
    Searcher, TracePolicy,
};
use mls_core::SystemVariant;
use mls_trace::Trace;

/// Stable artifact directory (uploaded by the CI workflow).
fn trace_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-traces")
        .join(name)
}

/// A combo campaign known to fail: MLS-V1 blinded by occlusion bursts while
/// a strong GNSS bias walks the landing away from the marker.
fn combo_spec() -> CampaignSpec {
    let mut spec = CampaignSpec {
        name: "combo-replay".to_string(),
        seed: 2025,
        maps: 1,
        scenarios_per_map: 4,
        repeats: 1,
        variants: vec![SystemVariant::MlsV1],
        baseline: false,
        combos: vec![vec![
            FaultPlan::new(FaultKind::MarkerOcclusion, 0.6),
            FaultPlan::new(FaultKind::GpsBias, 0.8),
        ]],
        capture: TracePolicy::FailuresOnly,
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 150.0;
    spec.executor.max_duration = 180.0;
    spec
}

#[test]
fn multi_fault_cells_stamp_coordinates_and_replay_byte_identically() {
    let spec = combo_spec();
    let dir = trace_root("combo-replay");
    let runner = CampaignRunner::new(2).with_trace_dir(&dir);
    let report = runner.run(&spec).unwrap();

    assert_eq!(report.cells.len(), 1);
    assert_eq!(report.cells[0].faults.len(), 2);
    assert!(
        !report.traces.is_empty(),
        "a blinded, biased MLS-V1 campaign must fail somewhere"
    );

    // Every captured trace is self-describing about its fault-space point.
    for link in &report.traces {
        let trace = Trace::read_from(std::path::Path::new(&link.path)).unwrap();
        let coordinates = &trace.header.coordinates;
        assert_eq!(coordinates.len(), 2, "one coordinate per injected plan");
        assert_eq!(coordinates[0].axis, "marker-occlusion");
        assert_eq!(coordinates[0].value, 0.6);
        assert_eq!(coordinates[1].axis, "gps-bias");
        assert_eq!(coordinates[1].value, 0.8);
    }

    // Composite injection is deterministic: replay regenerates the stream
    // byte for byte, coordinates included.
    let scenarios = runner.generate_scenarios(&spec).unwrap();
    let recorded = Trace::read_from(std::path::Path::new(&report.traces[0].path)).unwrap();
    let verdict = runner.replay(&spec, &scenarios, &recorded).unwrap();
    assert!(verdict.is_identical(), "combo replay diverged: {verdict}");

    // The flown report (multi-fault cells, trace links) reads back and
    // re-serialises byte for byte.
    let json = report.to_json().unwrap();
    let parsed = CampaignReport::from_json(&json).unwrap();
    assert_eq!(parsed.to_json().unwrap(), json);
}

#[test]
fn multi_fault_streams_are_thread_count_independent() {
    let spec = combo_spec();
    let single = CampaignRunner::new(1)
        .with_trace_dir(trace_root("combo-1thread"))
        .run(&spec)
        .unwrap();
    let sharded = CampaignRunner::new(3)
        .with_trace_dir(trace_root("combo-3threads"))
        .run(&spec)
        .unwrap();
    assert_eq!(single.traces.len(), sharded.traces.len());
    assert!(!single.traces.is_empty());
    for (a, b) in single.traces.iter().zip(sharded.traces.iter()) {
        let trace_a = Trace::read_from(std::path::Path::new(&a.path)).unwrap();
        let trace_b = Trace::read_from(std::path::Path::new(&b.path)).unwrap();
        assert_eq!(
            trace_a.to_jsonl().unwrap(),
            trace_b.to_jsonl().unwrap(),
            "combo streams must not depend on the worker-thread count"
        );
    }
}

#[test]
fn falsification_searches_minimizes_and_ships_a_replayable_counterexample() {
    // The MLS-V1 occlusion × GNSS-bias space over a suite the baseline
    // lands clean (seed 3; see the falsify harness): the search must find a
    // failing point, shrink it onto the frontier and capture its trace.
    let mut config = FalsificationConfig {
        seed: 3,
        maps: 1,
        scenarios_per_map: 2,
        repeats: 1,
        failure_threshold: 0.75,
        minimizer_passes: 1,
        minimizer_bisections: 2,
        ..FalsificationConfig::default()
    };
    config.landing.mission_timeout = 120.0;
    config.executor.max_duration = 150.0;
    let search =
        FalsificationSearch::new(config, 2).with_trace_dir(trace_root("falsify-counterexample"));
    let space = FaultSpace::new(
        "it-occlusion-x-gps",
        vec![
            FaultAxis::full(FaultKind::MarkerOcclusion),
            FaultAxis::new(FaultKind::GpsBias, 0.15, 1.0),
        ],
    );
    let searcher = Searcher::GridRefinement(GridRefinementConfig {
        resolution: 3,
        rounds: 1,
    });
    let result = search
        .falsify(SystemVariant::MlsV1, &space, &searcher)
        .unwrap();

    assert!(
        result.baseline_success_rate >= 0.75,
        "the baseline must pass for the search to be meaningful, got {}",
        result.baseline_success_rate
    );
    assert!(!result.probes.is_empty());
    let ce = result
        .counterexample
        .as_ref()
        .expect("the all-axes-at-max corner falsifies MLS-V1");
    assert_eq!(ce.point.len(), 2);
    assert!(
        ce.success_rate < 0.75,
        "the counterexample must actually fail: {}",
        ce.success_rate
    );
    // The GNSS floor guarantees a classifiable signature.
    let link = ce.trace.as_ref().expect("a failing probe leaves a trace");
    assert!(link.triage.is_some(), "counterexample traces triage");
    assert_eq!(ce.replay_identical, Some(true), "replay must verify");
    // The persisted trace exists and carries the minimized coordinates.
    let trace = Trace::read_from(std::path::Path::new(&link.path)).unwrap();
    assert_eq!(trace.header.coordinates.len(), 2);
    for (coordinate, plan) in trace.header.coordinates.iter().zip(&ce.plans) {
        assert_eq!(coordinate.axis, plan.kind.label());
        assert!((coordinate.value - plan.intensity).abs() < 1e-12);
    }

    // The searched result (counterexample, trace link, triage) reads back
    // and re-serialises byte for byte.
    let json = FalsificationReport {
        results: vec![result],
    }
    .to_json()
    .unwrap();
    let parsed = FalsificationReport::from_json(&json).unwrap();
    assert_eq!(parsed.to_json().unwrap(), json);
}
