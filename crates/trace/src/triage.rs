//! Automated failure triage: maps a trace onto the paper's Fig. 5 failure
//! taxonomy.
//!
//! The paper's most instructive artifacts are its four failure narratives —
//! (a) path-planning failure in front of a large obstacle, (b) collision
//! while turning close to an obstacle, (c) erroneous point clouds under pose
//! drift, (d) silent GPS drift in poor weather. Each leaves a distinctive
//! signature in the event stream, so a failed mission's trace can be
//! classified without a human re-flying it:
//!
//! | Class | Signature |
//! |---|---|
//! | [`Fig5Class::MapCorruption`] | tampered map updates (dropped/displaced points) |
//! | [`Fig5Class::PlannerExhaustion`] | failed planning queries or straight-line fallbacks |
//! | [`Fig5Class::TrajectoryLagCollision`] | a collision with every plan healthy |
//! | [`Fig5Class::GpsDrift`] | an injected GNSS bias, or drift / estimation error beyond thresholds |
//! | [`Fig5Class::PerceptionLoss`] | a marker-loss / search-exhausted failsafe, or a mission-timeout stall with long blind gaps in the marker stream, with nothing structural to blame |
//!
//! Signatures are checked in that order: corruption and exhaustion explain a
//! downstream collision better than "the controller lagged", drift only
//! claims missions nothing structural explains, and perception loss claims
//! the blind-but-otherwise-healthy aborts (occluded or washed-out markers —
//! the constrained-pad falsification counterexamples land here). The first
//! four classes are the paper's published panels; perception loss extends
//! the taxonomy for failures Fig. 5 had no panel for. Successful missions
//! are never classified.

use serde::{Deserialize, Serialize};

use crate::event::TraceEvent;
use crate::format::Trace;
use mls_core::{MissionResult, ObservationStage};

/// Natural GNSS random-walk drift, metres, beyond which a mission is
/// drift-suspect even without an injected bias.
const DRIFT_THRESHOLD: f64 = 2.5;

/// Estimation error, metres, beyond which the pose estimate is considered
/// broken (an injected bias shows up here even when the natural drift is
/// small).
const ESTIMATION_ERROR_THRESHOLD: f64 = 4.0;

/// Injected GNSS bias, metres, that counts as a GPS fault signature.
const GPS_BIAS_THRESHOLD: f64 = 0.1;

/// A gap in the marker-sighting stream (non-empty post-fault frames),
/// seconds, long enough to count as a blind interval. Detection runs at
/// sub-second cadence in every configuration, so occlusion bursts (which
/// wash frames out before detection, leaving no event) and dropout (which
/// clears frames after it, leaving empty post-fault events) both open gaps
/// this long while the airframe stalls blind until the mission timeout.
const BLIND_GAP_SECONDS: f64 = 10.0;

/// The Fig. 5 failure classes — the paper's four panels plus the
/// perception-loss extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fig5Class {
    /// (a) The bounded planner exhausted its search pool (or fell back to an
    /// unchecked straight line).
    PlannerExhaustion,
    /// (b) The airframe collided while every planning query was healthy —
    /// trajectory-following lag cut the corner.
    TrajectoryLagCollision,
    /// (c) The occupancy map was built from corrupted point clouds.
    MapCorruption,
    /// (d) The GNSS solution drifted (or was biased) without a visible
    /// health indication.
    GpsDrift,
    /// The mission went blind — the target marker stayed lost (occlusion,
    /// washed-out frames) until a marker-loss / search-exhausted failsafe
    /// ended it, or the mission timed out while the sighting stream went
    /// dark for long stretches — with no structural signature to blame. Not
    /// a paper panel; the extension the constrained-pad falsification space
    /// needs.
    PerceptionLoss,
}

impl Fig5Class {
    /// Every class: the paper's (a)–(d) panels, then the extension.
    pub const ALL: [Fig5Class; 5] = [
        Fig5Class::PlannerExhaustion,
        Fig5Class::TrajectoryLagCollision,
        Fig5Class::MapCorruption,
        Fig5Class::GpsDrift,
        Fig5Class::PerceptionLoss,
    ];

    /// Stable label used in reports ("planner-exhaustion").
    pub fn label(self) -> &'static str {
        match self {
            Fig5Class::PlannerExhaustion => "planner-exhaustion",
            Fig5Class::TrajectoryLagCollision => "trajectory-lag-collision",
            Fig5Class::MapCorruption => "map-corruption",
            Fig5Class::GpsDrift => "gps-drift",
            Fig5Class::PerceptionLoss => "perception-loss",
        }
    }

    /// The paper's Fig. 5 panel letter (`'+'` for the perception-loss
    /// extension, which has no published panel).
    pub fn panel(self) -> char {
        match self {
            Fig5Class::PlannerExhaustion => 'a',
            Fig5Class::TrajectoryLagCollision => 'b',
            Fig5Class::MapCorruption => 'c',
            Fig5Class::GpsDrift => 'd',
            Fig5Class::PerceptionLoss => '+',
        }
    }
}

/// What the classifier concluded about one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriageReport {
    /// The assigned class, or `None` for successful / unexplained missions.
    pub class: Option<Fig5Class>,
    /// The mission's final result, if the trace recorded one.
    pub result: Option<MissionResult>,
    /// Human-readable evidence lines backing the verdict.
    pub evidence: Vec<String>,
    /// Failed planning queries.
    pub plan_failures: usize,
    /// Straight-line fallbacks taken.
    pub plan_fallbacks: usize,
    /// Tampered map updates.
    pub tampered_map_updates: usize,
    /// Maximum natural GNSS drift seen, metres.
    pub max_gps_drift: f64,
    /// Maximum estimation error seen, metres.
    pub max_estimation_error: f64,
    /// `true` when a GNSS bias fault was active at some point.
    pub gps_fault_active: bool,
    /// Longest gap in the marker-sighting stream, seconds — sightings are
    /// non-empty *post-fault* frames, and the tail from the last sighting
    /// to mission end counts. When the raw detector saw markers but no
    /// sighting ever survived the fault hooks, the gap spans from the first
    /// marker evidence to mission end. `0.0` when the trace carries no
    /// marker events at all.
    pub max_marker_gap: f64,
}

/// Classifies a trace against the Fig. 5 taxonomy.
pub fn triage(trace: &Trace) -> TriageReport {
    let mut result = None;
    let mut plan_failures = 0usize;
    let mut plan_fallbacks = 0usize;
    let mut tampered = 0usize;
    let mut max_drift = 0.0f64;
    let mut max_estimation_error = 0.0f64;
    let mut gps_fault = false;
    let mut perception_failsafe = false;
    let mut timeout_failsafe = false;
    let mut failsafes: Vec<String> = Vec::new();
    let mut sighting_times: Vec<f64> = Vec::new();
    let mut first_marker_evidence = None;
    let mut end_time = None;

    for event in &trace.events {
        match event {
            TraceEvent::PlanResult {
                success, fallback, ..
            } => {
                if !success {
                    plan_failures += 1;
                }
                if *fallback {
                    plan_fallbacks += 1;
                }
            }
            TraceEvent::MapUpdate {
                dropped, displaced, ..
            } if dropped + displaced > 0 => tampered += 1,
            TraceEvent::Tick {
                gps_drift,
                estimation_error,
                ..
            } => {
                max_drift = max_drift.max(*gps_drift);
                max_estimation_error = max_estimation_error.max(*estimation_error);
            }
            TraceEvent::FaultActive { gps_bias, .. } if gps_bias.norm() > GPS_BIAS_THRESHOLD => {
                gps_fault = true;
            }
            TraceEvent::Markers {
                time,
                stage,
                markers,
            } => {
                // Any Markers event is evidence the raw detector had markers
                // to see (the recorder emits one only when the pre-fault
                // frame saw something, or to log a fault-swallowed frame).
                // A *sighting* is what survived the fault hooks: a non-empty
                // post-fault frame. Empty post-fault frames are blindness,
                // not sightings.
                if first_marker_evidence.is_none() {
                    first_marker_evidence = Some(*time);
                }
                if *stage == ObservationStage::PostFault
                    && !markers.is_empty()
                    && sighting_times.last() != Some(time)
                {
                    sighting_times.push(*time);
                }
            }
            TraceEvent::Failsafe { time, reason } => {
                if matches!(
                    reason,
                    mls_core::FailsafeReason::MarkerLost
                        | mls_core::FailsafeReason::SearchExhausted
                ) {
                    perception_failsafe = true;
                }
                if matches!(reason, mls_core::FailsafeReason::MissionTimeout) {
                    timeout_failsafe = true;
                }
                failsafes.push(format!("failsafe {reason:?} at t={time:.1}s"));
            }
            TraceEvent::MissionEnd { result: r, time } => {
                result = Some(*r);
                end_time = Some(*time);
            }
            _ => {}
        }
    }

    // Occlusion washes frames out *before* detection (no Markers event at
    // all), dropout clears them *after* (an empty post-fault frame), so
    // blind intervals appear as gaps in the sighting stream either way.
    // Approach flight (before any Markers event) is not blindness, but
    // everything from the first marker evidence on is: the stretch to the
    // first surviving sighting, the gaps between sightings, and the tail
    // from the last sighting (or the first evidence, when nothing survived
    // the fault hooks) to mission end.
    let mut max_marker_gap = 0.0f64;
    for pair in sighting_times.windows(2) {
        max_marker_gap = max_marker_gap.max(pair[1] - pair[0]);
    }
    if let Some(first_evidence) = first_marker_evidence {
        if let Some(&first_sighting) = sighting_times.first() {
            max_marker_gap = max_marker_gap.max(first_sighting - first_evidence);
        }
        let last_seen = sighting_times.last().copied().unwrap_or(first_evidence);
        if let Some(end) = end_time {
            max_marker_gap = max_marker_gap.max(end - last_seen);
        }
    }
    // A mission that timed out while the marker stream went dark for long
    // stretches stalled blind — the occlusion-burst signature, which never
    // trips the marker-loss failsafe because sightings keep (re)appearing
    // between bursts.
    let blind_stall =
        timeout_failsafe && first_marker_evidence.is_some() && max_marker_gap >= BLIND_GAP_SECONDS;

    let collision = result == Some(MissionResult::CollisionFailure);
    let mut evidence = Vec::new();
    if trace.header.dropped_events > 0 {
        // Eviction can remove the discriminating early events (a lone
        // fallback plan, the fault-activation edge), so a class assigned to
        // a truncated trace deserves scepticism.
        evidence.push(format!(
            "CAUTION: the ring buffer evicted {} events; early signatures may be missing",
            trace.header.dropped_events
        ));
    }
    evidence.extend(failsafes);
    let class = if result == Some(MissionResult::Success) {
        evidence.push("mission succeeded; nothing to triage".to_string());
        None
    } else if tampered > 0 {
        evidence.push(format!(
            "{tampered} map updates carried dropped or displaced points"
        ));
        Some(Fig5Class::MapCorruption)
    } else if plan_failures + plan_fallbacks > 0 {
        evidence.push(format!(
            "{plan_failures} planning queries failed, {plan_fallbacks} straight-line fallbacks"
        ));
        Some(Fig5Class::PlannerExhaustion)
    } else if collision {
        evidence.push(
            "collision with every planning query healthy: trajectory-following lag".to_string(),
        );
        Some(Fig5Class::TrajectoryLagCollision)
    } else if gps_fault
        || max_drift > DRIFT_THRESHOLD
        || max_estimation_error > ESTIMATION_ERROR_THRESHOLD
    {
        evidence.push(format!(
            "GNSS bias fault active: {gps_fault}; max drift {max_drift:.2} m; \
             max estimation error {max_estimation_error:.2} m"
        ));
        Some(Fig5Class::GpsDrift)
    } else if perception_failsafe || blind_stall {
        if perception_failsafe {
            evidence.push(
                "marker lost / search exhausted with healthy plans, map and GNSS: \
                 perception loss"
                    .to_string(),
            );
        } else {
            evidence.push(format!(
                "mission timed out with healthy plans, map and GNSS while the marker \
                 stream went dark for {max_marker_gap:.1} s: perception loss"
            ));
        }
        Some(Fig5Class::PerceptionLoss)
    } else {
        evidence.push("no Fig. 5 signature matched".to_string());
        None
    };

    TriageReport {
        class,
        result,
        evidence,
        plan_failures,
        plan_fallbacks,
        tampered_map_updates: tampered,
        max_gps_drift: max_drift,
        max_estimation_error,
        gps_fault_active: gps_fault,
        max_marker_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{config_hash, TraceHeader, TRACE_FORMAT_VERSION};
    use mls_core::{FailsafeReason, SystemVariant};
    use mls_geom::Vec3;

    fn fault_active_event(time: f64, gps_bias: Vec3) -> TraceEvent {
        TraceEvent::FaultActive {
            time,
            gps_bias,
            wind: Vec3::ZERO,
            compute_throttle: 1.0,
        }
    }

    fn trace_with(events: Vec<TraceEvent>) -> Trace {
        Trace {
            header: TraceHeader {
                version: TRACE_FORMAT_VERSION,
                campaign: "triage-test".to_string(),
                seed: 1,
                variant: SystemVariant::MlsV2,
                scenario_id: 0,
                scenario_name: "s".to_string(),
                family: "open".to_string(),
                cell_index: 0,
                repeat: 0,
                config_hash: config_hash("{}"),
                tick_decimation: 25,
                map_decimation: 8,
                capacity: 1024,
                dropped_events: 0,
                coordinates: Vec::new(),
            },
            events,
        }
    }

    fn tick(time: f64, gps_drift: f64, estimation_error: f64) -> TraceEvent {
        TraceEvent::Tick {
            time,
            position: Vec3::new(0.0, 0.0, 10.0),
            velocity: Vec3::ZERO,
            estimated: Vec3::new(0.0, 0.0, 10.0),
            gps_drift,
            estimation_error,
        }
    }

    fn end(result: MissionResult) -> TraceEvent {
        TraceEvent::MissionEnd {
            time: 100.0,
            result,
        }
    }

    #[test]
    fn planner_exhaustion_is_case_a() {
        let report = triage(&trace_with(vec![
            TraceEvent::PlanRequest {
                time: 40.0,
                start: Vec3::new(0.0, 0.0, 10.0),
                goal: Vec3::new(40.0, 0.0, 10.0),
            },
            TraceEvent::PlanResult {
                time: 40.0,
                success: true,
                fallback: true,
                latency: 0.2,
                iterations: 2000,
            },
            end(MissionResult::CollisionFailure),
        ]));
        assert_eq!(report.class, Some(Fig5Class::PlannerExhaustion));
        assert_eq!(report.plan_fallbacks, 1);
        assert_eq!(report.class.unwrap().panel(), 'a');
    }

    #[test]
    fn clean_collision_is_case_b() {
        let report = triage(&trace_with(vec![
            TraceEvent::PlanResult {
                time: 40.0,
                success: true,
                fallback: false,
                latency: 0.1,
                iterations: 500,
            },
            tick(41.0, 0.3, 0.2),
            end(MissionResult::CollisionFailure),
        ]));
        assert_eq!(report.class, Some(Fig5Class::TrajectoryLagCollision));
        assert_eq!(report.class.unwrap().panel(), 'b');
    }

    #[test]
    fn tampered_map_updates_are_case_c() {
        let report = triage(&trace_with(vec![
            TraceEvent::MapUpdate {
                time: 35.0,
                inserted: 120,
                dropped: 30,
                displaced: 90,
            },
            end(MissionResult::PoorLanding),
        ]));
        assert_eq!(report.class, Some(Fig5Class::MapCorruption));
        assert_eq!(report.tampered_map_updates, 1);
        assert_eq!(report.class.unwrap().panel(), 'c');
    }

    #[test]
    fn gps_bias_fault_or_raw_drift_is_case_d() {
        let biased = triage(&trace_with(vec![
            fault_active_event(50.0, Vec3::new(6.0, 0.0, 0.0)),
            tick(60.0, 0.4, 6.1),
            end(MissionResult::PoorLanding),
        ]));
        assert_eq!(biased.class, Some(Fig5Class::GpsDrift));
        assert!(biased.gps_fault_active);

        let drifted = triage(&trace_with(vec![
            tick(60.0, 3.2, 3.0),
            end(MissionResult::PoorLanding),
        ]));
        assert_eq!(drifted.class, Some(Fig5Class::GpsDrift));
        assert_eq!(drifted.class.unwrap().panel(), 'd');
    }

    #[test]
    fn successful_missions_are_never_classified() {
        let report = triage(&trace_with(vec![
            TraceEvent::MapUpdate {
                time: 35.0,
                inserted: 120,
                dropped: 30,
                displaced: 90,
            },
            end(MissionResult::Success),
        ]));
        assert_eq!(report.class, None);
        assert_eq!(report.result, Some(MissionResult::Success));
    }

    #[test]
    fn blind_failsafe_aborts_are_perception_loss() {
        let report = triage(&trace_with(vec![
            TraceEvent::Failsafe {
                time: 90.0,
                reason: FailsafeReason::SearchExhausted,
            },
            end(MissionResult::PoorLanding),
        ]));
        assert_eq!(report.class, Some(Fig5Class::PerceptionLoss));
        assert_eq!(report.class.unwrap().panel(), '+');
        assert!(report
            .evidence
            .iter()
            .any(|line| line.contains("SearchExhausted")));
    }

    fn sighting(time: f64) -> TraceEvent {
        TraceEvent::Markers {
            time,
            stage: mls_core::ObservationStage::PostFault,
            markers: vec![crate::event::MarkerSighting {
                id: 7,
                position: Vec3::new(1.0, 2.0, 0.0),
                confidence: 0.9,
            }],
        }
    }

    #[test]
    fn blind_timeout_stalls_are_perception_loss() {
        // Occlusion bursts wash frames out before detection, so the recorder
        // logs nothing during a burst: the trace shows sightings, a long dark
        // gap, sightings again, then a mission-timeout abort.
        let report = triage(&trace_with(vec![
            sighting(10.0),
            sighting(11.0),
            sighting(40.0),
            TraceEvent::PlanResult {
                time: 50.0,
                success: true,
                fallback: false,
                latency: 0.1,
                iterations: 500,
            },
            sighting(95.0),
            TraceEvent::Failsafe {
                time: 120.0,
                reason: FailsafeReason::MissionTimeout,
            },
            end(MissionResult::PoorLanding),
        ]));
        assert_eq!(report.class, Some(Fig5Class::PerceptionLoss));
        assert!((report.max_marker_gap - 55.0).abs() < 1e-9);
        assert!(report
            .evidence
            .iter()
            .any(|line| line.contains("went dark for 55.0 s")));
    }

    #[test]
    fn dropout_swallowed_frames_count_as_blindness() {
        // Detection dropout clears observations *after* the fault hook: the
        // recorder logs the non-empty pre-fault frame plus an empty
        // post-fault frame at every tick, so the stream has Markers events
        // at detection cadence but zero surviving sightings.
        let mut events = Vec::new();
        for i in 0..20 {
            let time = 10.0 + i as f64 * 4.0;
            events.push(TraceEvent::Markers {
                time,
                stage: ObservationStage::PreFault,
                markers: vec![crate::event::MarkerSighting {
                    id: 7,
                    position: Vec3::new(1.0, 2.0, 0.0),
                    confidence: 0.9,
                }],
            });
            events.push(TraceEvent::Markers {
                time,
                stage: ObservationStage::PostFault,
                markers: Vec::new(),
            });
        }
        events.push(TraceEvent::Failsafe {
            time: 95.0,
            reason: FailsafeReason::MissionTimeout,
        });
        events.push(end(MissionResult::PoorLanding));
        let report = triage(&trace_with(events));
        assert_eq!(report.class, Some(Fig5Class::PerceptionLoss));
        // Blind from the first marker evidence (t=10) to mission end (t=100).
        assert!((report.max_marker_gap - 90.0).abs() < 1e-9);
    }

    #[test]
    fn leading_blindness_before_the_first_sighting_counts() {
        // Dropout active from the first visible frame until t=70: the only
        // sightings are a dense burst right before the timeout, so every
        // sighting-to-sighting gap is small — the blind window is the
        // stretch from the first marker evidence to the first sighting.
        let mut events = vec![
            TraceEvent::Markers {
                time: 10.0,
                stage: ObservationStage::PreFault,
                markers: vec![crate::event::MarkerSighting {
                    id: 7,
                    position: Vec3::new(1.0, 2.0, 0.0),
                    confidence: 0.9,
                }],
            },
            TraceEvent::Markers {
                time: 10.0,
                stage: ObservationStage::PostFault,
                markers: Vec::new(),
            },
        ];
        for i in 0..30 {
            events.push(sighting(70.0 + i as f64));
        }
        events.push(TraceEvent::Failsafe {
            time: 99.5,
            reason: FailsafeReason::MissionTimeout,
        });
        events.push(end(MissionResult::PoorLanding));
        let report = triage(&trace_with(events));
        assert_eq!(report.class, Some(Fig5Class::PerceptionLoss));
        assert!((report.max_marker_gap - 60.0).abs() < 1e-9);
    }

    #[test]
    fn timeouts_with_a_continuous_marker_stream_stay_unclassified() {
        let mut events: Vec<TraceEvent> = (0..25).map(|i| sighting(i as f64 * 5.0)).collect();
        events.push(TraceEvent::Failsafe {
            time: 122.0,
            reason: FailsafeReason::MissionTimeout,
        });
        events.push(end(MissionResult::PoorLanding));
        let report = triage(&trace_with(events));
        assert_eq!(report.class, None);
        assert!(report.max_marker_gap < BLIND_GAP_SECONDS);
    }

    #[test]
    fn failures_without_any_signature_stay_unclassified() {
        let report = triage(&trace_with(vec![
            tick(60.0, 0.2, 0.1),
            end(MissionResult::PoorLanding),
        ]));
        assert_eq!(report.class, None);
        assert!(report
            .evidence
            .iter()
            .any(|line| line.contains("no Fig. 5 signature matched")));
    }

    #[test]
    fn evicted_events_are_flagged_in_the_evidence() {
        let mut trace = trace_with(vec![end(MissionResult::CollisionFailure)]);
        trace.header.dropped_events = 137;
        let report = triage(&trace);
        assert_eq!(report.class, Some(Fig5Class::TrajectoryLagCollision));
        assert!(
            report
                .evidence
                .iter()
                .any(|line| line.contains("evicted 137 events")),
            "{:?}",
            report.evidence
        );
    }

    #[test]
    fn labels_and_order_are_stable() {
        assert_eq!(Fig5Class::ALL.len(), 5);
        assert_eq!(Fig5Class::MapCorruption.label(), "map-corruption");
        assert_eq!(Fig5Class::PerceptionLoss.label(), "perception-loss");
        let panels: Vec<char> = Fig5Class::ALL.iter().map(|c| c.panel()).collect();
        assert_eq!(panels, vec!['a', 'b', 'c', 'd', '+']);
    }
}
