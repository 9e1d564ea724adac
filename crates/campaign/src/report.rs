//! Campaign reports: per-cell aggregates, JSON and CSV serialisation.
//!
//! A report is a deterministic function of (spec, seed): the runner
//! summarises each cell from its mission records in global job order, so
//! the same campaign produces byte-identical JSON regardless of how many
//! worker threads flew it — the property the determinism integration tests
//! pin down.

use mls_core::SystemVariant;
use mls_sim_world::ScenarioFamily;
use serde::{Deserialize, Serialize};

use crate::faults::{FaultKind, FaultPlan};
use crate::spec::fault_point_label;
use crate::CampaignError;

/// Escapes one CSV field per RFC 4180: fields containing a comma, a double
/// quote or a line break are wrapped in double quotes, with embedded quotes
/// doubled. Everything else passes through unchanged, so reports without
/// awkward labels render byte-identically to the unescaped form.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Summary of one scalar metric over a cell's missions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Number of samples.
    pub count: u64,
    /// Sample mean.
    pub mean: Option<f64>,
    /// Population standard deviation.
    pub std_dev: Option<f64>,
    /// Smallest sample.
    pub min: Option<f64>,
    /// Largest sample.
    pub max: Option<f64>,
    /// Median: the order statistics linearly interpolated at the 1-based
    /// rank `1 + 0.5·(count − 1)`.
    pub p50: Option<f64>,
    /// 95th percentile, interpolated the same way at rank
    /// `1 + 0.95·(count − 1)`.
    pub p95: Option<f64>,
}

impl MetricSummary {
    /// A summary of zero samples.
    pub fn empty() -> Self {
        Self {
            count: 0,
            mean: None,
            std_dev: None,
            min: None,
            max: None,
            p50: None,
            p95: None,
        }
    }
}

/// How a cell's early-stopped mission schedule was decided: the verdict,
/// and how many of the planned missions were actually flown before the
/// bound closed ([`crate::spec::EarlyStopPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlyStopSummary {
    /// Missions the spec's schedule planned for the cell.
    pub planned: usize,
    /// Missions actually flown (the deterministic decided prefix).
    pub flown: usize,
    /// The decided verdict: `true` when the cell passed (success rate ≥
    /// the policy threshold).
    pub verdict: bool,
    /// The threshold the verdict was decided against.
    pub threshold: f64,
}

/// Aggregates for one (family, variant, profile, fault point) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Cell position in the campaign grid.
    pub index: usize,
    /// Scenario family the cell's suite was generated under.
    pub family: ScenarioFamily,
    /// System generation flown.
    pub variant: SystemVariant,
    /// Compute-profile name.
    pub profile: String,
    /// The fault plans concurrently injected; empty for the baseline cell.
    pub faults: Vec<FaultPlan>,
    /// Missions flown in the cell.
    pub missions: usize,
    /// Fraction of missions ending in [`mls_core::MissionResult::Success`].
    pub success_rate: f64,
    /// Fraction ending in a collision.
    pub collision_rate: f64,
    /// Fraction ending in the poor-landing bucket.
    pub poor_landing_rate: f64,
    /// Fraction of missions a failsafe terminated (V3's safety valve).
    pub failsafe_rate: f64,
    /// Detection false-negative rate pooled over the cell.
    pub false_negative_rate: f64,
    /// Touchdown distance from the true marker, metres (landed missions).
    pub landing_error: MetricSummary,
    /// Mean target-marker detection error per mission, metres.
    pub detection_error: MetricSummary,
    /// Mission duration, seconds.
    pub duration: MetricSummary,
    /// Mean CPU utilisation of the compute platform.
    pub mean_cpu: MetricSummary,
    /// Peak resident memory on the compute platform, MiB.
    pub peak_memory_mb: MetricSummary,
    /// Worst planning latency per mission, seconds.
    pub worst_planning_latency: MetricSummary,
    /// Final GNSS drift magnitude, metres.
    pub gps_drift: MetricSummary,
    /// Early-stop accounting when the spec's
    /// [`probe_early_stop`](crate::CampaignSpec::probe_early_stop) policy
    /// was active for the cell; `None` when every planned mission flew
    /// because no policy was set.
    pub early_stop: Option<EarlyStopSummary>,
}

impl CellReport {
    /// Stable row label (`MLS-V3/desktop-sil/gps-bias@0.500`, multi-fault
    /// plans joined with `+`, non-open families prefixed).
    pub fn label(&self) -> String {
        let base = format!(
            "{}/{}/{}",
            self.variant.label(),
            self.profile,
            fault_point_label(&self.faults)
        );
        match self.family {
            ScenarioFamily::Open => base,
            family => format!("{}/{base}", family.label()),
        }
    }
}

/// One persisted mission trace, linked from the report so forensics can go
/// straight from an aggregate row to the replayable artifact behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLink {
    /// Campaign-grid cell the mission belonged to.
    pub cell_index: usize,
    /// Cell row label (`MLS-V2/desktop-sil/gps-bias@0.500`).
    pub cell_label: String,
    /// Scenario flown.
    pub scenario_id: usize,
    /// Repeat index within the cell.
    pub repeat: usize,
    /// The mission seed (also in the trace header).
    pub seed: u64,
    /// Final mission classification.
    pub result: mls_core::MissionResult,
    /// Fig. 5 triage class assigned to the trace, when one matched.
    pub triage: Option<String>,
    /// Path of the trace file on disk.
    pub path: String,
}

/// A complete campaign result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name, copied from the spec.
    pub name: String,
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Total missions flown.
    pub missions: usize,
    /// Per-cell aggregates, in grid order.
    pub cells: Vec<CellReport>,
    /// Persisted mission traces, in grid order (empty when the spec's
    /// capture policy is `Off`).
    pub traces: Vec<TraceLink>,
}

impl CampaignReport {
    /// Serialises the report as pretty JSON (deterministic for a given
    /// spec + seed).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Serialize`] when serde rejects the value.
    pub fn to_json(&self) -> Result<String, CampaignError> {
        serde_json::to_string_pretty(self).map_err(|e| CampaignError::Serialize(e.to_string()))
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Serialize`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        serde_json::from_str(text).map_err(|e| CampaignError::Serialize(e.to_string()))
    }

    /// Renders the headline columns as CSV (one row per cell). String
    /// fields are escaped per RFC 4180 ([`csv_escape`]), so labels carrying
    /// commas or quotes cannot shift columns.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "cell,family,variant,profile,fault,intensity,missions,success_rate,collision_rate,\
             poor_landing_rate,failsafe_rate,false_negative_rate,mean_landing_error,\
             p95_landing_error,mean_duration,mean_cpu,p95_planning_latency\n",
        );
        for cell in &self.cells {
            let (fault, intensity) = if cell.faults.is_empty() {
                ("baseline".to_string(), String::new())
            } else {
                (
                    cell.faults
                        .iter()
                        .map(|plan| plan.kind.label())
                        .collect::<Vec<_>>()
                        .join("+"),
                    cell.faults
                        .iter()
                        .map(|plan| format!("{:.3}", plan.intensity))
                        .collect::<Vec<_>>()
                        .join("+"),
                )
            };
            let opt = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v:.4}"));
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{},{},{},{},{}\n",
                cell.index,
                cell.family.label(),
                csv_escape(cell.variant.label()),
                csv_escape(&cell.profile),
                csv_escape(&fault),
                csv_escape(&intensity),
                cell.missions,
                cell.success_rate,
                cell.collision_rate,
                cell.poor_landing_rate,
                cell.failsafe_rate,
                cell.false_negative_rate,
                opt(cell.landing_error.mean),
                opt(cell.landing_error.p95),
                opt(cell.duration.mean),
                opt(cell.mean_cpu.mean),
                opt(cell.worst_planning_latency.p95),
            ));
        }
        out
    }

    /// Finds a cell by variant, profile name and single fault kind (`None`
    /// for the baseline cell; multi-fault cells never match). When several
    /// intensities of the same kind exist, the first in grid order is
    /// returned.
    pub fn cell(
        &self,
        variant: SystemVariant,
        profile: &str,
        fault: Option<FaultKind>,
    ) -> Option<&CellReport> {
        self.cell_with_kinds(variant, profile, fault.as_slice())
    }

    /// Finds a cell by variant, profile name and the exact fault-kind
    /// sequence injected, compared in activation order (`&[]` for the
    /// baseline cell). When several cells share the kinds at different
    /// intensities, the first in grid order is returned.
    pub fn cell_with_kinds(
        &self,
        variant: SystemVariant,
        profile: &str,
        kinds: &[FaultKind],
    ) -> Option<&CellReport> {
        self.cells.iter().find(|c| {
            c.variant == variant
                && c.profile == profile
                && c.faults.len() == kinds.len()
                && c.faults
                    .iter()
                    .zip(kinds)
                    .all(|(plan, kind)| plan.kind == *kind)
        })
    }

    /// Finds a cell by scenario family, variant, profile name and single
    /// fault kind (`None` for the baseline cell) — the per-family form of
    /// [`CampaignReport::cell`].
    pub fn cell_in_family(
        &self,
        family: ScenarioFamily,
        variant: SystemVariant,
        profile: &str,
        fault: Option<FaultKind>,
    ) -> Option<&CellReport> {
        let kinds = fault.as_slice();
        self.cells.iter().find(|c| {
            c.family == family
                && c.variant == variant
                && c.profile == profile
                && c.faults.len() == kinds.len()
                && c.faults
                    .iter()
                    .zip(kinds)
                    .all(|(plan, kind)| plan.kind == *kind)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(index: usize, variant: SystemVariant, fault: Option<FaultPlan>) -> CellReport {
        CellReport {
            index,
            family: ScenarioFamily::Open,
            variant,
            profile: "desktop-sil".to_string(),
            faults: fault.into_iter().collect(),
            missions: 4,
            success_rate: 0.75,
            collision_rate: 0.25,
            poor_landing_rate: 0.0,
            failsafe_rate: 0.0,
            false_negative_rate: 0.1,
            landing_error: MetricSummary::empty(),
            detection_error: MetricSummary::empty(),
            duration: MetricSummary::empty(),
            mean_cpu: MetricSummary::empty(),
            peak_memory_mb: MetricSummary::empty(),
            worst_planning_latency: MetricSummary::empty(),
            gps_drift: MetricSummary::empty(),
            early_stop: None,
        }
    }

    fn report() -> CampaignReport {
        CampaignReport {
            name: "t".to_string(),
            seed: 1,
            missions: 8,
            cells: vec![
                cell(0, SystemVariant::MlsV1, None),
                cell(
                    1,
                    SystemVariant::MlsV1,
                    Some(FaultPlan::new(FaultKind::GpsBias, 0.5)),
                ),
            ],
            traces: vec![TraceLink {
                cell_index: 1,
                cell_label: "MLS-V1/desktop-sil/gps-bias@0.500".to_string(),
                scenario_id: 3,
                repeat: 0,
                seed: 99,
                result: mls_core::MissionResult::PoorLanding,
                triage: Some("gps-drift".to_string()),
                path: "traces/t/c001-s003-r0.jsonl".to_string(),
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_the_report() {
        let mut early_stopped = report();
        early_stopped.cells[1].early_stop = Some(EarlyStopSummary {
            planned: 8,
            flown: 3,
            verdict: false,
            threshold: 0.75,
        });
        for report in [report(), early_stopped] {
            let json = report.to_json().unwrap();
            let parsed = CampaignReport::from_json(&json).unwrap();
            assert_eq!(report, parsed);
        }
    }

    #[test]
    fn every_report_and_cell_key_is_required() {
        let value = serde_json::parse(&report().to_json().unwrap()).unwrap();
        crate::tests::assert_every_key_is_required(&value, CampaignReport::from_json);
        let Some(serde::Value::Array(cells)) = value.get("cells") else {
            panic!("cells serialise to an array");
        };
        crate::tests::assert_every_key_is_required(&cells[1], serde_json::from_str::<CellReport>);
    }

    #[test]
    fn multi_fault_cells_render_joined_labels_and_csv_columns() {
        let mut report = report();
        report.cells[1].faults = vec![
            FaultPlan::new(FaultKind::MarkerOcclusion, 0.4),
            FaultPlan::new(FaultKind::GpsBias, 0.6),
        ];
        assert_eq!(
            report.cells[1].label(),
            "MLS-V1/desktop-sil/marker-occlusion@0.400+gps-bias@0.600"
        );
        let csv = report.to_csv();
        let row = csv.lines().nth(2).unwrap();
        assert!(row.contains("marker-occlusion+gps-bias"), "{row}");
        assert!(row.contains("0.400+0.600"), "{row}");
        // The exact-kinds lookup finds it; the single-kind lookup does not.
        assert!(report
            .cell_with_kinds(
                SystemVariant::MlsV1,
                "desktop-sil",
                &[FaultKind::MarkerOcclusion, FaultKind::GpsBias],
            )
            .is_some());
        assert!(report
            .cell(
                SystemVariant::MlsV1,
                "desktop-sil",
                Some(FaultKind::GpsBias)
            )
            .is_none());
    }

    #[test]
    fn csv_has_one_row_per_cell_plus_header() {
        let csv = report().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(2).unwrap().contains("gps-bias"));
    }

    /// Splits one CSV record respecting RFC 4180 quoting — what any
    /// conforming reader does, and what the escaping must keep stable.
    fn parse_csv_record(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    #[test]
    fn csv_fields_with_commas_and_quotes_are_escaped_per_rfc_4180() {
        let mut report = report();
        // A profile label an operator could plausibly type: commas + quotes.
        report.cells[1].profile = "jetson nano, 10W \"maxn\"".to_string();
        let csv = report.to_csv();
        let header_columns = parse_csv_record(csv.lines().next().unwrap()).len();
        for line in csv.lines().skip(1) {
            let fields = parse_csv_record(line);
            assert_eq!(
                fields.len(),
                header_columns,
                "row has shifted columns: {line}"
            );
        }
        let row = parse_csv_record(csv.lines().nth(2).unwrap());
        assert_eq!(row[3], "jetson nano, 10W \"maxn\"");
        // The raw line carries the doubled-quote escaped form.
        assert!(csv.contains("\"jetson nano, 10W \"\"maxn\"\"\""));
        // Unescaped reports render exactly as before (no spurious quoting).
        assert!(!report.to_csv().lines().nth(1).unwrap().contains('"'));
    }

    #[test]
    fn csv_escape_passes_clean_fields_through() {
        assert_eq!(csv_escape("gps-bias@0.500"), "gps-bias@0.500");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn family_aware_lookups_and_labels() {
        let mut report = report();
        report.cells[1].family = ScenarioFamily::ConstrainedPad;
        assert_eq!(
            report.cells[1].label(),
            "constrained-pad/MLS-V1/desktop-sil/gps-bias@0.500"
        );
        assert!(report
            .cell_in_family(
                ScenarioFamily::ConstrainedPad,
                SystemVariant::MlsV1,
                "desktop-sil",
                Some(FaultKind::GpsBias),
            )
            .is_some());
        assert!(report
            .cell_in_family(
                ScenarioFamily::Open,
                SystemVariant::MlsV1,
                "desktop-sil",
                Some(FaultKind::GpsBias),
            )
            .is_none());
        // The CSV carries the family column.
        let row = parse_csv_record(report.to_csv().lines().nth(2).unwrap());
        assert_eq!(row[1], "constrained-pad");
    }

    #[test]
    fn cell_lookup_by_fault_kind() {
        let report = report();
        assert!(report
            .cell(SystemVariant::MlsV1, "desktop-sil", None)
            .is_some());
        let gps = report
            .cell(
                SystemVariant::MlsV1,
                "desktop-sil",
                Some(FaultKind::GpsBias),
            )
            .unwrap();
        assert_eq!(gps.index, 1);
        assert!(report
            .cell(SystemVariant::MlsV3, "desktop-sil", None)
            .is_none());
        assert!(report.cells[1].label().contains("gps-bias@0.500"));
    }
}
