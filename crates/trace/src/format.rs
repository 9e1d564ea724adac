//! The on-disk trace format: versioned-header JSON lines.
//!
//! A trace file is plain text. Line 1 is the [`TraceHeader`] — format
//! version, mission identity (seed, variant, scenario), campaign coordinates
//! (cell, repeat), the spec hash and the recorder parameters — and every
//! following line is one compact-JSON [`TraceEvent`]. The encoding is
//! deterministic (the vendored `serde_json` keeps field order and prints
//! floats with the shortest round-trip form), which is what makes replay a
//! byte comparison rather than a tolerance game.

use std::fs;
use std::path::Path;

use mls_core::SystemVariant;
use serde::{Deserialize, Serialize};

use crate::event::TraceEvent;
use crate::TraceError;

/// Current trace-format version, bumped on any incompatible change.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// FNV-1a hash of a configuration's canonical JSON, embedded in headers so a
/// replay against a drifted spec is rejected instead of silently diverging.
pub fn config_hash(canonical_json: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canonical_json.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One coordinate of the fault-space point a mission flew: an axis label
/// (the fault kind's report label) and the intensity injected along it.
///
/// Campaign runners stamp these into every captured header, so a trace is
/// self-describing about *where in the fault space* it was recorded — the
/// falsification search relies on this to ship minimal counterexamples as
/// standalone artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisCoordinate {
    /// Axis label (`"gps-bias"`, `"marker-occlusion"`, …).
    pub axis: String,
    /// Intensity injected along the axis, in `[0, 1]`.
    pub value: f64,
}

/// The versioned first line of every trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Trace-format version ([`TRACE_FORMAT_VERSION`]).
    pub version: u32,
    /// Campaign (or harness) name the mission flew under.
    pub campaign: String,
    /// The mission seed.
    pub seed: u64,
    /// System generation flown.
    pub variant: SystemVariant,
    /// Scenario identifier.
    pub scenario_id: usize,
    /// Scenario name.
    pub scenario_name: String,
    /// Scenario-family label the mission's suite was generated under
    /// (`"open"` for the paper benchmark).
    pub family: String,
    /// Campaign-grid cell index (0 outside a campaign).
    pub cell_index: usize,
    /// Repeat index within the cell.
    pub repeat: usize,
    /// FNV-1a hash of the campaign spec's canonical JSON.
    pub config_hash: u64,
    /// Physics-tick decimation the recorder ran with (record every Nth).
    pub tick_decimation: usize,
    /// Clean map-update decimation the recorder ran with.
    pub map_decimation: usize,
    /// Ring-buffer capacity the recorder ran with, events.
    pub capacity: usize,
    /// Events the ring buffer evicted (0 when nothing was lost).
    pub dropped_events: u64,
    /// The fault-space point the mission flew: one coordinate per injected
    /// fault plan, in activation order (empty for fault-free missions).
    pub coordinates: Vec<AxisCoordinate>,
}

/// A complete captured trace: header plus the surviving event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The versioned header.
    pub header: TraceHeader,
    /// Events in capture order (oldest evicted first when the ring
    /// overflowed; see [`TraceHeader::dropped_events`]).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Serialises the trace as JSON lines: header line, then one event per
    /// line.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Serialize`] when serde rejects a value.
    pub fn to_jsonl(&self) -> Result<String, TraceError> {
        let mut out = serde_json::to_string(&self.header)
            .map_err(|e| TraceError::Serialize(e.to_string()))?;
        out.push('\n');
        out.push_str(&self.events_jsonl()?);
        Ok(out)
    }

    /// Serialises only the event stream (one compact-JSON line per event,
    /// each newline-terminated) — the byte string replay verification
    /// compares.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Serialize`] when serde rejects a value.
    pub fn events_jsonl(&self) -> Result<String, TraceError> {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(
                &serde_json::to_string(event).map_err(|e| TraceError::Serialize(e.to_string()))?,
            );
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses a trace back from its JSON-lines form.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Serialize`] on malformed lines and
    /// [`TraceError::UnsupportedVersion`] when the header's format version
    /// is not [`TRACE_FORMAT_VERSION`].
    pub fn from_jsonl(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().filter(|line| !line.trim().is_empty());
        let header_line = lines
            .next()
            .ok_or_else(|| TraceError::Serialize("empty trace".to_string()))?;
        let header: TraceHeader = serde_json::from_str(header_line)
            .map_err(|e| TraceError::Serialize(format!("header: {e}")))?;
        if header.version != TRACE_FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion {
                found: header.version,
                supported: TRACE_FORMAT_VERSION,
            });
        }
        let mut events = Vec::new();
        for (index, line) in lines.enumerate() {
            events
                .push(serde_json::from_str(line).map_err(|e| {
                    TraceError::Serialize(format!("event line {}: {e}", index + 2))
                })?);
        }
        Ok(Self { header, events })
    }

    /// Writes the trace to `path`, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failures.
    pub fn write_to(&self, path: &Path) -> Result<(), TraceError> {
        // Crash-ordered (tmp + fsync + rename): a kill mid-persist never
        // leaves a torn trace under the final name for replay to choke on.
        mls_obs::atomic_write(path, self.to_jsonl()?.as_bytes())
            .map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Reads a trace back from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failures and the
    /// [`Trace::from_jsonl`] errors on malformed content.
    pub fn read_from(path: &Path) -> Result<Self, TraceError> {
        let text = fs::read_to_string(path).map_err(|e| TraceError::Io(e.to_string()))?;
        Self::from_jsonl(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mls_core::MissionResult;
    use mls_geom::Vec3;

    fn header() -> TraceHeader {
        TraceHeader {
            version: TRACE_FORMAT_VERSION,
            campaign: "test".to_string(),
            seed: 42,
            variant: SystemVariant::MlsV3,
            scenario_id: 3,
            scenario_name: "urban-00/s03".to_string(),
            family: "open".to_string(),
            cell_index: 1,
            repeat: 0,
            config_hash: config_hash("{}"),
            tick_decimation: 25,
            map_decimation: 8,
            capacity: 8192,
            dropped_events: 0,
            coordinates: vec![AxisCoordinate {
                axis: "gps-bias".to_string(),
                value: 0.5,
            }],
        }
    }

    fn trace() -> Trace {
        Trace {
            header: header(),
            events: vec![
                TraceEvent::Tick {
                    time: 30.0,
                    position: Vec3::new(0.0, 0.0, 10.0),
                    velocity: Vec3::ZERO,
                    estimated: Vec3::new(0.1, 0.0, 10.0),
                    gps_drift: 0.2,
                    estimation_error: 0.1,
                },
                TraceEvent::MissionEnd {
                    time: 95.0,
                    result: MissionResult::Success,
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = trace();
        let text = trace.to_jsonl().unwrap();
        assert_eq!(text.lines().count(), 3, "header plus two events");
        let parsed = Trace::from_jsonl(&text).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn files_round_trip() {
        let trace = trace();
        let dir = std::env::temp_dir().join(format!("mls-trace-fmt-{}", std::process::id()));
        let path = dir.join("nested").join("t.jsonl");
        trace.write_to(&path).unwrap();
        let back = Trace::read_from(&path).unwrap();
        assert_eq!(back, trace);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newer_versions_are_rejected() {
        for version in [TRACE_FORMAT_VERSION + 1, 0] {
            let mut trace = trace();
            trace.header.version = version;
            let text = trace.to_jsonl().unwrap();
            assert!(
                matches!(
                    Trace::from_jsonl(&text),
                    Err(TraceError::UnsupportedVersion { found, .. }) if found == version
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let mut text = trace().to_jsonl().unwrap();
        text.push_str("not json\n");
        let err = Trace::from_jsonl(&text).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
        assert!(Trace::from_jsonl("").is_err());
    }

    #[test]
    fn coordinates_round_trip_through_the_header() {
        let trace = trace();
        assert_eq!(trace.header.coordinates.len(), 1);
        let text = trace.to_jsonl().unwrap();
        let parsed = Trace::from_jsonl(&text).unwrap();
        assert_eq!(parsed.header.coordinates, trace.header.coordinates);
        assert_eq!(parsed.header.coordinates[0].axis, "gps-bias");

        // A stamped non-open family round-trips too.
        let mut header = header();
        header.family = "constrained-pad".to_string();
        let json = serde_json::to_string(&header).unwrap();
        let back: TraceHeader = serde_json::from_str(&json).unwrap();
        assert_eq!(back, header);
    }

    /// Removes each top-level key of `value` in turn and asserts that
    /// `parse` rejects the result with an error naming the key.
    fn assert_every_key_is_required<T, E: std::fmt::Display>(
        value: &serde::Value,
        parse: impl Fn(&str) -> Result<T, E>,
    ) {
        let serde::Value::Object(fields) = value else {
            panic!("expected a JSON object");
        };
        for (key, _) in fields {
            let stripped = fields.iter().filter(|(k, _)| k != key).cloned().collect();
            let json = serde_json::to_string(&serde::Value::Object(stripped)).unwrap();
            match parse(&json) {
                Ok(_) => panic!("parsed without `{key}`"),
                Err(err) => assert!(
                    err.to_string().contains(&format!("missing field `{key}`")),
                    "without `{key}`: {err}"
                ),
            }
        }
    }

    #[test]
    fn every_header_key_is_required() {
        let value = serde_json::parse(&serde_json::to_string(&header()).unwrap()).unwrap();
        assert_every_key_is_required(&value, serde_json::from_str::<TraceHeader>);
    }

    #[test]
    fn config_hash_is_stable_and_content_sensitive() {
        assert_eq!(config_hash("abc"), config_hash("abc"));
        assert_ne!(config_hash("abc"), config_hash("abd"));
        // The FNV-1a reference value for the empty string.
        assert_eq!(config_hash(""), 0xcbf2_9ce4_8422_2325);
    }
}
